"""Smoke self-test of the benchmark at tiny sizes (a few seconds):

    python3 -m pytest -q perfbench
"""

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import anchorlm.cache as cache  # noqa: E402
import run  # noqa: E402
from workloads import TINY, WORKLOADS  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def test_spec_lists_the_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("workload", list(WORKLOADS))
@pytest.mark.parametrize("trace", [False, True])
def test_tiny_run_is_correct_and_complete(workload, trace):
    result, lines = run.run(workload, seed=3, seconds=0.3, trace=trace, sizes=TINY)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"], lines
    assert result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in wanted} == {
        name: m["unit"] for name, m in result["metrics"].items()
    }
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_wrappers_are_restored():
    before = cache.AnchorKVCache.__dict__["stacked"]
    run.run("decode-long", seed=3, seconds=0.1, trace=True, sizes=TINY)
    assert cache.AnchorKVCache.__dict__["stacked"] is before


def _drop_all_but_last(kv):
    kv.entries = kv.entries[-1:]


@pytest.mark.parametrize("workload,method,lossy", [
    # a reduction that also drops anchors changes what later tokens see
    ("decode-long", "reduction", _drop_all_but_last),
    # a demo cache that loses its anchors changes the cached scores
    ("mc-fewshot", "clone", lambda kv: cache.AnchorKVCache()),
])
def test_lossy_cache_is_caught(monkeypatch, workload, method, lossy):
    monkeypatch.setattr(cache.AnchorKVCache, method, lossy)
    result, _ = run.run(workload, seed=3, seconds=0.1, trace=False, sizes=TINY)
    assert not result["correct"] and result["failed"] > 0
