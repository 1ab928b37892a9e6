"""Measure one of the committed benchmark curves and write it as JSON.

    PYTHONPATH=src python3 tools/curves.py {decode,dense,mc-items} [--out FILE]

Each curve writes its committed file unless --out names another:
`decode` BENCH_decode_scaling.json, `dense` BENCH_dense_forward.json and
`mc-items` BENCH_mc_items.json. A committed file is written only from a
clean checkout, since the commit it records must hold the code it
measured; --out elsewhere takes any tree. The curves share one
protocol. BLAS is pinned to one thread before numpy is imported. At
each point the calls being compared each run once to warm up, then
take turns for the curve's number of runs, in reversed order every
other run, so they share the machine's noise (`turns`). A traced peak
is the tracemalloc peak of one more call (`traced_peak_mb`). Every file
records the environment it was measured in, with the checkout's commit.
Each curve's docstring says what it measures and from which inputs. On
2 vCPU, decode takes about 11 s, dense about 3 s and mc-items about
4 s. The curves are not part of the test suite.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
import tracemalloc
from dataclasses import replace
from functools import partial
from pathlib import Path

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
ROOT = Path(__file__).resolve().parent.parent


def turns(calls: dict, runs: int) -> dict[object, list]:
    """Run each call once to warm up, then `runs` times, the calls taking
    turns in reversed order every other run; per call name, what its
    timed runs returned, in order."""
    for call in calls.values():
        call()
    results = {name: [] for name in calls}
    for r in range(runs):
        for name in list(calls)[:: 1 if r % 2 == 0 else -1]:
            results[name].append(calls[name]())
    return results


def traced_peak_mb(call) -> float:
    """The tracemalloc peak of one call, in MB."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()


def git_commit() -> str:
    """The checkout's full commit hash, with "-dirty" when the tree has
    uncommitted changes, or "unknown" without git."""
    try:
        return subprocess.run(
            ["git", "describe", "--always", "--dirty", "--abbrev=40"],
            cwd=ROOT, capture_output=True, text=True, check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def shape(sizes) -> dict:
    """The model shape fields of a `workloads.Sizes`, as each file records them."""
    return {"d_model": sizes.d_model, "n_layers": sizes.n_layers, "n_heads": sizes.n_heads,
            "d_ff": sizes.d_ff}


def environment() -> dict:
    import numpy as np

    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_threads": {var: os.environ[var] for var in BLAS_THREAD_VARS},
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "processor": platform.processor(),
        "git_commit": git_commit(),
    }


# -- decode ----------------------------------------------------------------------

DECODE_LENGTHS = (128, 512, 1024, 2048, 4096)
NEW_TOKENS = 128
DECODE_RUNS = 9
STREAM_DOCS = 40  # ~6k tokens, enough for the longest prompt
ARMS = {"reduced": True, "full": False}  # arm -> GenerationConfig.reduction_enabled


def decode() -> dict:
    """Time `generate` after growing prompts, cache reduction on and off.

    The model, vocabulary and token stream are `perfbench`'s decode-long
    set-up (benchmark sizes: d_model 64, 2 layers, 4 heads, d_ff 256;
    random weights; a synthetic corpus under the `ac` anchor policy),
    built from a fixed seed with a stream long enough for the longest
    prompt. Each prompt is a slice of that stream at a seeded start.
    `generate` then samples NEW_TOKENS tokens at temperature 1 from a
    fixed sample seed, with reduction on (the anchor arm) and off (the
    full-cache arm); both arms pick the same tokens.

    Token times come from decode-long's own clock: a hook stamps each
    `infer.forward` call, and a token is ready when the call for the
    next one starts. So a decode step is everything between two
    forwards: sampling, any reduction, the mask row and the forward
    itself. For each prompt length and arm the file records the median
    ms/token over the decode steps of each of DECODE_RUNS runs (the arms
    take turns), their median, TTFT (the prompt's `advance`, with its
    reduction in the reduced arm, plus the first sample), the mean and
    peak live cache size over the decode steps (the sizes the tokens
    were sampled at), the cache's lifetime peak, and the traced peak.
    In the full arm the prompt's dense forward sets that peak; the
    reduced arm's prompt forward keeps only the rows the reduction
    keeps, so every layer but the first runs only the anchors and the
    open sequence, and its peak is lower."""
    import numpy as np

    import anchorlm.infer as infer
    from tracing import Patches
    from workloads import DecodeLong, Sizes, derive

    seed = 0
    sizes = replace(
        Sizes(), context_len=max(DECODE_LENGTHS), new_tokens=NEW_TOKENS, stream_docs=STREAM_DOCS
    )
    bench = DecodeLong(seed, sizes)
    patches = Patches()
    bench.install_hooks(patches)  # stamps bench.clock at each infer.forward call

    def run(prefix, cfg):
        """One generate: its result, its decode-step seconds and its TTFT."""
        bench.clock.clear()
        t0 = time.perf_counter()
        res = infer.generate(bench.weights, prefix, cfg)
        ready = bench.clock[1:] + [time.perf_counter()]
        steps = [b - a for a, b in zip(ready, ready[1:])]
        return res, steps, ready[0] - t0

    points = []
    for L in DECODE_LENGTHS:
        rng = np.random.default_rng([seed, L])
        start = int(rng.integers(len(bench.stream) - L + 1))
        prefix = bench.stream.slice(start, start + L)
        base = infer.GenerationConfig(
            max_new_tokens=NEW_TOKENS, anchor_token_id=bench.vocab.anchor_id,
            temperature=1.0, sample_seed=derive(seed, L),
        )
        calls = {
            arm: partial(run, prefix, replace(base, reduction_enabled=on))
            for arm, on in ARMS.items()
        }
        runs = turns(calls, DECODE_RUNS)
        if runs["reduced"][-1][0].ids != runs["full"][-1][0].ids:
            raise SystemExit(f"prompt {L}: the arms generated different tokens")
        point = {"prompt_tokens": L}
        for arm, call in calls.items():
            peak = traced_peak_mb(call)
            step_ms = [1e3 * statistics.median(steps) for _, steps, _ in runs[arm]]
            ttft_ms = [1e3 * ttft for _, _, ttft in runs[arm]]
            res = runs[arm][-1][0]
            point[arm] = {
                "ms_per_token_median": statistics.median(step_ms),
                "ms_per_token": step_ms,
                "ttft_ms_median": statistics.median(ttft_ms),
                "ttft_ms": ttft_ms,
                "live_mean": statistics.fmean(res.live_sizes[1:]),
                "live_peak": max(res.live_sizes[1:]),
                "peak_live_count": res.stats.peak_live_count,
                "traced_peak_mb": peak,
            }
            print(f"L={L} {arm}: {point[arm]['ms_per_token_median']:.3f} ms/token, "
                  f"TTFT {point[arm]['ttft_ms_median']:.1f} ms, "
                  f"live {point[arm]['live_mean']:.0f}, {peak:.1f} MB", flush=True)
        points.append(point)
    patches.restore()

    return {
        "what": "generate() after a prompt of each length, cache reduction on (reduced) "
                "and off (full): decode ms/token, TTFT, live cache size and traced peak",
        "environment": environment(),
        "model": {**shape(sizes), "vocab_size": bench.weights.config.vocab_size, "seed": seed},
        "new_tokens": NEW_TOKENS,
        "runs_per_point": DECODE_RUNS,
        "points": points,
    }


# -- dense -----------------------------------------------------------------------

DENSE_LENGTHS = (256, 512, 1024, 2048, 4096)
ANCHOR_EVERY = 12
DENSE_RUNS = 5
# curve name -> what it times
DENSE_CURVES = {
    "all_rows": "every row, the prebuilt dense block mask_rows(flags)[:]",
    "last_row": "logit_rows=[-1], the prebuilt dense block mask_rows(flags)[:]",
    "scored_rows": "logit_rows=[-1], kv_rows=[], mask_rows(flags) built in the call",
}
DENSE_VOCAB = 512


def dense() -> dict:
    """Time and trace one dense forward over growing prompts.

    A dense forward is one `model.forward` over the whole prompt under
    its anchor mask, with no cache. Three curves are measured at each
    length: the forward that returns every row's logits (`eval ppl` and
    training run it), the one that returns the last row's only
    (`logit_rows=[-1]`, whose last layer runs one query row past its
    keys/values; the full-cache arm's prompt `advance` makes this call,
    and also writes every row's keys/values into the cache), both given
    the whole mask prebuilt outside the timed call as a dense block,
    `mask_rows(flags)[:]`; and the non-cached scorer's forward
    (`logit_rows=[-1], kv_rows=[]`, as `infer.score_continuation` runs
    it, which keeps no keys/values, so each layer runs only the rows a
    later read needs), given the mask as that scorer passes it,
    `mask_rows(flags)`, built in the timed call: where `mask_rows` gives
    a rule read by rows, only the rows read are built. The model has the
    benchmark's sizes (d_model 64, 2 layers, 4 heads, d_ff 256) with
    random weights from a fixed seed, and the prompt is random ids from
    a fixed seed with an anchor closing every ANCHOR_EVERY-th token. For
    each length and curve the file records the median seconds of
    DENSE_RUNS forwards (the curves take turns) and the traced peak; per
    length also the attention keys the mask rows keep, and one
    (heads, T, T) float64 score buffer in MB for scale. It also records
    attention's tile size and threshold (`autodiff.TILE_ROWS` and
    `TILE_MIN_PAIRS`): from the threshold on, a layer's attention runs
    per tile of query rows over only the keys those rows keep."""
    import numpy as np

    from anchorlm import autodiff
    from anchorlm.corpus import SegmentedText
    from anchorlm.masks import mask_rows, segment_flags
    from anchorlm.model import ModelConfig, forward, init_weights
    from workloads import Sizes

    seed = 0
    sizes = Sizes()
    config = ModelConfig(vocab_size=DENSE_VOCAB, context_len=max(DENSE_LENGTHS), **shape(sizes))
    weights = init_weights(config, seed=seed)

    def seconds(call) -> float:
        t0 = time.perf_counter()
        call()
        return time.perf_counter() - t0

    points = []
    for T in DENSE_LENGTHS:
        ids = np.random.default_rng([seed, T]).integers(0, DENSE_VOCAB, T)
        seg = SegmentedText(
            ids=ids.tolist(),
            is_anchor=[t % ANCHOR_EVERY == ANCHOR_EVERY - 1 for t in range(T)],
            seq_index=[t // ANCHOR_EVERY for t in range(T)],
        )
        flags = segment_flags(seg)
        mask = mask_rows(flags)[:]
        calls = {
            "all_rows": lambda: forward(weights, ids, mask),
            "last_row": lambda: forward(weights, ids, mask, logit_rows=[-1]),
            "scored_rows": lambda: forward(
                weights, ids, mask_rows(flags), logit_rows=[-1], kv_rows=[]
            ),
        }
        runs = turns({curve: partial(seconds, call) for curve, call in calls.items()}, DENSE_RUNS)
        point = {"tokens": T}
        for curve, call in calls.items():
            peak = traced_peak_mb(call)
            point[curve] = {
                "seconds_median": statistics.median(runs[curve]),
                "seconds": runs[curve],
                "traced_peak_mb": peak,
            }
            print(f"T={T} {curve}: {point[curve]['seconds_median']:.4f} s, "
                  f"{peak:.1f} MB", flush=True)
        point["score_buffer_mb"] = config.n_heads * T * T * 8 / 1e6
        point["kept_keys"] = int(mask.sum())
        points.append(point)

    return {
        "what": "one dense anchor-masked forward per prompt length (no cache), "
                "returning every row's logits or the last row's only, or keeping no "
                "keys/values as the non-cached scorer does",
        "curves": DENSE_CURVES,
        "environment": environment(),
        "model": {**shape(sizes), "vocab_size": DENSE_VOCAB, "seed": seed},
        "anchor_every": ANCHOR_EVERY,
        "attention_tile": {"rows": autodiff.TILE_ROWS, "min_pairs": autodiff.TILE_MIN_PAIRS},
        "runs_per_point": DENSE_RUNS,
        "points": points,
    }


# -- mc-items --------------------------------------------------------------------

ITEM_COUNTS = (1, 8, 32, 128)
BUDGETS = (1, 32, 64, 128, 256, "all")
MC_RUNS = 15
CHOICES = 3


def mc_items() -> dict:
    """Time the items phase of cached multiple-choice scoring per packing budget.

    `evaluate._score_cached` prefills the demonstration cache, then
    scores the items in packed `score_trees` forwards of at most
    `evaluate.ITEM_TOKEN_BUDGET` new tokens, each over a clone of that
    cache. This curve sets that constant to each budget in turn (budget
    1 puts every item in a forward of its own; "all" puts every item in
    one forest) and records the items phase: the time spent in `clone`
    and `score_trees`, median of MC_RUNS calls (the budgets take turns).
    The model, vocabulary and demonstration pool are `perfbench`'s
    mc-fewshot set-up from workload seed 11 at the benchmark's sizes,
    and its round 0 gives the 3-choice synth items and the 5 shots drawn
    from the pool of 8 demonstrations of 20 sentences. Each point also
    records the forwards per call, the new tokens they run, and the
    largest relative difference of its scores from budget 1's."""
    import numpy as np

    from anchorlm import evaluate
    from anchorlm.cache import AnchorKVCache
    from anchorlm.synth import make_task
    from tracing import Patches
    from workloads import POLICY, McFewshot, Sizes, derive

    seed = 11
    bench = McFewshot(seed, Sizes())
    sizes, pool, weights = bench.sizes, bench.demo_pool, bench.weights
    # the demonstrations run_mc_task picks in round 0
    chosen = np.random.default_rng(derive(seed, 4, 0)).choice(
        len(pool), size=sizes.shots, replace=False
    )
    demo_texts = [pool[i].context + " " + pool[i].choices[pool[i].gold] for i in chosen]

    # the items phase's calls, timed and summed over one _score_cached
    spent, groups = [0.0], []

    def timed(fn):
        def call(*args):
            t0 = time.perf_counter()
            out = fn(*args)
            spent[0] += time.perf_counter() - t0
            return out

        return call

    def counted(fn):
        def score_trees(weights, cache, trees):
            groups.append(sum(len(ids) + sum(len(c) - 1 for c in cs) for ids, _, cs in trees))
            return fn(weights, cache, trees)

        return score_trees

    patches = Patches()
    patches.wrap(AnchorKVCache, "clone", timed)
    patches.wrap(evaluate, "score_trees", lambda fn: counted(timed(fn)))

    def items_phase(demo, prepared, budget):
        evaluate.ITEM_TOKEN_BUDGET = 10**9 if budget == "all" else budget
        spent[0] = 0.0
        groups.clear()
        scores, _ = evaluate._score_cached(weights, demo, prepared)
        return spent[0], np.asarray(scores), list(groups)

    points = []
    for n_items in ITEM_COUNTS:
        items, _ = make_task(n_items, n_choices=CHOICES, seed=derive(seed, 3, 0))
        demo, prepared, skipped = evaluate._prepare_items(
            items, demo_texts, bench.vocab, POLICY, weights.config.context_len
        )
        if skipped:
            raise SystemExit(f"{skipped} of {n_items} items do not fit the context")
        runs = turns({b: partial(items_phase, demo, prepared, b) for b in BUDGETS}, MC_RUNS)
        reference = runs[1][0][1]
        for budget, timed_runs in runs.items():
            seconds = [t for t, _, _ in timed_runs]
            _, scores, tokens = timed_runs[-1]
            points.append({
                "items": n_items,
                "budget": budget,
                "items_ms_median": 1e3 * statistics.median(seconds),
                "items_ms": [1e3 * t for t in seconds],
                "forwards": len(tokens),
                "new_tokens": sum(tokens),
                "max_rel_score_diff": float(np.max(np.abs(scores - reference) / np.abs(reference))),
            })
            print(f"items={n_items} budget={budget}: {points[-1]['items_ms_median']:.2f} ms, "
                  f"{len(tokens)} forwards", flush=True)
    patches.restore()

    return {
        "what": "items phase of cached mc scoring (clone + score_trees) per packing budget",
        "environment": environment(),
        "model": {**shape(sizes), "context_len": sizes.context_len,
                  "vocab_size": len(bench.vocab), "seed": derive(seed, 2)},
        "workload": {"seed": seed, "shots": sizes.shots, "demo_docs": sizes.demo_docs,
                     "demo_sentences": sizes.demo_sentences, "choices": CHOICES},
        "runs_per_point": MC_RUNS,
        "points": points,
    }


# curve -> (its function, the committed file it writes)
CURVES = {
    "decode": (decode, "BENCH_decode_scaling.json"),
    "dense": (dense, "BENCH_dense_forward.json"),
    "mc-items": (mc_items, "BENCH_mc_items.json"),
}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("curve", choices=CURVES)
    parser.add_argument("--out", help="the file to write (default: the curve's committed file)")
    args = parser.parse_args()
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(ROOT / "perfbench"))
    measure, committed = CURVES[args.curve]
    out = Path(args.out or ROOT / committed).resolve()
    commit = git_commit()
    if out in {ROOT / name for _, name in CURVES.values()} and (
        commit.endswith("-dirty") or commit == "unknown"
    ):
        raise SystemExit(f"{out.name} is committed, but the checkout is at {commit}: "
                         "commit the code first, or write elsewhere with --out")
    report = measure()
    out.write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
