"""Time the items phase of cached multiple-choice scoring per packing budget; write a JSON curve.

    PYTHONPATH=src python3 tools/mc_items_scaling.py [--out BENCH_mc_items.json]

`evaluate._score_cached` prefills the demonstration cache, then scores
the items in packed `score_trees` forwards of at most
`evaluate.ITEM_TOKEN_BUDGET` new tokens, each over a clone of that
cache. This tool sets that constant to each budget in turn (budget 1
puts every item in a forward of its own; "all" puts every item in one
forest) and records the items phase: the time spent in `clone` and
`score_trees`, median of 15 calls after one warm-up, the budgets taking
turns call by call. Inputs follow the benchmark's `mc-fewshot` workload
(perfbench/workloads.py): its model sizes, 5 shots from 8
demonstrations of 20 sentences, 3-choice synth items, and its seed
derivation from workload seed 11, round 0. Each point also records the
forwards per call, the new tokens they run, and the largest relative
difference of its scores from budget 1's. BLAS is pinned to one thread
before numpy is imported. Takes under half a minute on 2 vCPU; it is
not part of the test suite.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import tempfile
import time
from pathlib import Path

from gitinfo import git_commit

ITEM_COUNTS = (1, 8, 32, 128)
BUDGETS = (1, 32, 64, 128, 256, "all")
RUNS = 15
SIZES = {"d_model": 64, "n_layers": 2, "n_heads": 4, "d_ff": 256, "context_len": 1024}
DEMO_DOCS, DEMO_SENTENCES, SHOTS, CHOICES = 8, 20, 5, 3
SEED = 11
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
ROOT = Path(__file__).resolve().parent.parent


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default=str(ROOT / "BENCH_mc_items.json"))
    args = parser.parse_args()
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    import numpy as np

    from anchorlm import evaluate
    from anchorlm.cache import AnchorKVCache
    from anchorlm.corpus import AnchorPolicy, build_vocab
    from anchorlm.model import ModelConfig, init_weights
    from anchorlm.synth import make_corpus, make_task

    def derive(*keys: int) -> int:  # the benchmark's child seeds
        return int(np.random.default_rng([SEED, *keys]).integers(2**31))

    policy = AnchorPolicy(mode="ac")
    docs = make_corpus(DEMO_DOCS, sentences_per_doc=DEMO_SENTENCES, seed=derive(1))
    with tempfile.TemporaryDirectory() as tmp:
        corpus = Path(tmp) / "demos.txt"
        corpus.write_text("\n".join(docs), encoding="utf-8")
        vocab = build_vocab([corpus], policy, 10**6)
    config = ModelConfig(vocab_size=len(vocab), **SIZES)
    weights = init_weights(config, seed=derive(2), anchor_id=vocab.anchor_id)
    rng = np.random.default_rng(derive(4, 0))
    demo_texts = [docs[i] + " grain" for i in rng.choice(DEMO_DOCS, size=SHOTS, replace=False)]

    # the items phase's calls, timed and summed over one _score_cached
    spent, groups = [0.0], []
    clone, score_trees = AnchorKVCache.clone, evaluate.score_trees

    def timed(fn, *args):
        t0 = time.perf_counter()
        out = fn(*args)
        spent[0] += time.perf_counter() - t0
        return out

    def timed_score_trees(weights, cache, trees, ansan):
        groups.append(sum(len(ids) + sum(len(c) - 1 for c in cs) for ids, _, cs in trees))
        return timed(score_trees, weights, cache, trees, ansan)

    AnchorKVCache.clone = lambda cache: timed(clone, cache)
    evaluate.score_trees = timed_score_trees

    points = []
    for n_items in ITEM_COUNTS:
        items, _ = make_task(n_items, n_choices=CHOICES, seed=derive(3, 0))
        demo, prepared, skipped = evaluate._prepare_items(
            items, demo_texts, vocab, policy, config.context_len
        )
        assert not skipped
        runs = {budget: [] for budget in BUDGETS}
        # budgets take turns, so host noise spreads over all of them
        for rep in range(RUNS + 1):  # the first pass warms up
            for budget in BUDGETS:
                evaluate.ITEM_TOKEN_BUDGET = 10**9 if budget == "all" else budget
                spent[0] = 0.0
                groups.clear()
                scores, _ = evaluate._score_cached(weights, demo, prepared, use_ansan=True)
                if rep:
                    runs[budget].append((spent[0], np.asarray(scores), list(groups)))
        reference = runs[1][0][1]
        for budget, timed_runs in runs.items():
            seconds = [t for t, _, _ in timed_runs]
            _, scores, sizes = timed_runs[-1]
            points.append({
                "items": n_items,
                "budget": budget,
                "items_ms_median": 1e3 * statistics.median(seconds),
                "items_ms": [1e3 * t for t in seconds],
                "forwards": len(sizes),
                "new_tokens": sum(sizes),
                "max_rel_score_diff": float(np.max(np.abs(scores - reference) / np.abs(reference))),
            })
            print(f"items={n_items} budget={budget}: {points[-1]['items_ms_median']:.2f} ms, "
                  f"{len(sizes)} forwards", flush=True)

    report = {
        "what": "items phase of cached mc scoring (clone + score_trees) per packing budget",
        "environment": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "blas_threads": {var: os.environ[var] for var in BLAS_THREAD_VARS},
            "nproc": os.cpu_count(),
            "machine": platform.machine(),
            "git_commit": git_commit(),
        },
        "model": {**SIZES, "vocab_size": len(vocab), "seed": derive(2)},
        "workload": {"seed": SEED, "shots": SHOTS, "demo_docs": DEMO_DOCS,
                     "demo_sentences": DEMO_SENTENCES, "choices": CHOICES},
        "runs_per_point": RUNS,
        "points": points,
    }
    Path(args.out).write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
