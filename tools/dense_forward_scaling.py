"""Time and trace one dense forward over growing prompts; write a JSON curve.

    PYTHONPATH=src python3 tools/dense_forward_scaling.py [--out BENCH_dense_forward.json]

A dense forward is one `model.forward` over the whole prompt under its
anchor mask, with no cache. Three curves are measured at each length:
the forward that returns every row's logits (`eval ppl` and training
run it), the one that returns the last row's only (`logit_rows=[-1]`,
whose last layer runs one query row past its keys/values), which
`generate`'s prefix runs, both given the whole mask prebuilt outside
the timed call as a dense block, `mask_rows(flags)[:]`; and the
non-cached scorer's forward (`logit_rows=[-1], kv_rows=[]`, as
`infer.score_continuation` runs it, which keeps no keys/values, so each
layer runs only the rows a later read needs), given the mask as that
scorer passes it, `mask_rows(flags)`, built in the timed call: where
`mask_rows` gives a rule read by rows, only the rows read are built.
The model has the benchmark's sizes (d_model
64, 2 layers, 4 heads, d_ff 256) with random weights from a fixed seed,
and the prompt is random ids from a fixed seed with an anchor closing
every 12th token. For each length and curve the file records the
median seconds of 5 forwards after one warm-up (the curves take turns,
forward and reversed order in alternate runs, so they share the
machine's noise), and the tracemalloc peak of
one more forward; per length also the attention keys the mask rows
keep, and one (heads, T, T) float64 score buffer in MB for scale. BLAS
is pinned to one thread before numpy is imported. Takes under a minute
on 2 vCPU; it is not part of the test suite.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import time
import tracemalloc
from pathlib import Path

from gitinfo import git_commit

LENGTHS = (256, 512, 1024, 2048, 4096)
ANCHOR_EVERY = 12
RUNS = 5
# curve name -> what it times
CURVES = {
    "all_rows": "every row, the prebuilt dense block mask_rows(flags)[:]",
    "last_row": "logit_rows=[-1], the prebuilt dense block mask_rows(flags)[:]",
    "scored_rows": "logit_rows=[-1], kv_rows=[], mask_rows(flags) built in the call",
}
SIZES = {"d_model": 64, "n_layers": 2, "n_heads": 4, "d_ff": 256}
VOCAB = 512
SEED = 0
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
ROOT = Path(__file__).resolve().parent.parent


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default=str(ROOT / "BENCH_dense_forward.json"))
    args = parser.parse_args()
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    import numpy as np

    from anchorlm.corpus import SegmentedText
    from anchorlm.masks import mask_rows, segment_flags
    from anchorlm.model import ModelConfig, forward, init_weights

    config = ModelConfig(vocab_size=VOCAB, context_len=max(LENGTHS), **SIZES)
    weights = init_weights(config, seed=SEED)
    points = []
    for T in LENGTHS:
        ids = np.random.default_rng([SEED, T]).integers(0, VOCAB, T)
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
        point = {"tokens": T}
        seconds = {curve: [] for curve in CURVES}
        for call in calls.values():
            call()  # warm-up
        for run in range(RUNS):
            for curve in list(CURVES)[:: 1 if run % 2 == 0 else -1]:
                t0 = time.perf_counter()
                calls[curve]()
                seconds[curve].append(time.perf_counter() - t0)
        for curve in CURVES:
            tracemalloc.start()
            calls[curve]()
            peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()
            point[curve] = {
                "seconds_median": statistics.median(seconds[curve]),
                "seconds": seconds[curve],
                "traced_peak_mb": peak / 1e6,
            }
            print(f"T={T} {curve}: {point[curve]['seconds_median']:.4f} s, "
                  f"{peak / 1e6:.1f} MB", flush=True)
        point["score_buffer_mb"] = config.n_heads * T * T * 8 / 1e6
        point["kept_keys"] = int(mask.sum())
        points.append(point)

    report = {
        "what": "one dense anchor-masked forward per prompt length (no cache), "
                "returning every row's logits or the last row's only, or keeping no "
                "keys/values as the non-cached scorer does",
        "curves": CURVES,
        "environment": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "blas_threads": {var: os.environ[var] for var in BLAS_THREAD_VARS},
            "nproc": os.cpu_count(),
            "machine": platform.machine(),
            "git_commit": git_commit(),
        },
        "model": {**SIZES, "vocab_size": VOCAB, "seed": SEED},
        "anchor_every": ANCHOR_EVERY,
        "runs_per_point": RUNS,
        "points": points,
    }
    Path(args.out).write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
