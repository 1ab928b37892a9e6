"""Time `generate` after growing prompts, cache reduction on and off; write a JSON curve.

    PYTHONPATH=src python3 tools/decode_scaling.py [--out BENCH_decode_scaling.json]

The model, vocabulary and token stream are `perfbench`'s decode-long
set-up (benchmark sizes: d_model 64, 2 layers, 4 heads, d_ff 256; random
weights; a synthetic corpus under the `ac` anchor policy), built from a
fixed seed with a stream long enough for the longest prompt. Each prompt
is a slice of that stream at a seeded start. `generate` then samples
NEW_TOKENS tokens at temperature 1 from a fixed sample seed, with
reduction on (the anchor arm) and off (the full-cache arm); both arms
pick the same tokens.

Token times come from decode-long's own clock: a hook stamps each
`infer.forward` call, and a token is ready when the call for the next
one starts. So a decode step is everything between two forwards:
sampling, any reduction, the mask row and the forward itself. For each
prompt length and arm the file records the median ms/token over the
decode steps of each of RUNS runs (the arms take turns), their median,
TTFT (the prompt's `advance`, with its reduction in the reduced arm,
plus the first sample), the mean and peak live cache size over the
decode steps (the sizes the tokens were sampled at), the cache's
lifetime peak, and the tracemalloc peak of one more run. In the full
arm the prompt's dense forward sets that peak; the reduced arm's prompt
forward keeps only the rows the reduction keeps, so every layer but the
first runs only the anchors and the open sequence, and its peak is
lower. BLAS is pinned to one thread before numpy is imported. Takes
about a minute on 2 vCPU; it is not part of the test suite.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import sys
import time
import tracemalloc
from dataclasses import replace
from pathlib import Path

from gitinfo import git_commit

LENGTHS = (128, 512, 1024, 2048, 4096)
NEW_TOKENS = 128
RUNS = 9
STREAM_DOCS = 40  # ~6k tokens, enough for the longest prompt
SEED = 0
ARMS = {"reduced": True, "full": False}  # arm -> GenerationConfig.reduction_enabled
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
ROOT = Path(__file__).resolve().parent.parent


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default=str(ROOT / "BENCH_decode_scaling.json"))
    args = parser.parse_args()
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(ROOT / "perfbench"))
    import numpy as np

    import anchorlm.infer as infer
    from tracing import Patches
    from workloads import DecodeLong, Sizes, derive

    sizes = replace(
        Sizes(), context_len=max(LENGTHS), new_tokens=NEW_TOKENS, stream_docs=STREAM_DOCS
    )
    bench = DecodeLong(SEED, sizes)
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
    for L in LENGTHS:
        rng = np.random.default_rng([SEED, L])
        start = int(rng.integers(len(bench.stream) - L + 1))
        prefix = bench.stream.slice(start, start + L)
        base = infer.GenerationConfig(
            max_new_tokens=NEW_TOKENS, anchor_token_id=bench.vocab.anchor_id,
            temperature=1.0, sample_seed=derive(SEED, L),
        )
        cfgs = {arm: replace(base, reduction_enabled=on) for arm, on in ARMS.items()}
        for cfg in cfgs.values():
            run(prefix, cfg)  # warm-up
        step_ms = {arm: [] for arm in ARMS}
        ttft_ms = {arm: [] for arm in ARMS}
        results = {}
        for r in range(RUNS):
            for arm in list(ARMS)[:: 1 if r % 2 == 0 else -1]:
                res, steps, ttft = run(prefix, cfgs[arm])
                step_ms[arm].append(1e3 * statistics.median(steps))
                ttft_ms[arm].append(1e3 * ttft)
                results[arm] = res
        if results["reduced"].ids != results["full"].ids:
            raise SystemExit(f"prompt {L}: the arms generated different tokens")
        point = {"prompt_tokens": L}
        for arm, cfg in cfgs.items():
            tracemalloc.start()
            run(prefix, cfg)
            peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()
            res = results[arm]
            point[arm] = {
                "ms_per_token_median": statistics.median(step_ms[arm]),
                "ms_per_token": step_ms[arm],
                "ttft_ms_median": statistics.median(ttft_ms[arm]),
                "ttft_ms": ttft_ms[arm],
                "live_mean": statistics.fmean(res.live_sizes[1:]),
                "live_peak": max(res.live_sizes[1:]),
                "peak_live_count": res.stats.peak_live_count,
                "traced_peak_mb": peak / 1e6,
            }
            print(f"L={L} {arm}: {point[arm]['ms_per_token_median']:.3f} ms/token, "
                  f"TTFT {point[arm]['ttft_ms_median']:.1f} ms, "
                  f"live {point[arm]['live_mean']:.0f}, {peak / 1e6:.1f} MB", flush=True)
        points.append(point)
    patches.restore()

    report = {
        "what": "generate() after a prompt of each length, cache reduction on (reduced) "
                "and off (full): decode ms/token, TTFT, live cache size and traced peak",
        "environment": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "blas_threads": {var: os.environ[var] for var in BLAS_THREAD_VARS},
            "nproc": os.cpu_count(),
            "machine": platform.machine(),
            "processor": platform.processor(),
            "git_commit": git_commit(),
        },
        "model": {
            "d_model": sizes.d_model, "n_layers": sizes.n_layers, "n_heads": sizes.n_heads,
            "d_ff": sizes.d_ff, "vocab_size": bench.weights.config.vocab_size, "seed": SEED,
        },
        "new_tokens": NEW_TOKENS,
        "runs_per_point": RUNS,
        "points": points,
    }
    Path(args.out).write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
