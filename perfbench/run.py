"""anchorlm benchmark: one closed-loop caller drives the public API.

    python3 perfbench/run.py --workload decode-long --seed 1 --seconds 40 --trace 0

Run from the root of a checkout; the package is imported from ./src.
The report goes to standard output and its last line is one JSON
object: {"correct", "attempted", "failed", "metrics"}. With --trace 0
the metrics are the end-to-end ones of BENCHMARK.json, measured with
only the clock hooks installed; with --trace 1 they are the per-layer
ones, measured by wrapping each module's entry points (tracing.py).
Metric definitions: GLOSSARY.md.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import math
import os
import platform
import resource
import sys
import time
from dataclasses import asdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUPS = 15  # set-ups per run, spread evenly over it; setup_s is their median
# One caller in one process: BLAS stays on one thread, because a second
# thread competing for a shared 2-core machine made timings slower and
# less steady. Set before numpy is first imported.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
WARMUP_ROUND = 999_999  # round index of the untimed warm-up


def import_package() -> None:
    """Import anchorlm from this checkout's src/, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "anchorlm" / "__init__.py").is_file():
        sys.exit(f"error: no anchorlm sources under {src}; run from a full checkout")
    sys.path[:0] = [str(src), str(HERE)]
    import anchorlm

    if Path(anchorlm.__file__).resolve().parent != src / "anchorlm":
        sys.exit(f"error: imported anchorlm from {anchorlm.__file__}, not {src}")


# -- environment ---------------------------------------------------------------


def git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def blas_info() -> tuple[str, str]:
    """BLAS library name/version and its thread count, where readable."""
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        name = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, AttributeError):
        name = "unknown"
    threads = "unknown"
    # numpy wheels bundle their BLAS next to the package; it is loaded already
    for path in sorted(Path(np.__file__).parent.parent.glob("numpy.libs/*openblas*")):
        try:
            lib = ctypes.CDLL(str(path))
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                threads = str(fn())
                break
    return name, threads


def environment(workload: str, seed: int, seconds: float, trace: bool, sizes) -> dict:
    import numpy as np

    blas, threads = blas_info()
    return {
        "git_commit": git_commit(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": threads,
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "sizes": asdict(sizes),
    }


# -- statistics ------------------------------------------------------------------


def pct(values: list[float], q: float) -> float:
    import numpy as np

    return float(np.percentile(values, q)) if values else float("nan")


def median(values: list[float]) -> float:
    return pct(values, 50.0)


# -- the run ----------------------------------------------------------------------


def run_round(wl, r, tracer=None):
    """One round; an exception counts as one failed operation."""
    from workloads import Round

    try:
        return wl.round(r, tracer)
    except Exception as exc:  # keep the loop going; the result reports it
        out = Round(attempted=1)
        out.fail(f"round {r}: {type(exc).__name__}: {exc}")
        return out


def traced_round(wl, r):
    """One round with every layer boundary wrapped; (round, tracer, wall s)."""
    from tracing import Patches, Tracer

    tracer = Tracer(wl.kv_bytes_per_entry)
    patches = Patches()
    tracer.install(patches)
    try:
        t0 = time.perf_counter()
        out = run_round(wl, r, tracer)
        return out, tracer, time.perf_counter() - t0
    finally:
        patches.restore()


def set_up(cls, seed: int, sizes, setup_s: list[float]):
    """Build the workload once, appending its set-up seconds."""
    t0 = time.perf_counter()
    wl = cls(seed, sizes)
    setup_s.append(time.perf_counter() - t0)
    return wl


def measure(wl, seconds: float, again) -> list:
    """Untraced rounds until `seconds` have passed; `again(elapsed)` may
    repeat the set-up between rounds."""
    rounds, start = [], time.perf_counter()
    while time.perf_counter() - start < seconds:
        rounds.append(run_round(wl, len(rounds)))
        again(time.perf_counter() - start)
    return rounds


def measure_traced(wl, seconds: float, again) -> tuple[list, dict[str, float], list[str], list[str]]:
    """Each round untraced, then traced from the same state; round 0 is
    replayed once more for the exact-count self-check. Returns (all
    rounds, per-layer metrics, report lines, self-check errors)."""
    from tracing import Tracer

    totals = Tracer(wl.kv_bytes_per_entry)
    walls = {"untraced": 0.0, "traced": 0.0}
    bookkeeping = {"main": [0.0, 0.0], "ref": [0.0, 0.0]}
    rounds, lines, errors = [], [], []
    r, start = 0, time.perf_counter()
    while r == 0 or time.perf_counter() - start < seconds:
        state = wl.save()
        t0 = time.perf_counter()
        rounds.append(run_round(wl, r))
        walls["untraced"] += time.perf_counter() - t0
        wl.load(state)
        out, tracer, wall = traced_round(wl, r)
        rounds.append(out)
        walls["traced"] += wall
        for arm, (bk, call) in out.bookkeeping.items():
            bookkeeping[arm][0] += bk
            bookkeeping[arm][1] += call
        if r == 0:
            after = wl.save()
            wl.load(state)
            replayed, replay, _ = traced_round(wl, r)
            wl.load(after)
            if replay.exact_counts() != tracer.exact_counts() or replayed.counts != out.counts:
                errors.append("exact-count self-check: replay of round 0 differs: "
                              f"{tracer.exact_counts()} / {out.counts} vs "
                              f"{replay.exact_counts()} / {replayed.counts}")
            shown = {k: v for k, v in out.counts.items() if not isinstance(v, tuple)}
            lines.append("exact counts, round 0: "
                         + json.dumps({**tracer.exact_counts(), **shown}, sort_keys=True))
            if tracer.missing:
                lines.append("not traced (names absent): " + ", ".join(tracer.missing))
        totals.absorb(tracer)
        again(time.perf_counter() - start)
        r += 1

    layer = totals.layer_metrics(r)
    spans = sum(totals.self_s.values())
    layer["trace.coverage"] = spans / walls["traced"]
    layer["trace.uncovered_ms"] = 1e3 * (walls["traced"] - spans) / r
    layer["trace.overhead_share"] = (walls["traced"] - walls["untraced"]) / walls["untraced"]
    for arm, label in (("main", "reduced"), ("ref", "full")):
        bk, call = bookkeeping[arm]
        layer[f"decode.bookkeeping_share.{label}"] = bk / call if call else 0.0
    lines.append(f"traced rounds: {r} (each also run untraced for the overhead)")
    lines.append(f"uncovered by layer spans: {layer['trace.uncovered_ms']:.3f} ms/round "
                 "(benchmark harness: input generation, calibration loops, output checks, clock hooks)")
    return rounds, layer, lines, errors


def end_to_end(wl, rounds: list, setup_s: list[float]) -> tuple[dict[str, float], list[str]]:
    """Gated metrics by JSON name, and report lines by workload name.

    Per round and arm: the latency is the median of its samples and the
    rate its work over its time, each divided by (latency) or multiplied
    by (rate) the calibration time measured next to the call. The gated
    values are the medians of these over the rounds (GLOSSARY.md, "Noise").
    """
    values = {"setup_s": median(setup_s),
              "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}
    lines = [f"setup_s = {values['setup_s']:.6f} s (median of {len(setup_s)} set-ups)",
             f"peak_rss_mb = {values['peak_rss_mb']:.1f} MB"]
    q = wl.tail_q
    for arm, prefix in (("main", ""), ("ref", "ref_")):
        lat_name, rate_name, ttft_name = wl.report_names[arm]
        unit = wl.units[arm == "ref"]
        done = [rd for rd in rounds if rd.lat_ms[arm] and rd.cal_s[arm]]
        cal_ms = [1e3 * sum(rd.cal_s[arm]) / len(rd.cal_s[arm]) for rd in done]
        lat_cal = [median(rd.lat_ms[arm]) / c for rd, c in zip(done, cal_ms)]
        rate_cal = [rd.work[arm][0] / rd.work[arm][1] * c / 1e3 for rd, c in zip(done, cal_ms)]
        values[f"{prefix}lat_cal"] = median(lat_cal)
        values[f"{prefix}rate_per_cal"] = median(rate_cal)
        lat = [x for rd in done for x in rd.lat_ms[arm]]
        ttft = [x for rd in done for x in rd.ttft_ms[arm]]
        units, secs = (sum(rd.work[arm][i] for rd in done) for i in (0, 1))
        n = len(lat)
        lines.append(f"{prefix}lat_cal = {values[prefix + 'lat_cal']:.5f} cal, "
                     f"{prefix}rate_per_cal = {values[prefix + 'rate_per_cal']:.5f} {unit}/cal "
                     f"(medians of {len(done)} rounds; calibration loop "
                     f"p50 {median(cal_ms):.4f} ms, p10 {pct(cal_ms, 10):.4f}, p90 {pct(cal_ms, 90):.4f})")
        lines.append(f"{lat_name}_p50 = {median(lat):.4f} ms (n={n})")
        for qq in sorted({95.0, q}):
            lines.append(f"{lat_name}_p{qq:g} = {pct(lat, qq):.4f} ms "
                         f"(n={n}, {n * (100.0 - qq) / 100.0:.0f} beyond)")
        if ttft:
            lines.append(f"{ttft_name}_p50 = {median(ttft):.4f} ms (n={len(ttft)})")
        lines.append(f"{rate_name} = {units / secs if secs else float('nan'):.3f} {unit}/s "
                     f"({units:.0f} in {secs:.3f} s)")
    lines.append(f"derived, not gated: {wl.ratio_name} = "
                 f"{values['rate_per_cal'] / values['ref_rate_per_cal']:.3f} "
                 f"(rate_per_cal / ref_rate_per_cal); ref_lat_cal / lat_cal = "
                 f"{values['ref_lat_cal'] / values['lat_cal']:.3f}")
    return values, lines


def run(workload: str, seed: int, seconds: float, trace: bool, sizes=None) -> tuple[dict, list[str]]:
    """Set up, warm up, measure for `seconds`; returns (result, report lines)."""
    from tracing import Patches
    from workloads import WORKLOADS, Sizes

    sizes = sizes or Sizes()
    setup_s: list[float] = []
    wl = set_up(WORKLOADS[workload], seed, sizes, setup_s)

    def again(elapsed: float) -> None:
        # spread the set-ups over the run, so they see its machine noise too
        if len(setup_s) < SETUPS and elapsed >= len(setup_s) * seconds / SETUPS:
            set_up(WORKLOADS[workload], seed, sizes, setup_s)

    hooks = Patches()
    wl.install_hooks(hooks)
    try:
        warm = run_round(wl, WARMUP_ROUND)
        if trace:
            rounds, layer, trace_lines, errors = measure_traced(wl, seconds, again)
            timed = rounds[::2]  # the untraced half
        else:
            rounds, layer, trace_lines, errors = measure(wl, seconds, again), {}, [], []
            timed = rounds
    finally:
        hooks.restore()

    attempted = sum(rd.attempted for rd in [warm, *rounds])
    failed = sum(rd.failed for rd in [warm, *rounds])
    errors = [e for rd in [warm, *rounds] for e in rd.errors] + errors
    final = wl.final_errors()
    errors += final
    failed += len(final)

    values, e2e_lines = end_to_end(wl, timed, setup_s)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer" if trace else "end_to_end"]
    source = layer if trace else values
    metrics = {m["name"]: {"value": float(source[m["name"]]), "unit": m["unit"]} for m in wanted}

    lines = ["environment: " + json.dumps(environment(workload, seed, seconds, trace, sizes))]
    lines += trace_lines + e2e_lines
    if trace:
        lines += [f"{m['name']} = {source[m['name']]:.6g} {m['unit']}" for m in wanted]
    lines.append(f"operations: attempted={attempted} failed={failed} rounds={len(rounds)}")
    lines += [f"FAILED: {err}" for err in errors[:20]]
    correct = failed == 0 and not errors
    if not all(math.isfinite(m["value"]) for m in metrics.values()):
        correct = False
        lines.append("FAILED: a metric is not finite (too few samples?)")
    return {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}, lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    import_package()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}")
    result, lines = run(args.workload, args.seed, args.seconds, bool(args.trace))
    for line in lines:
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
