"""List the code in src/anchorlm that the program's entry points never run.

    PYTHONPATH=src python3 tools/coverage_audit.py

It runs what a user runs, not the tests, so code that only tests call
shows up as never run:

  * the seeded pipeline's commands (tools/seeded_pipeline.py);
  * `eval --task mc --timing` with each `--baseline`, `eval --task
    ablation` and `generate --reduce off`, on the pipeline's checkpoint;
  * each benchmark workload at its TINY sizes, untraced and traced
    (perfbench/run.py).

A line tracer (`sys.settrace`, standard library only) limited to
src/anchorlm records each function entered and each line run. Per file
it prints every function never entered, with its first line, and a count
of the other lines never run, then the run time. The commands' own
output goes to stderr. It gates on `KEPT`, the functions kept although
no entry point enters them, each with its reason: it exits 1 naming
every function never entered that `KEPT` does not list, and every `KEPT`
entry that is now entered or gone.
"""

from __future__ import annotations

import sys
import tempfile
import time
from pathlib import Path
from types import CodeType

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "anchorlm"

TESTS_ONLY = "only tests call it; inlining it there would move code, not delete it"
# module.qualified name -> why it stays although no entry point enters it
KEPT = {
    "autodiff.attention_probs": "forward(collect_attn=True), for ROADMAP item 4's diagnostics",
    "cache.AnchorKVCache.live_positions": "the tests read cache positions through it",
    "cache.AnchorKVCache.reduction_metric": "acceptance criterion 5 reads it",
    "cache.AnchorKVCache.entries": "perfbench/test_smoke.py patches it to inject a lossy cache",
    "corpus.Vocab.endpoint_id": "the ep policy, which the audited inputs do not use",
    "corpus.SegmentedText.strip_inserted": TESTS_ONLY,
    "corpus._SegBuilder.end_sequence": "unanchored sentence ends, which the audited inputs lack",
    "model.ModelWeights.n_params": TESTS_ONLY,
    "train.TrainConfig.from_file": "train --config, which the audited commands do not pass",
    "train._coerce": "train --config, which the audited commands do not pass",
    "train.TrainReport.losses": TESTS_ONLY,
    "train.schedule_digest": "compare_from_scratch's shared-schedule check (ROADMAP item 3)",
    "train.weights_digest": "compare_from_scratch's shared-init check (ROADMAP item 3)",
    "train.FromScratchReport.to_text": "compare_from_scratch's report (ROADMAP item 3)",
    "train.compare_from_scratch": "the from-scratch comparison, no command yet (ROADMAP item 3)",
}


def extra_commands(root: Path) -> list[list[str]]:
    """The entry points the seeded pipeline does not reach, on its outputs."""
    synth, data, ckpt = root / "synth", root / "data", root / "train" / "ckpt.bin"
    vocab = ["--vocab", str(data / "vocab.txt")]
    task = ["--items", str(synth / "task.jsonl"), "--demo-pool", str(synth / "demos.jsonl"),
            "--shots", "3"]
    mc = ["eval", "--task", "mc", "--ckpt", str(ckpt), *vocab, "--policy", "ac", *task,
          "--reuse-demo-cache", "--timing"]
    return [
        [*mc, "--baseline", "noncache", "--out", str(root / "mc_noncache")],
        [*mc, "--baseline", "fullcache", "--out", str(root / "mc_fullcache")],
        ["eval", "--task", "ablation", *vocab, "--policy", "ac", *task,
         "--arm", f"ac@{ckpt}", "--arm", f"every-n=10@{ckpt}", "--arm", f"random-p=0.1@{ckpt}",
         "--out", str(root / "ablation")],
        ["generate", "--ckpt", str(ckpt), *vocab, "--prompt", "the amber lamp holds the stone .",
         "--policy", "ac", "--reduce", "off", "--max-new", "12", "--out", str(root / "gen_off")],
    ]


def run_entry_points() -> None:
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tools"), str(ROOT / "perfbench")]
    import run as bench
    import seeded_pipeline
    from workloads import TINY, WORKLOADS

    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        seeded_pipeline.run_commands(seeded_pipeline.commands(root) + extra_commands(root))
    for name in WORKLOADS:
        for trace in (False, True):
            result, lines = bench.run(name, seed=3, seconds=0.1, trace=trace, sizes=TINY)
            if not result["correct"]:
                raise SystemExit(f"workload {name} (trace={trace}) failed: {lines}")


def lines_of(code: CodeType, nested: bool = False) -> set[int]:
    """The lines code's instructions map to, and its nested code's too."""
    lines = {line for _, _, line in code.co_lines() if line}  # a module starts at line 0
    if nested:
        for const in code.co_consts:
            if isinstance(const, CodeType):
                lines |= lines_of(const, True)
    return lines


def report(
    entered: set[tuple[str, str, int]], ran: set[tuple[str, int]]
) -> tuple[list[str], set[str]]:
    """The report lines, and the never-entered functions as
    module.qualified names. entered holds (file, qualified name, first
    line) per code object that ran, which matches it to the one compiled
    here."""
    out = []
    never_names: set[str] = set()
    for path in sorted(PACKAGE.glob("*.py")):
        filename = str(path)
        never: list[CodeType] = []
        missed: set[int] = set()
        todo = [compile(path.read_text(encoding="utf-8"), filename, "exec")]
        while todo:
            code = todo.pop()
            # the def line runs as the call, with no line event of its own
            missed |= lines_of(code) - {code.co_firstlineno}
            for const in code.co_consts:
                if not isinstance(const, CodeType):
                    continue
                if (filename, const.co_qualname, const.co_firstlineno) in entered:
                    todo.append(const)
                elif const.co_name.startswith("<"):  # a lambda or comprehension
                    missed |= lines_of(const, nested=True)
                else:
                    never.append(const)
        missed -= {line for f, line in ran if f == filename}
        for code in never:
            missed -= lines_of(code, nested=True)
        out.append(f"{path.relative_to(ROOT)}: {len(never)} functions never entered, "
                   f"{len(missed)} other lines never run")
        never.sort(key=lambda c: c.co_firstlineno)
        out += [f"  {c.co_qualname} (line {c.co_firstlineno})" for c in never]
        never_names |= {f"{path.stem}.{c.co_qualname}" for c in never}
    return out, never_names


def gate(never: set[str]) -> list[str]:
    """One line per function never entered that KEPT does not list, and
    per KEPT entry that is now entered or gone."""
    missing, stale = sorted(never - KEPT.keys()), sorted(KEPT.keys() - never)
    return [f"never entered and not in KEPT: {name}" for name in missing] + [
        f"in KEPT but entered or gone: {name}" for name in stale
    ]


def main() -> None:
    entered: set[tuple[str, str, int]] = set()
    ran: set[tuple[str, int]] = set()
    prefix = str(PACKAGE) + "/"

    def local(frame, event, arg):
        if event == "line":
            ran.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    def on_call(frame, event, arg):
        code = frame.f_code
        if not code.co_filename.startswith(prefix):
            return None
        entered.add((code.co_filename, code.co_qualname, code.co_firstlineno))
        return local

    started = time.perf_counter()
    sys.settrace(on_call)  # before the package is imported, so module bodies count
    try:
        run_entry_points()
    finally:
        sys.settrace(None)
    lines, never = report(entered, ran)
    for line in lines:
        print(line)
    print(f"run time: {time.perf_counter() - started:.1f} s")
    problems = gate(never)
    for line in problems:
        print(line)
    if problems:
        raise SystemExit(1)


if __name__ == "__main__":
    main()
