"""Run the seeded pipeline in process and print one sha256 per artifact.

    PYTHONPATH=src python3 tools/seeded_pipeline.py [--out DIR] [--check FILE]

synth -> prepare -> train -> generate (greedy, then sampled) -> eval ppl
-> eval mc under anchor masks, then train, eval ppl and eval mc (with
and without the demonstration cache) under causal masks, each through
`anchorlm.cli.main` with fixed arguments, seeds and prompt. Two commits
whose outputs should be bitwise identical print the same hashes. The
commands' own stdout goes to stderr, so stdout holds only the
`<sha256>  <artifact>` lines. `--check tools/seeded_pipeline.sha256`
compares them with the committed hashes, names each artifact that
differs on stderr and exits 1 if any does.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import sys
import tempfile
from pathlib import Path

from anchorlm.cli import main as cli_main

PROMPT = "the amber lamp holds the stone . a birch sign marks"
ARTIFACTS = (
    "train/ckpt.bin",
    "train/losses.log",
    "generate/generation.txt",
    "generate_sampled/generation.txt",
    "ppl/metrics.txt",
    "mc/metrics.txt",
    "train_causal/losses.log",
    "ppl_causal/metrics.txt",
    "mc_causal/metrics.txt",
    "mc_causal_noncache/metrics.txt",
)


def commands(root: Path) -> list[list[str]]:
    synth, data = root / "synth", root / "data"
    ckpt = ["--ckpt", str(root / "train" / "ckpt.bin"), "--vocab", str(data / "vocab.txt")]
    train = ["--steps", "20", "--batch-size", "4", "--n-layers", "2", "--d-model", "32",
             "--n-heads", "4"]
    mc = ["eval", "--task", "mc", *ckpt, "--policy", "ac", "--items", str(synth / "task.jsonl"),
          "--demo-pool", str(synth / "demos.jsonl"), "--shots", "3"]
    return [
        ["synth", "--docs", "120", "--items", "12", "--seed", "3", "--out", str(synth)],
        ["prepare", "--corpus", str(synth / "corpus.txt"), "--policy", "ac",
         "--vocab-size", "256", "--context-len", "64", "--out", str(data)],
        ["train", "--data", str(data), "--mask-mode", "ansan", *train,
         "--out", str(root / "train")],
        ["generate", *ckpt, "--prompt", PROMPT, "--policy", "ac", "--reduce", "on",
         "--max-new", "24", "--out", str(root / "generate")],
        ["generate", *ckpt, "--prompt", PROMPT, "--policy", "ac", "--reduce", "on",
         "--max-new", "24", "--temperature", "1", "--sample-seed", "7",
         "--out", str(root / "generate_sampled")],
        ["eval", "--task", "ppl", *ckpt, "--policy", "ac", "--mask-mode", "ansan",
         "--text", str(synth / "corpus.txt"), "--out", str(root / "ppl")],
        [*mc, "--mask-mode", "ansan", "--reuse-demo-cache", "--out", str(root / "mc")],
        ["train", "--data", str(data), "--mask-mode", "causal", *train,
         "--out", str(root / "train_causal")],
        ["eval", "--task", "ppl", *ckpt, "--policy", "ac", "--mask-mode", "causal",
         "--text", str(synth / "corpus.txt"), "--out", str(root / "ppl_causal")],
        [*mc, "--mask-mode", "causal", "--reuse-demo-cache", "--out", str(root / "mc_causal")],
        [*mc, "--mask-mode", "causal", "--out", str(root / "mc_causal_noncache")],
    ]


def run_commands(argvs: list[list[str]]) -> None:
    """Run each command through `anchorlm.cli.main` with its stdout sent to
    stderr; exit naming the first command that fails."""
    for argv in argvs:
        with contextlib.redirect_stdout(sys.stderr):
            code = cli_main(argv)
        if code != 0:
            raise SystemExit(f"`anchorlm {' '.join(argv[:3])}` exited {code}")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", help="run directory to keep (default: a temporary one)")
    parser.add_argument("--check", metavar="FILE", help="`<sha256>  <artifact>` lines to match")
    args = parser.parse_args()
    with contextlib.ExitStack() as stack:
        root = Path(args.out or stack.enter_context(tempfile.TemporaryDirectory()))
        run_commands(commands(root))
        digests = {name: hashlib.sha256((root / name).read_bytes()).hexdigest()
                   for name in ARTIFACTS}
    for name, digest in digests.items():
        print(f"{digest}  {name}")
    if args.check:
        lines = Path(args.check).read_text(encoding="utf-8").splitlines()
        expected = {name: digest for digest, name in (line.split() for line in lines if line)}
        differ = [name for name in ARTIFACTS if expected.get(name) != digests[name]]
        for name in differ:
            print(f"differs from {args.check}: {name}", file=sys.stderr)
        sys.exit(1 if differ else 0)


if __name__ == "__main__":
    main()
