"""Command-line entry point: prepare -> train -> generate -> eval.

Every command writes its outputs plus one manifest (resolved config,
seeds, input digests, timestamps) into a run directory. Report bodies
are byte-stable across identically-seeded runs; anything time-dependent
lives in the manifest or in a separate timing file.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import sys
from dataclasses import fields as dc_fields
from datetime import datetime, timezone
from pathlib import Path

from . import __version__
from .corpus import (
    AnchorPolicy,
    Vocab,
    annotate,
    build_vocab,
    load_blocks,
    pack_training_blocks,
    save_blocks,
)
from .errors import (
    AnchorLMError,
    ConfigError,
    ContractError,
    InputError,
    NumericError,
    UndefinedMetricError,
    UsageError,
)
from .evaluate import (
    MetricsReport,
    ablation_anchor_positions,
    load_mc_items,
    perplexity,
    run_mc_task,
    save_mc_items,
)
from .infer import GenerationConfig, generate
from .masks import MASK_MODES
from .model import ModelConfig, load_checkpoint, save_checkpoint
from .synth import MAX_CHOICES, make_corpus, make_task
from .train import TrainConfig, train

EXIT_USAGE = 2
EXIT_INPUT = 3
EXIT_CONTRACT = 4
EXIT_NUMERIC = 5

# error class -> exit code, most specific first: the first match wins
EXIT_CODES: dict[type[AnchorLMError], int] = {
    UsageError: EXIT_USAGE,  # includes ConfigError
    InputError: EXIT_INPUT,
    ContractError: EXIT_CONTRACT,
    NumericError: EXIT_NUMERIC,
    AnchorLMError: EXIT_CONTRACT,
}

DATA_DIR_ENV = "ANCHORLM_DATA_DIR"


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _utc_now() -> str:
    return datetime.now(timezone.utc).isoformat(timespec="seconds")


class Manifest:
    """One manifest per run: command, resolved config, seeds, digests."""

    def __init__(self, command: str):
        self.command = command
        self.start = _utc_now()
        self.config: dict[str, object] = {}
        self.inputs: dict[str, str] = {}

    def add_input(self, path: str | Path) -> None:
        p = Path(path)
        try:
            self.inputs[str(p)] = _sha256(p)
        except OSError as exc:
            raise InputError(f"cannot read input file {p}: {exc}") from exc

    def write(self, out_dir: Path) -> None:
        lines = [
            f"command = {self.command}",
            f"version = {__version__}",
            f"start = {self.start}",
            f"end = {_utc_now()}",
        ]
        for key in sorted(self.config):
            lines.append(f"config.{key} = {self.config[key]}")
        for path in sorted(self.inputs):
            lines.append(f"input.{path} = {self.inputs[path]}")
        (out_dir / "manifest.txt").write_text("\n".join(lines) + "\n", encoding="utf-8")


def _resolve_out(arg_out: str | None, command: str, digest_src: str) -> Path:
    if arg_out:
        out = Path(arg_out)
    else:
        base = Path(os.environ.get(DATA_DIR_ENV, "anchorlm-runs"))
        stamp = datetime.now(timezone.utc).strftime("%Y%m%dT%H%M%S")
        short = hashlib.sha256(digest_src.encode()).hexdigest()[:8]
        out = base / f"{command}-{stamp}-{short}"
    out.mkdir(parents=True, exist_ok=True)
    return out


def _policy_from_args(args) -> AnchorPolicy:
    return AnchorPolicy.parse(args.policy, seed=getattr(args, "policy_seed", 0))


def _int_in_range(low: int, high: int | None = None):
    """argparse type: an integer >= low, and <= high when given (argparse
    exits 2 otherwise)."""
    wanted = f">= {low}" if high is None else f"from {low} to {high}"

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            value = low - 1
        if value < low or (high is not None and value > high):
            raise argparse.ArgumentTypeError(f"expected an integer {wanted}, got {text!r}")
        return value

    return parse


def _positive_float(text: str) -> float:
    """argparse type: a number > 0 (argparse exits 2 otherwise)."""
    try:
        value = float(text)
    except ValueError:
        value = 0.0
    if not value > 0:
        raise argparse.ArgumentTypeError(f"expected a number > 0, got {text!r}")
    return value


# -- prepare -------------------------------------------------------------------


def cmd_prepare(args) -> int:
    policy = _policy_from_args(args)
    out = _resolve_out(args.out, "prepare", ",".join(args.corpus))
    manifest = Manifest("prepare")
    for path in args.corpus:
        manifest.add_input(path)
    manifest.config.update(
        policy=policy.describe(), vocab_size=args.vocab_size,
        context_len=args.context_len, policy_seed=args.policy_seed,
    )

    vocab = build_vocab(args.corpus, policy, args.vocab_size)
    vocab.save(out / "vocab.txt")

    docs: list = []
    for path in args.corpus:
        for line in Path(path).read_text(encoding="utf-8").splitlines():
            if line.strip():
                docs.append(annotate(line, vocab, policy))
    blocks = [b for b in pack_training_blocks(docs, args.context_len) if len(b) >= 2]
    if not blocks:
        raise InputError("corpus produced no usable training blocks")
    save_blocks(out / "blocks.jsonl", blocks)

    (out / "data.cfg").write_text(
        f"policy = {args.policy}\npolicy_seed = {args.policy_seed}\n"
        f"context_len = {args.context_len}\nvocab_size = {len(vocab)}\n",
        encoding="utf-8",
    )
    manifest.write(out)
    print(f"prepared {len(blocks)} blocks, vocab size {len(vocab)} -> {out}")
    return 0


def _read_data_cfg(data_dir: Path) -> dict[str, str]:
    cfg_path = data_dir / "data.cfg"
    if not cfg_path.exists():
        raise InputError(f"{data_dir} is not a prepared data directory (no data.cfg)")
    try:
        text = cfg_path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(f"cannot read {cfg_path}: {exc}") from exc
    out = {}
    for line in text.splitlines():
        if not line.strip():
            continue
        if "=" not in line:
            raise InputError(f"bad line in {cfg_path}: {line!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key in out:
            raise InputError(f"{cfg_path} gives {key} twice")
        out[key] = value
    return out


# -- train ---------------------------------------------------------------------


def cmd_train(args) -> int:
    data_dir = Path(args.data)
    data_cfg = _read_data_cfg(data_dir)
    try:
        context_len = int(data_cfg["context_len"])
    except (KeyError, ValueError) as exc:
        raise InputError(f"{data_dir / 'data.cfg'} needs an integer context_len: {exc!r}") from exc
    if context_len < 2:
        raise InputError(f"{data_dir / 'data.cfg'} needs context_len >= 2, got {context_len}")
    vocab = Vocab.load(data_dir / "vocab.txt")
    blocks = load_blocks(data_dir / "blocks.jsonl")
    if any(max(b.ids) >= len(vocab) for b in blocks):
        raise InputError(f"blocks.jsonl holds token ids >= the vocab size {len(vocab)}")
    longest = max(len(b) for b in blocks)
    if longest > context_len:
        raise InputError(
            f"blocks.jsonl holds a {longest}-token block, longer than the "
            f"context_len {context_len} in {data_dir / 'data.cfg'}"
        )

    # precedence: flags > config file > defaults; a flag is a TrainConfig
    # field the train parser defines
    overrides = {
        f.name: getattr(args, f.name)
        for f in dc_fields(TrainConfig)
        if getattr(args, f.name, None) is not None
    }
    overrides.setdefault("policy", data_cfg.get("policy", "ep"))
    # a steps/epochs flag replaces (not joins) the config file's budget
    if "steps" in overrides and "epochs" not in overrides:
        overrides["epochs"] = None
    elif "epochs" in overrides and "steps" not in overrides:
        overrides["steps"] = None
    if args.config:
        cfg = TrainConfig.from_file(args.config, **overrides)
    else:
        if overrides.get("steps") is None and overrides.get("epochs") is None:
            overrides["steps"] = 100
        cfg = TrainConfig(**overrides)

    try:
        model_config = ModelConfig(
            vocab_size=len(vocab),
            n_layers=args.n_layers,
            n_heads=args.n_heads,
            d_model=args.d_model,
            d_ff=args.d_ff if args.d_ff else 4 * args.d_model,
            context_len=context_len,
        )
    except ContractError as exc:  # the shape came from flags
        raise UsageError(f"bad model shape flags: {exc}") from exc

    out = _resolve_out(args.out, "train", str(data_dir))
    manifest = Manifest("train")
    manifest.add_input(data_dir / "vocab.txt")
    manifest.add_input(data_dir / "blocks.jsonl")
    for f in dc_fields(TrainConfig):
        manifest.config[f"train.{f.name}"] = getattr(cfg, f.name)
    for f in dc_fields(ModelConfig):
        manifest.config[f"model.{f.name}"] = getattr(model_config, f.name)

    vocab_sha = _sha256(data_dir / "vocab.txt")
    initial = None
    opt_state = None
    start_step = 0
    if args.resume:
        initial, start_step, ckpt_vocab_sha, opt_state = load_checkpoint(args.resume)
        if ckpt_vocab_sha != vocab_sha:
            raise ConfigError("checkpoint was trained with a different vocab")
        differ = [
            f"{f.name} {getattr(initial.config, f.name)} (flags and data.cfg: "
            f"{getattr(model_config, f.name)})"
            for f in dc_fields(ModelConfig)
            if getattr(initial.config, f.name) != getattr(model_config, f.name)
        ]
        if differ:
            raise ConfigError(f"checkpoint {args.resume} has another model: {', '.join(differ)}")
        manifest.add_input(args.resume)

    report = train(
        cfg,
        model_config,
        blocks,
        initial=initial,
        opt_state=opt_state,
        start_step=start_step,
        anchor_id=vocab.anchor_id,
        checkpoint_dir=out,
        vocab_sha256=vocab_sha,
    )
    save_checkpoint(
        out / "ckpt.bin",
        report.final_weights,
        start_step + len(report.records),
        vocab_sha,
        report.opt_state,
    )
    (out / "losses.log").write_text("\n".join(report.to_lines()) + "\n", encoding="utf-8")
    (out / "timings.log").write_text(
        "\n".join(f"{r.step} {r.wall_ms:.3f}" for r in report.records) + "\n",
        encoding="utf-8",
    )
    cfg.to_file(out / "train.cfg")
    manifest.config["tokens_seen"] = report.tokens_seen
    manifest.write(out)
    print(
        f"trained {len(report.records)} steps "
        f"(loss {report.records[0].loss:.4f} -> {report.records[-1].loss:.4f}) -> {out}"
    )
    return 0


# -- generate --------------------------------------------------------------------


def cmd_generate(args) -> int:
    vocab = Vocab.load(args.vocab)
    manifest = Manifest("generate")
    weights, step = _load_weights_checked(args.ckpt, args.vocab, manifest)
    policy = _policy_from_args(args)
    prefix = annotate(args.prompt, vocab, policy)
    if len(prefix) == 0:
        raise InputError("prompt contains no tokens")
    if len(prefix) > weights.config.context_len:
        raise UsageError(
            f"prompt length {len(prefix)} exceeds the checkpoint's "
            f"context_len {weights.config.context_len}"
        )

    cfg = GenerationConfig(
        max_new_tokens=args.max_new,
        anchor_token_id=vocab.anchor_token_id(policy),
        eos_id=vocab.eos_id,
        temperature=args.temperature,
        sample_seed=args.sample_seed,
        reduction_enabled=args.reduce == "on",
    )
    result = generate(weights, prefix, cfg)

    out = _resolve_out(args.out, "generate", args.prompt)
    manifest.add_input(args.vocab)
    manifest.config.update(
        prompt=args.prompt, policy=policy.describe(), reduce=args.reduce,
        max_new=args.max_new, strip_anchors=args.strip_anchors,
        temperature=args.temperature, sample_seed=args.sample_seed,
        checkpoint_step=step, prefix_seconds=f"{result.prefix_seconds:.4f}",
        decode_seconds=f"{result.decode_seconds:.4f}",
    )

    text = vocab.decode(result.ids, strip_anchors=args.strip_anchors)
    stats = result.stats
    body = [
        f"text = {text}",
        "ids = " + " ".join(str(i) for i in result.ids),
        "live_sizes = " + " ".join(str(n) for n in result.live_sizes),
        f"appends = {stats.total_appends}",
        f"discards = {stats.total_discards}",
        f"peak_cache = {stats.peak_live_count}",
    ]
    (out / "generation.txt").write_text("\n".join(body) + "\n", encoding="utf-8")
    manifest.write(out)
    print(text)
    return 0


# -- eval ------------------------------------------------------------------------


def cmd_eval(args) -> int:
    vocab = Vocab.load(args.vocab)
    policy = _policy_from_args(args)
    out = _resolve_out(args.out, "eval", args.task)
    manifest = Manifest("eval")
    manifest.add_input(args.vocab)
    manifest.config.update(task=args.task, policy=policy.describe(), seed=args.seed)

    if args.task in ("ppl", "mc") and not args.ckpt:
        raise UsageError(f"--task {args.task} requires --ckpt")

    if args.task == "ppl":
        weights, _ = _load_weights_checked(args.ckpt, args.vocab, manifest)
        if not args.text:
            raise UsageError("--task ppl requires --text")
        manifest.add_input(args.text)
        try:
            text = Path(args.text).read_text(encoding="utf-8")
        except (OSError, UnicodeDecodeError) as exc:
            raise InputError(f"cannot read text file {args.text}: {exc}") from exc
        seg = annotate(text, vocab, policy)
        ecl = args.eval_context_len or weights.config.context_len
        if ecl > weights.config.context_len:
            raise UsageError(
                f"--eval-context-len {ecl} exceeds the checkpoint's "
                f"context_len {weights.config.context_len}"
            )
        try:
            ppl = perplexity(
                weights, seg, args.mask_mode, ecl,
                inserted_anchor_id=vocab.anchor_id if policy.inserts_anchor_token else None,
            )
        except UndefinedMetricError as exc:
            raise InputError(f"text file {args.text} has no token to score: {exc}") from exc
        report = MetricsReport(
            task="ppl", policy=policy.describe(), mask_mode=args.mask_mode,
            shots=0, perplexity=ppl,
        )
        (out / "metrics.txt").write_text(report.to_text(), encoding="utf-8")
        print(f"perplexity = {ppl!r}")

    elif args.task == "mc":
        weights, _ = _load_weights_checked(args.ckpt, args.vocab, manifest)
        if not args.items:
            raise UsageError("--task mc requires --items")
        manifest.add_input(args.items)
        items = load_mc_items(args.items)
        demo_pool = _load_demo_pool(args)
        if args.demo_pool:
            manifest.add_input(args.demo_pool)
        try:
            report = run_mc_task(
                weights, vocab, items, args.shots, policy,
                use_ansan=args.mask_mode == "ansan", reuse_demo_cache=args.reuse_demo_cache,
                demo_pool=demo_pool, seed=args.seed,
                measure_timing=args.timing, accel_baseline=args.baseline,
            )
        except UndefinedMetricError as exc:
            raise InputError(f"items file {args.items} has no item to time: {exc}") from exc
        (out / "metrics.txt").write_text(report.to_text(), encoding="utf-8")
        print(f"accuracy = {report.accuracy!r}  cache_reduction = {report.cache_reduction!r}")

    elif args.task == "ablation":
        if not args.arm:
            raise UsageError("--task ablation requires at least one --arm policy@ckpt")
        if not args.items:
            raise UsageError("--task ablation requires --items")
        manifest.add_input(args.items)
        items = load_mc_items(args.items)
        demo_pool = _load_demo_pool(args)
        arms = {}
        for arm_text in args.arm:
            if "@" not in arm_text:
                raise UsageError(f"--arm must look like policy@ckpt, got {arm_text!r}")
            policy_name, ckpt_path = arm_text.split("@", 1)
            if policy_name in arms:
                raise UsageError(f"--arm policy {policy_name!r} is given twice")
            arm_policy = AnchorPolicy.parse(policy_name, seed=args.policy_seed)
            arm_weights, _ = _load_weights_checked(ckpt_path, args.vocab, manifest)
            arms[policy_name] = (arm_weights, arm_policy)
        report = ablation_anchor_positions(
            arms, vocab, items, args.shots, demo_pool=demo_pool, seed=args.seed
        )
        (out / "ablation.txt").write_text(report.to_text(), encoding="utf-8")
        print(report.to_text(), end="")

    else:
        raise UsageError(f"unknown eval task: {args.task}")

    manifest.write(out)
    return 0


def _load_demo_pool(args):
    """The --demo-pool items (None without the flag); --shots N needs N."""
    demo_pool = load_mc_items(args.demo_pool) if args.demo_pool else None
    if args.shots > len(demo_pool or ()):
        raise UsageError(f"--shots {args.shots} needs a --demo-pool of {args.shots}+ items")
    return demo_pool


def _load_weights_checked(ckpt_path: str, vocab_path: str, manifest: Manifest):
    """The checkpoint's weights and step, once its vocab digest matches."""
    weights, step, ckpt_vocab_sha, _ = load_checkpoint(ckpt_path)
    if _sha256(Path(vocab_path)) != ckpt_vocab_sha:
        raise ConfigError("vocab file does not match the checkpoint's vocab digest")
    manifest.add_input(ckpt_path)
    return weights, step


# -- synth -----------------------------------------------------------------------


def cmd_synth(args) -> int:
    out = _resolve_out(args.out, "synth", str(args.seed))
    docs = make_corpus(args.docs, seed=args.seed)
    (out / "corpus.txt").write_text("\n".join(docs) + "\n", encoding="utf-8")
    items, demos = make_task(args.items, n_choices=args.choices, seed=args.seed)
    save_mc_items(out / "task.jsonl", items)
    save_mc_items(out / "demos.jsonl", demos)
    manifest = Manifest("synth")
    manifest.config.update(docs=args.docs, items=args.items, choices=args.choices, seed=args.seed)
    manifest.write(out)
    print(f"wrote synthetic corpus ({args.docs} docs) and task ({args.items} items) -> {out}")
    return 0


# -- parser ----------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="anchorlm",
        description="anchor-masked transformer: data prep, training, generation, evaluation",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("prepare", help="tokenize, annotate and pack a corpus")
    p.add_argument("--corpus", nargs="+", required=True)
    p.add_argument("--policy", required=True)
    p.add_argument("--policy-seed", type=_int_in_range(0), default=0)
    p.add_argument("--vocab-size", type=_int_in_range(1), default=4096)
    p.add_argument("--context-len", type=_int_in_range(2), default=256)
    p.add_argument("--out")
    p.set_defaults(fn=cmd_prepare)

    p = sub.add_parser("train", help="train on a prepared data directory")
    p.add_argument("--data", required=True)
    p.add_argument("--config", help="TrainConfig file (key = value)")
    p.add_argument("--mask-mode", choices=MASK_MODES, default=None)
    p.add_argument("--batch-size", type=int, default=None)
    p.add_argument("--steps", type=int, default=None)
    p.add_argument("--epochs", type=int, default=None)
    p.add_argument("--learning-rate", type=float, default=None)
    p.add_argument("--warmup-steps", type=_int_in_range(0), default=None)
    p.add_argument("--weight-decay", type=float, default=None)
    p.add_argument("--grad-clip", type=float, default=None)
    p.add_argument("--seed", type=_int_in_range(0), default=None)
    p.add_argument("--checkpoint-every", type=_int_in_range(0), default=None)
    p.add_argument("--n-layers", type=_int_in_range(1), default=2)
    p.add_argument("--n-heads", type=_int_in_range(1), default=4)
    p.add_argument("--d-model", type=_int_in_range(1), default=64)
    p.add_argument("--d-ff", type=int, default=0)
    p.add_argument("--resume", help="checkpoint to continue from")
    p.add_argument("--out")
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("generate", help="decode from a checkpoint")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--vocab", required=True)
    p.add_argument("--prompt", required=True)
    p.add_argument("--policy", required=True)
    p.add_argument("--policy-seed", type=_int_in_range(0), default=0)
    p.add_argument("--reduce", choices=["on", "off"], default="on")
    p.add_argument("--max-new", type=_int_in_range(1), default=32)
    p.add_argument("--strip-anchors", action="store_true")
    p.add_argument("--temperature", type=_positive_float, default=None)
    p.add_argument("--sample-seed", type=_int_in_range(0), default=0)
    p.add_argument("--out")
    p.set_defaults(fn=cmd_generate)

    p = sub.add_parser("eval", help="perplexity / multiple-choice / ablation")
    p.add_argument("--task", choices=["ppl", "mc", "ablation"], required=True)
    p.add_argument("--ckpt")
    p.add_argument("--vocab", required=True)
    p.add_argument("--policy", required=True)
    p.add_argument("--policy-seed", type=_int_in_range(0), default=0)
    p.add_argument("--text", help="plain-text file for --task ppl")
    p.add_argument("--mask-mode", choices=MASK_MODES, default="causal",
                   help="attention masks for --task ppl and mc")
    p.add_argument("--eval-context-len", type=_int_in_range(2), default=None,
                   help="window length for --task ppl (default: the checkpoint's context_len)")
    p.add_argument("--items", help="task file for --task mc/ablation")
    p.add_argument("--demo-pool", help="demonstration pool task file")
    p.add_argument("--shots", type=_int_in_range(0), default=0)
    p.add_argument("--reuse-demo-cache", action="store_true")
    p.add_argument("--timing", action="store_true")
    p.add_argument("--baseline", choices=["noncache", "fullcache"], default="noncache")
    p.add_argument("--seed", type=_int_in_range(0), default=0)
    p.add_argument("--arm", action="append",
                   help="ablation arm as policy@ckpt (repeatable)")
    p.add_argument("--out")
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser("synth", help="write a synthetic corpus and task")
    p.add_argument("--docs", type=_int_in_range(1), default=200)
    p.add_argument("--items", type=_int_in_range(1), default=50)
    p.add_argument("--choices", type=_int_in_range(2, MAX_CHOICES), default=3)
    p.add_argument("--seed", type=_int_in_range(0), default=0)
    p.add_argument("--out")
    p.set_defaults(fn=cmd_synth)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except AnchorLMError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for cls, code in EXIT_CODES.items() if isinstance(exc, cls))


if __name__ == "__main__":
    sys.exit(main())
