"""Next-token training under causal or anchor masks.

Each block's mask is `masks.mask_rows` over the block's own flags, or,
under causal masks, over flags with no anchor (`masks.no_anchor`).

Decoupled-weight-decay Adam with linear warmup then a constant rate,
gradient-norm clipping, and a stateless batch schedule (a fresh seeded
permutation per epoch) so that a resumed run reproduces the loss
sequence of an uninterrupted one.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass, field, fields, replace
from pathlib import Path

import numpy as np

from .corpus import SegmentedText
from .errors import ConfigError, ContractError, InputError, NumericError
from .masks import MASK_MODES, mask_rows, no_anchor, segment_flags
from .model import (
    MOMENTS, ModelConfig, ModelWeights, init_weights, loss_and_grads, save_checkpoint,
)


@dataclass(frozen=True)
class TrainConfig:
    mask_mode: str = "ansan"
    policy: str = "ep"  # provenance echo; annotation happens at prepare time
    batch_size: int = 16
    steps: int | None = None
    epochs: int | None = None
    learning_rate: float = 3e-4
    warmup_steps: int = 20
    adam_beta1: float = 0.9
    adam_beta2: float = 0.95
    adam_eps: float = 1e-8
    weight_decay: float = 0.1
    grad_clip: float = 1.0
    seed: int = 0
    # ckpt-<step>.bin every this many steps (0: none); the final weights go
    # to ckpt.bin, so a last step off this cadence has no ckpt-<step>.bin
    checkpoint_every: int = 0

    def __post_init__(self) -> None:
        if self.mask_mode not in MASK_MODES:
            raise ConfigError(f"mask_mode must be one of {MASK_MODES}")
        # 0 weight decay is none, and 0 grad_clip no clipping; NaN fails every compare
        for name in ("learning_rate", "weight_decay", "grad_clip"):
            value = getattr(self, name)
            if not 0 <= value < np.inf:
                raise ConfigError(f"{name} must be finite and >= 0, got {value}")
        if not 0 < self.adam_eps < np.inf:
            raise ConfigError(f"adam_eps must be finite and > 0, got {self.adam_eps}")
        if not (0 < self.adam_beta1 < 1 and 0 < self.adam_beta2 < 1):
            raise ConfigError("adam betas must lie in (0, 1)")
        if (self.steps is None) == (self.epochs is None):
            raise ConfigError("exactly one of steps / epochs must be set")
        for name in ("steps", "epochs"):
            value = getattr(self, name)
            if value is not None and value < 1:
                raise ConfigError(f"{name} must be >= 1, got {value}")
        if self.batch_size < 1:
            raise ConfigError("batch_size must be >= 1")
        for name in ("warmup_steps", "seed", "checkpoint_every"):
            if getattr(self, name) < 0:
                raise ConfigError(f"{name} must be >= 0, got {getattr(self, name)}")

    def to_file(self, path: str | Path) -> None:
        lines = [f"{f.name} = {getattr(self, f.name)}" for f in fields(self)]
        Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")

    @classmethod
    def from_file(cls, path: str | Path, **overrides) -> "TrainConfig":
        try:
            content = Path(path).read_text(encoding="utf-8")
        except (OSError, UnicodeDecodeError) as exc:
            raise InputError(f"cannot read train config {path}: {exc}") from exc
        values: dict = {}
        for raw in content.splitlines():
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"bad config line in {path}: {raw!r}")
            key, text = (part.strip() for part in line.split("=", 1))
            if key in values:
                raise ConfigError(f"train config key {key} is given twice in {path}")
            values[key] = text
        known = {f.name: f for f in fields(cls)}
        parsed: dict = {}
        for key, text in values.items():
            if key not in known:
                raise ConfigError(f"unknown train config key: {key}")
            try:
                parsed[key] = _coerce(text, known[key].type)
            except ValueError as exc:
                raise ConfigError(f"bad value for train config key {key}: {text!r}") from exc
        parsed.update(overrides)
        return cls(**parsed)


def _coerce(text: str, annotation: str):
    if text.lower() in ("none", ""):
        if "None" not in annotation:  # only steps and epochs may be unset
            raise ValueError(f"{text!r} is not a value")
        return None
    if "int" in annotation:
        return int(text)
    if "float" in annotation:
        return float(text)
    return text


@dataclass
class StepRecord:
    step: int
    loss: float
    lr: float
    wall_ms: float


@dataclass
class TrainReport:
    header: dict[str, str]
    records: list[StepRecord] = field(default_factory=list)
    tokens_seen: int = 0
    final_weights: ModelWeights | None = field(repr=False, default=None)
    opt_state: dict[str, np.ndarray] | None = field(repr=False, default=None)

    def losses(self) -> list[float]:
        return [r.loss for r in self.records]

    def to_lines(self) -> list[str]:
        """The byte-stable loss log; the wall times are kept apart."""
        lines = [f"# {k} = {v}" for k, v in self.header.items()]
        lines.append("# step loss lr")
        lines += [f"{r.step} {r.loss!r} {r.lr!r}" for r in self.records]
        return lines


class AdamW:
    """Adam with decoupled weight decay over a named parameter set."""

    def __init__(self, params: dict[str, np.ndarray], cfg: TrainConfig):
        self.cfg = cfg
        self.m = {name: np.zeros_like(w) for name, w in params.items()}
        self.v = {name: np.zeros_like(w) for name, w in params.items()}

    def lr_at(self, step: int) -> float:
        base = self.cfg.learning_rate
        if self.cfg.warmup_steps > 0 and step <= self.cfg.warmup_steps:
            return base * step / self.cfg.warmup_steps
        return base

    def step(self, params: dict[str, np.ndarray], grads: dict[str, np.ndarray], step: int) -> None:
        """Update params in place; step is 1-based and drives both the
        warmup schedule and bias correction."""
        cfg = self.cfg
        lr = self.lr_at(step)
        b1, b2 = cfg.adam_beta1, cfg.adam_beta2
        for name, w in params.items():
            g = grads[name]
            m, v = self.m[name], self.v[name]
            m *= b1
            m += (1 - b1) * g
            v *= b2
            v += (1 - b2) * g * g
            m_hat = m / (1 - b1**step)
            v_hat = v / (1 - b2**step)
            w -= lr * (m_hat / (np.sqrt(v_hat) + cfg.adam_eps) + cfg.weight_decay * w)

    def state_arrays(self) -> dict[str, np.ndarray]:
        return {prefix + name: a for prefix, moments in zip(MOMENTS, (self.m, self.v))
                for name, a in moments.items()}

    def load_state_arrays(self, state: dict[str, np.ndarray]) -> None:
        for prefix, moments in zip(MOMENTS, (self.m, self.v)):
            for name in moments:
                moments[name] = state[prefix + name].copy()


def clip_global_norm(grads: dict[str, np.ndarray], max_norm: float) -> float:
    total = float(np.sqrt(sum(float((g * g).sum()) for g in grads.values())))
    if max_norm > 0 and total > max_norm:
        scale = max_norm / total
        for g in grads.values():
            g *= scale
    return total


def steps_per_epoch(n_blocks: int, batch_size: int) -> int:
    return max(1, n_blocks // batch_size)


def step_count(cfg: TrainConfig, n_blocks: int) -> int:
    """The update steps cfg asks for over n_blocks: cfg.steps, or cfg.epochs
    whole epochs."""
    if cfg.steps is not None:
        return cfg.steps
    return cfg.epochs * steps_per_epoch(n_blocks, cfg.batch_size)


def batch_indices(seed: int, n_blocks: int, batch_size: int, step: int) -> np.ndarray:
    """Block indices for a 1-based step; stateless, so any step can be
    recomputed independently (resume support)."""
    epoch, slot = divmod(step - 1, steps_per_epoch(n_blocks, batch_size))
    perm = np.random.default_rng([seed, epoch]).permutation(n_blocks)
    return perm[slot * batch_size : slot * batch_size + batch_size]


def schedule_digest(cfg: TrainConfig, n_blocks: int, total_steps: int) -> str:
    h = hashlib.sha256()
    for step in range(1, total_steps + 1):
        h.update(batch_indices(cfg.seed, n_blocks, cfg.batch_size, step).tobytes())
    return h.hexdigest()


def weights_digest(weights: ModelWeights) -> str:
    h = hashlib.sha256()
    for arr in weights.arrays.values():
        h.update(np.ascontiguousarray(arr, dtype="<f8").tobytes())
    return h.hexdigest()


def train(
    cfg: TrainConfig,
    model_config: ModelConfig,
    blocks: list[SegmentedText],
    initial: ModelWeights | None = None,
    opt_state: dict[str, np.ndarray] | None = None,
    start_step: int = 0,
    anchor_id: int | None = None,
    checkpoint_dir: str | Path | None = None,
    vocab_sha256: str = "",
) -> TrainReport:
    """Train for cfg.steps (or cfg.epochs) update steps from start_step.

    The loss sequence is a deterministic function of (config, model
    config, blocks, initial weights); two identical runs agree bitwise.
    With a checkpoint_dir, every cfg.checkpoint_every-th step writes
    ckpt-<step>.bin there; the final weights are the caller's to save.
    """
    if not blocks:
        raise ContractError("training needs a nonempty block list")
    for i, b in enumerate(blocks):
        if len(b) < 2:
            raise ContractError(f"block {i} has fewer than 2 tokens")

    n = len(blocks)
    total_steps = step_count(cfg, n)
    weights = initial.copy() if initial is not None else init_weights(
        model_config, cfg.seed, anchor_id=anchor_id
    )
    optimizer = AdamW(weights.arrays, cfg)
    if opt_state:
        optimizer.load_state_arrays(opt_state)

    report = TrainReport(
        header={
            "mask_mode": cfg.mask_mode,
            "policy": cfg.policy,
            "batch_size": str(cfg.batch_size),
            "learning_rate": repr(cfg.learning_rate),
            "warmup_steps": str(cfg.warmup_steps),
            "weight_decay": repr(cfg.weight_decay),
            "grad_clip": repr(cfg.grad_clip),
            "seed": str(cfg.seed),
            "n_blocks": str(n),
        }
    )

    for step in range(start_step + 1, start_step + total_steps + 1):
        t0 = time.perf_counter()
        batch = batch_indices(cfg.seed, n, cfg.batch_size, step)
        loss_sum = 0.0
        grad_sum: dict[str, np.ndarray] | None = None
        for bi in batch:
            block = blocks[bi]
            flags = segment_flags(block if cfg.mask_mode == "ansan" else no_anchor(block))
            loss, grads = loss_and_grads(weights, block, mask_rows(flags))
            loss_sum += loss
            if grad_sum is None:
                grad_sum = grads
            else:
                for name, g in grads.items():
                    grad_sum[name] += g
            report.tokens_seen += len(block)
        mean_loss = loss_sum / len(batch)
        if not np.isfinite(mean_loss):
            raise NumericError(f"training diverged at step {step}: loss={mean_loss}")
        for g in grad_sum.values():
            g /= len(batch)
        clip_global_norm(grad_sum, cfg.grad_clip)
        optimizer.step(weights.arrays, grad_sum, step)
        report.records.append(
            StepRecord(step, mean_loss, optimizer.lr_at(step), (time.perf_counter() - t0) * 1e3)
        )
        if checkpoint_dir and cfg.checkpoint_every and step % cfg.checkpoint_every == 0:
            ckpt_path = Path(checkpoint_dir) / f"ckpt-{step:06d}.bin"
            save_checkpoint(ckpt_path, weights, step, vocab_sha256, optimizer.state_arrays())

    report.final_weights = weights
    report.opt_state = optimizer.state_arrays()
    return report


@dataclass
class FromScratchReport:
    header: dict[str, str]
    causal: TrainReport
    ansan: TrainReport
    causal_perplexity: float
    ansan_perplexity: float
    init_digests: tuple[str, str]
    schedule_digests: tuple[str, str]

    def to_text(self) -> str:
        lines = [f"# {k} = {v}" for k, v in self.header.items()]
        lines.append("arm final_loss perplexity")
        lines.append(f"causal {self.causal.records[-1].loss!r} {self.causal_perplexity!r}")
        lines.append(f"ansan {self.ansan.records[-1].loss!r} {self.ansan_perplexity!r}")
        return "\n".join(lines) + "\n"


def compare_from_scratch(
    model_config: ModelConfig,
    blocks: list[SegmentedText],
    eval_text: SegmentedText,
    cfg: TrainConfig,
    eval_context_len: int,
    anchor_id: int | None = None,
    inserted_anchor_id: int | None = None,
) -> FromScratchReport:
    """Train a causal arm and an anchor-masked arm that share the same
    initial weights, data order and hyperparameters, then evaluate each
    arm's perplexity (full attention for causal, anchor masks for the
    anchor arm)."""
    from .evaluate import perplexity  # local import avoids a cycle

    total_steps = step_count(cfg, len(blocks))
    init = init_weights(model_config, cfg.seed, anchor_id=anchor_id)
    arms: dict[str, TrainReport] = {}
    digests: list[str] = []
    schedules: list[str] = []
    for mode in MASK_MODES:
        arm_cfg = replace(cfg, mask_mode=mode)
        digests.append(weights_digest(init))
        schedules.append(schedule_digest(arm_cfg, len(blocks), total_steps))
        arms[mode] = train(arm_cfg, model_config, blocks, initial=init)
    if digests[0] != digests[1] or schedules[0] != schedules[1]:
        raise ContractError("from-scratch arms must share init and batch schedule")

    ppl_causal = perplexity(
        arms["causal"].final_weights, eval_text, "causal", eval_context_len,
        inserted_anchor_id=inserted_anchor_id,
    )
    ppl_ansan = perplexity(
        arms["ansan"].final_weights, eval_text, "ansan", eval_context_len,
        inserted_anchor_id=inserted_anchor_id,
    )
    header = {
        "comparison": "identical init + batch schedule; arms differ only in masks",
        "init_digest": digests[0][:16],
        "schedule_digest": schedules[0][:16],
        "steps": str(total_steps),
        "learning_rate": repr(cfg.learning_rate),
        "weight_decay": repr(cfg.weight_decay),
        "grad_clip": repr(cfg.grad_clip),
        "reference_full_scale": "non-target: anchor-trained 32.81 vs causal 36.57 perplexity",
    }
    return FromScratchReport(
        header=header,
        causal=arms["causal"],
        ansan=arms["ansan"],
        causal_perplexity=ppl_causal,
        ansan_perplexity=ppl_ansan,
        init_digests=(digests[0], digests[1]),
        schedule_digests=(schedules[0], schedules[1]),
    )
