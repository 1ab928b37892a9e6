"""Wrappers around the names anchorlm's callers look up at call time.

`Patches` swaps a module or class attribute for a wrapper and puts the
original back on `restore()`. `Tracer` builds the wrappers of the traced
run: each one records a span (self time = duration minus the time of
the spans it encloses) and the counts measured at that boundary. Spans
are kept in memory as per-name totals; nothing is written until the
benchmark prints its result.
"""

from __future__ import annotations

import importlib
import time
from collections import defaultdict
from typing import Any, Callable

import numpy as np

import anchorlm.autodiff as autodiff
import anchorlm.cache as cache
import anchorlm.evaluate as evaluate
import anchorlm.infer as infer

# `anchorlm.train` is shadowed by the `train` function the package exports
trainmod = importlib.import_module("anchorlm.train")


class Patches:
    """Attribute swaps that are undone in reverse order."""

    def __init__(self) -> None:
        self._undo: list[tuple[Any, str, Any]] = []

    def wrap(self, owner: Any, name: str, make: Callable[[Callable], Callable]) -> bool:
        """Replace owner.name by make(original); False when the name is absent."""
        raw = owner.__dict__.get(name) if isinstance(owner, type) else getattr(owner, name, None)
        if raw is None:
            return False
        if isinstance(raw, staticmethod):
            replacement = staticmethod(make(raw.__func__))
        else:
            replacement = make(raw)
        self._undo.append((owner, name, raw))
        setattr(owner, name, replacement)
        return True

    def restore(self) -> None:
        while self._undo:
            owner, name, raw = self._undo.pop()
            setattr(owner, name, raw)


# Span name -> per-layer metric name. Spans without a boundary of their
# own (e.g. `_log_softmax` inside scoring) fall into their caller's self time.
SPAN_METRICS = {
    "model.forward.prefill": "model.forward.prefill_ms",
    "model.forward.step": "model.forward.step_ms",
    "model.loss_and_grads": "model.loss_and_grads.self_ms",
    "autodiff.backward": "autodiff.backward_ms",
    "cache.stacked": "cache.stacked_ms",
    "cache.live_flags": "cache.live_flags_ms",
    "cache.extend": "cache.extend_ms",
    "cache.reduction": "cache.reduction_ms",
    "cache.clone": "cache.clone_ms",
    "masks.decode_row": "masks.decode_row_ms",
    "masks.anchor_mask": "masks.anchor_mask_ms",
    "masks.causal_mask": "masks.causal_mask_ms",
    "infer.continuation_rows": "infer.continuation_rows_ms",
    "infer.generate": "infer.generate.self_ms",
    "evaluate.run_mc_task": "evaluate.run_mc_task.self_ms",
    "train.adamw": "train.adamw_ms",
    "train.clip": "train.clip_ms",
    "train.train": "train.self_ms",
}

# Counts that depend only on the inputs, so a replay of the same round
# must reproduce them exactly.
EXACT_COUNTS = (
    "model.forward.calls",
    "model.attn_keys",
    "autodiff.tape_nodes",
    "cache.appends",
    "cache.discards",
    "cache.reductions",
    "cache.peak_live",
    "cache.stacked_bytes",
    "cache.stacked_calls",
    "cache.stacked_live",
)

# Layers whose self time is bookkeeping around the model call in decoding.
BOOKKEEPING_PREFIXES = ("cache.", "masks.", "infer.")


def _mask_shape(args: tuple, kwargs: dict) -> tuple[int, int]:
    mask = kwargs["mask_bits"] if "mask_bits" in kwargs else args[2]
    rows, keys = np.atleast_2d(np.asarray(mask)).shape
    return rows, keys


class Tracer:
    """Per-name span totals and boundary counts for one traced pass."""

    def __init__(self, kv_bytes_per_entry: int) -> None:
        self.kv_bytes_per_entry = kv_bytes_per_entry
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, float] = defaultdict(float)
        self._open: list[float] = []  # child time accumulated per open span
        self.missing: list[str] = []

    # -- span bookkeeping ----------------------------------------------------

    def _timed(self, name: str, fn: Callable, *args, **kwargs):
        self._open.append(0.0)
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            dt = time.perf_counter() - t0
            self.self_s[name] += dt - self._open.pop()
            if self._open:
                self._open[-1] += dt

    def span(self, name: str) -> Callable[[Callable], Callable]:
        def make(fn: Callable) -> Callable:
            def wrapper(*args, **kwargs):
                return self._timed(name, fn, *args, **kwargs)

            return wrapper

        return make

    def snapshot(self) -> dict[str, float]:
        return dict(self.self_s)

    # -- boundaries with counts ------------------------------------------------

    def _forward(self, fn: Callable) -> Callable:
        def wrapper(*args, **kwargs):
            rows, keys = _mask_shape(args, kwargs)
            self.counts["model.forward.calls"] += 1
            self.counts["model.attn_keys"] += rows * keys
            name = "model.forward.step" if rows == 1 else "model.forward.prefill"
            return self._timed(name, fn, *args, **kwargs)

        return wrapper

    def _op(self, fn: Callable) -> Callable:
        def wrapper(*args, **kwargs):
            out = fn(*args, **kwargs)
            if out.requires_grad:
                self.counts["autodiff.tape_nodes"] += 1
            return out

        return wrapper

    def _stacked(self, fn: Callable) -> Callable:
        def wrapper(kv, *args, **kwargs):
            live = len(kv)
            self.counts["cache.stacked_calls"] += 1
            self.counts["cache.stacked_live"] += live
            self.counts["cache.stacked_bytes"] += live * self.kv_bytes_per_entry
            return self._timed("cache.stacked", fn, kv, *args, **kwargs)

        return wrapper

    def _extend(self, fn: Callable) -> Callable:
        def wrapper(kv, *args, **kwargs):
            before = len(kv)
            try:
                return self._timed("cache.extend", fn, kv, *args, **kwargs)
            finally:
                self.counts["cache.appends"] += len(kv) - before
                self.counts["cache.peak_live"] = max(self.counts["cache.peak_live"], len(kv))

        return wrapper

    def _reduction(self, fn: Callable) -> Callable:
        def wrapper(kv, *args, **kwargs):
            before = len(kv)
            try:
                return self._timed("cache.reduction", fn, kv, *args, **kwargs)
            finally:
                self.counts["cache.reductions"] += 1
                self.counts["cache.discards"] += before - len(kv)

        return wrapper

    def _adamw(self, fn: Callable) -> Callable:
        def wrapper(*args, **kwargs):
            self.counts["train.steps"] += 1
            return self._timed("train.adamw", fn, *args, **kwargs)

        return wrapper

    def install(self, patches: Patches) -> None:
        """Wrap every layer boundary; a name a later version of the
        package no longer has is listed in `missing`, not an error."""
        plan: list[tuple[Any, str, Callable[[Callable], Callable]]] = [
            (infer, "forward", self._forward),
            (evaluate, "forward", self._forward),
            (trainmod, "loss_and_grads", self.span("model.loss_and_grads")),
            (autodiff.Tensor, "backward", self.span("autodiff.backward")),
            (autodiff.Tensor, "_op", self._op),
            (cache.AnchorKVCache, "stacked", self._stacked),
            (cache.AnchorKVCache, "live_flags", self.span("cache.live_flags")),
            (cache.AnchorKVCache, "extend_from_forward", self._extend),
            (cache.AnchorKVCache, "reduction", self._reduction),
            (cache.AnchorKVCache, "clone", self.span("cache.clone")),
            (infer, "decode_mask_row", self.span("masks.decode_row")),
            (evaluate, "continuation_rows", self.span("infer.continuation_rows")),
            (infer, "generate", self.span("infer.generate")),
            (evaluate, "run_mc_task", self.span("evaluate.run_mc_task")),
            (getattr(trainmod, "AdamW", None), "step", self._adamw),
            (trainmod, "clip_global_norm", self.span("train.clip")),
            (trainmod, "train", self.span("train.train")),
        ]
        for module in (infer, evaluate, trainmod):
            plan.append((module, "anchor_mask", self.span("masks.anchor_mask")))
            plan.append((module, "causal_mask", self.span("masks.causal_mask")))
        for owner, name, make in plan:
            if owner is None or not patches.wrap(owner, name, make):
                self.missing.append(f"{getattr(owner, '__name__', owner)}.{name}")

    # -- metrics -----------------------------------------------------------------

    def layer_metrics(self, rounds: int) -> dict[str, float]:
        """Per-layer self times (ms) and counts, each per traced round;
        tape nodes per optimizer step, live size per cache read."""
        out = {metric: 1e3 * self.self_s.get(span, 0.0) / rounds
               for span, metric in SPAN_METRICS.items()}
        for name in ("model.forward.calls", "model.attn_keys", "cache.appends",
                     "cache.discards", "cache.reductions", "cache.stacked_bytes"):
            out[name] = self.counts.get(name, 0.0) / rounds
        out["cache.peak_live"] = self.counts.get("cache.peak_live", 0.0)
        steps = self.counts.get("train.steps", 0.0)
        out["autodiff.tape_nodes"] = self.counts.get("autodiff.tape_nodes", 0.0) / steps if steps else 0.0
        calls = self.counts.get("cache.stacked_calls", 0.0)
        out["cache.live_mean"] = self.counts.get("cache.stacked_live", 0.0) / calls if calls else 0.0
        appends = self.counts.get("cache.appends", 0.0)
        out["cache.reduction_ratio"] = self.counts.get("cache.discards", 0.0) / appends if appends else 0.0
        return out

    def absorb(self, other: "Tracer") -> None:
        """Add another pass's totals to this one."""
        for name, seconds in other.self_s.items():
            self.self_s[name] += seconds
        for name, value in other.counts.items():
            merge = max if name == "cache.peak_live" else float.__add__
            self.counts[name] = merge(self.counts[name], float(value))

    def exact_counts(self) -> dict[str, float]:
        return {name: self.counts.get(name, 0.0) for name in EXACT_COUNTS}


def bookkeeping_seconds(before: dict[str, float], after: dict[str, float]) -> float:
    """Self time spent in cache, mask and infer spans between two snapshots."""
    return sum(
        after[name] - before.get(name, 0.0)
        for name in after
        if name.startswith(BOOKKEEPING_PREFIXES)
    )
