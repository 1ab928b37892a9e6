"""Anchor-based autoregressive generation and continuation scoring, both
built on one cached step (`attend`, and `advance`, which also caches).

Generation processes the prefix under anchor masks, reduces the cache
once, then decodes token by token; whenever a generated anchor token has
been processed (its keys/values cached), the cache is reduced again and
the next token starts a new sequence. Discarded entries are exactly the
ones the masks already block for every future query, so reduction leaves
the generated text unchanged.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .cache import AnchorKVCache, CacheStats
from .corpus import SegmentedText
from .errors import ContractError
from .masks import TokenFlags, mask_rows, segment_flags
from .model import ForwardOutput, ModelWeights, forward


@dataclass(frozen=True)
class GenerationConfig:
    max_new_tokens: int
    anchor_token_id: int | None = None  # a generated id equal to this is an anchor
    eos_id: int | None = None
    temperature: float | None = None  # None = greedy
    sample_seed: int = 0
    reduction_enabled: bool = True
    collect_logits: bool = False  # keep the logits each token was sampled from

    def __post_init__(self) -> None:
        if self.max_new_tokens < 1:
            raise ContractError("max_new_tokens must be >= 1")
        if self.temperature is not None and self.temperature <= 0:
            raise ContractError("temperature must be positive")


@dataclass
class GenerationResult:
    """prefix_seconds and decode_seconds time whole `advance` calls (mask
    rows, forward and cache write), not reduction or sampling."""

    ids: list[int]
    live_sizes: list[int]  # live cache size when each token was sampled
    stats: CacheStats
    prefix_seconds: float
    decode_seconds: float
    final_cache: AnchorKVCache | None = field(repr=False, default=None)
    sampled_logits: list[np.ndarray] = field(repr=False, default_factory=list)


def _log_softmax(row: np.ndarray) -> np.ndarray:
    shifted = row - row.max()
    return shifted - np.log(np.exp(shifted).sum())


def _sample(logits_row: np.ndarray, cfg: GenerationConfig, rng: np.random.Generator) -> int:
    if cfg.temperature is None:
        return int(np.argmax(logits_row))
    probs = np.exp(_log_softmax(logits_row / cfg.temperature))
    return int(rng.choice(len(probs), p=probs / probs.sum()))


def next_seq_index(seg: SegmentedText) -> int:
    """Sequence index for a token appended after this segment."""
    if len(seg) == 0:
        return 0
    return seg.seq_index[-1] + (1 if seg.is_anchor[-1] else 0)


def attend(
    weights: ModelWeights,
    cache: AnchorKVCache,
    ids: Sequence[int],
    flags: Sequence[TokenFlags] | np.ndarray,
    ansan: bool = True,
) -> ForwardOutput:
    """Run new tokens against the live cache and each other under the
    anchor rule (causal when ansan is False). Their keys/values land in
    the cache's free slots, so the live entries and len(cache) are not
    changed. Positions continue from the newest entry, which reduction
    never drops."""
    rows = mask_rows(flags, cache.flag_array(), ansan)
    kv = cache.stacked(len(ids), weights.config)
    return forward(weights, ids, rows, kv, positions=cache.next_positions(len(ids)))


def advance(
    weights: ModelWeights,
    cache: AnchorKVCache,
    ids: Sequence[int],
    flags: Sequence[TokenFlags] | np.ndarray,
    ansan: bool = True,
) -> np.ndarray:
    """`attend`, then commit the tokens' keys/values; returns the logits."""
    out = attend(weights, cache, ids, flags, ansan)
    cache.extend_from_forward(cache.next_positions(len(ids)), flags)
    return out.logits


def continuation_logprob(logits: np.ndarray, continuation: Sequence[int]) -> float:
    """Sum of log-probabilities of continuation[t] under logits row t."""
    return sum((float(_log_softmax(row)[tok]) for row, tok in zip(logits, continuation)), 0.0)


def generate(
    weights: ModelWeights, prefix: SegmentedText, cfg: GenerationConfig
) -> GenerationResult:
    """Decode greedily (or with seeded temperature sampling) under anchor
    masks, reducing the keys/values cache when reduction is enabled."""
    if len(prefix) < 1:
        raise ContractError("prefix must contain at least one token")
    if len(prefix) > weights.config.context_len:
        raise ContractError(
            f"prefix length {len(prefix)} exceeds context_len {weights.config.context_len}"
        )
    prefix.validate()
    rng = np.random.default_rng(cfg.sample_seed)
    cache = AnchorKVCache()

    t0 = time.perf_counter()
    logits = advance(weights, cache, prefix.ids, segment_flags(prefix))
    prefix_seconds = time.perf_counter() - t0
    if cfg.reduction_enabled:
        cache.reduction()

    generated = [_sample(logits[-1], cfg, rng)]
    live_sizes = [len(cache)]
    sampled_logits = [logits[-1].copy()] if cfg.collect_logits else []
    cur_seq = next_seq_index(prefix)
    decode_seconds = 0.0

    while len(generated) < cfg.max_new_tokens and generated[-1] != cfg.eos_id:
        token = generated[-1]
        flags = TokenFlags(token == cfg.anchor_token_id, cur_seq)
        t0 = time.perf_counter()
        logits = advance(weights, cache, [token], [flags])
        decode_seconds += time.perf_counter() - t0
        if flags.is_anchor:
            # The anchor's keys/values are cached, so its sequence can now
            # collapse onto it; the next token opens a new sequence.
            if cfg.reduction_enabled:
                cache.reduction()
            cur_seq += 1
        generated.append(_sample(logits[-1], cfg, rng))
        live_sizes.append(len(cache))
        if cfg.collect_logits:
            sampled_logits.append(logits[-1].copy())

    return GenerationResult(
        ids=generated,
        live_sizes=live_sizes,
        stats=cache.stats,
        prefix_seconds=prefix_seconds,
        decode_seconds=decode_seconds,
        final_cache=cache,
        sampled_logits=sampled_logits,
    )


def score_continuation(
    weights: ModelWeights,
    context: SegmentedText,
    continuation: list[int],
    use_ansan: bool,
) -> float:
    """Sum of log-probabilities of the continuation tokens given the
    context, under anchor masks or plain causal masks.

    Continuation tokens are scored as non-anchor members of the sequence
    that follows the context (a new sequence when the context ends in an
    anchor). One forward runs over the context and every continuation
    token but the last, whose logits no score reads.
    """
    total = len(context) + len(continuation)
    if total > weights.config.context_len:
        raise ContractError(
            f"context+continuation length {total} exceeds context_len "
            f"{weights.config.context_len}"
        )
    if not continuation:
        return 0.0
    if len(context) == 0:
        raise ContractError("scoring requires a nonempty context")

    rest = list(continuation[:-1])
    rest_flags = np.repeat([[0, next_seq_index(context)]], len(rest), axis=0)
    flags = np.concatenate([segment_flags(context), rest_flags])
    out = forward(weights, list(context.ids) + rest, mask_rows(flags, (), use_ansan))
    return continuation_logprob(out.logits[len(context) - 1 :], continuation)
