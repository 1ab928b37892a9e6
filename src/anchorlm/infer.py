"""Anchor-based autoregressive generation and continuation scoring, both
built on one cached step (`advance`, one forward over the cache that
commits the new tokens; `score_trees` scores several contexts and their
continuations as a forest of trees in one forward over the cache,
committing nothing). Both scorers, `score_trees` and the non-cached
`score_continuation`, read their scores with one routine,
`_logprob_sums`: one row-wise log-softmax over the forward's logit rows,
one gather of every scored id, and a left-to-right sum per continuation.

Generation processes the prefix under anchor masks in one `advance`,
which reduces the cache after it, then decodes token by token; the
`advance` of a generated anchor token (its keys/values cached) reduces
the cache again, and the next token starts a new sequence. Discarded
entries are exactly the ones the masks already block for every future
query, so reduction leaves the generated text unchanged. A reducing
`advance` also skips their work: it keeps only the keys/values the
reduction keeps, so a token the reduction discards runs only as far as
its sequence's anchor reads it (`model.forward`'s kv_rows), and a
non-anchor token of a closed sequence never runs the last layer.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .cache import AnchorKVCache, CacheStats, kept_by_reduction
from .corpus import SegmentedText
from .errors import ContractError, NumericError
from .masks import mask_rows, segment_flags
from .model import ModelWeights, forward


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
        if self.temperature is not None and not self.temperature > 0:  # NaN too
            raise ContractError("temperature must be positive")


@dataclass
class GenerationResult:
    """prefix_seconds and decode_seconds time whole `advance` calls (mask
    rows, forward, cache write and the reductions `advance` runs when
    reduction is enabled), not sampling."""

    ids: list[int]
    live_sizes: list[int]  # live cache size when each token was sampled
    stats: CacheStats
    prefix_seconds: float
    decode_seconds: float
    final_cache: AnchorKVCache | None = field(repr=False, default=None)
    sampled_logits: list[np.ndarray] = field(repr=False, default_factory=list)


def log_softmax(x: np.ndarray) -> np.ndarray:
    """Log-softmax over the last axis, row by row."""
    shifted = x - x.max(axis=-1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))


def _sample(logits_row: np.ndarray, cfg: GenerationConfig, rng: np.random.Generator) -> int:
    """The argmax when greedy; otherwise an inverse-CDF draw from the
    softmax at the temperature: the normalized probabilities' cumulative
    sum, divided by its last entry, searched (right side) for one
    `rng.random()`. That is the arithmetic `Generator.choice(len(p), p=p)`
    runs after checking p, so it takes the same draws and picks the same
    id, without re-checking p on every token. A distribution that is not
    finite (logits / temperature overflowed) raises NumericError."""
    if cfg.temperature is None:
        return int(np.argmax(logits_row))
    probs = np.exp(log_softmax(logits_row / cfg.temperature))
    cdf = (probs / probs.sum()).cumsum()
    if not math.isfinite(cdf[-1]):
        raise NumericError(f"non-finite sampling distribution at temperature {cfg.temperature}")
    cdf /= cdf[-1]
    return int(cdf.searchsorted(rng.random(), side="right"))


def next_seq_index(seg: SegmentedText) -> int:
    """Sequence index for a token appended after this segment."""
    if len(seg) == 0:
        return 0
    return seg.seq_index[-1] + (1 if seg.is_anchor[-1] else 0)


def advance(
    weights: ModelWeights,
    cache: AnchorKVCache,
    ids: Sequence[int],
    flags: np.ndarray,
    reduce: bool = False,
    logits: bool = True,
) -> np.ndarray | None:
    """One `forward` of new tokens, with these (is_anchor, seq_index)
    flags, over the live cache and each other under the anchor rule
    (causal over flags with no anchor); then commit the keys/values it
    wrote into the free slots, at the positions after the newest entry,
    and, with reduce, reduce the cache (`AnchorKVCache.reduction`). Returns
    the logits of the last token, the next token's distribution, or None
    when logits is False, and the forward computes no logits. The last
    layer runs only the rows whose logits are read. With reduce,
    keys/values are computed only for the rows the reduction keeps
    (`kept_by_reduction`: the new anchors and the rows from the last new
    anchor on, or every row without a new anchor), so a closed sequence's
    other tokens run only as far as their anchor reads them. Entries of
    the rows left out are committed unwritten and discarded by the
    reduction right after."""
    kv_rows = kept_by_reduction(flags) if reduce and len(ids) > 1 else None
    out = forward(
        weights, ids, mask_rows(flags, cache.flag_array()),
        cache.stacked(len(ids), weights.config), cache.next_positions(len(ids)),
        logit_rows=slice(-1, None) if logits else [], kv_rows=kv_rows,
    )
    cache.extend_from_forward(flags)
    if reduce:
        cache.reduction()
    return out.logits[0] if logits else None


# (context ids, context flags, continuations), as `score_trees` takes them
Tree = tuple[Sequence[int], np.ndarray, Sequence[Sequence[int]]]


def score_trees(
    weights: ModelWeights, cache: AnchorKVCache, trees: Sequence[Tree]
) -> list[list[float]]:
    """Score several continuations of several contexts after the cache in
    one forward, laid out as a forest (tree attention, as in SpecInfer,
    Miao et al., 2024, shared across prompts as in Hydragen, Juravsky et
    al., 2024). Each tree is (context ids, context flags, continuations).

    A tree's nonempty context is its trunk and continues the cache's
    positions. Each continuation but its last token is a branch: non-anchor
    members of the sequence after the trunk (as in `score_continuation`)
    that continue the trunk's positions and see the cache, the trunk and
    their own branch under the one mask rule, whose whole block is built
    once and the tree and branch restriction applied to it. No token sees
    another tree or another branch. The forward keeps no keys/values
    (`kv_rows=[]`, as in `score_continuation`) and commits nothing, so the
    cache is not changed. Only the rows whose logits are read, each
    trunk's last and the branches, run the last layer, and each layer
    below runs only the rows a later read needs: under anchor masks a
    sequence the trunk closes runs only as far as its anchor is read.
    The forest is laid out in one pass over plain lists and
    scored in one `_logprob_sums` call over every logit row. Returns per
    tree the summed log-probability of each continuation. An empty trunk
    or continuation raises ContractError."""
    tokens: list[int] = []
    flags: list[list[int]] = []  # (is_anchor, seq_index) per token
    depth: list[int] = []  # position after the cache
    tree_of: list[int] = []
    branch_of: list[int] = []  # -1: trunk
    read: list[int] = []  # the rows whose logits the forward computes
    scored: list[int] = []  # per scored token, its row among `read`
    targets: list[int] = []  # per scored token, its id
    ends: list[int] = []  # per continuation, its end in `targets`
    for t, (ids, ctx_flags, continuations) in enumerate(trees):
        n = len(ids)
        if n == 0:
            raise ContractError("a tree's trunk needs at least one token")
        ctx_rows = np.asarray(ctx_flags, dtype=np.int64).tolist()
        is_anchor, seq = ctx_rows[-1]
        branch_flags = [0, seq + bool(is_anchor)]
        tokens += ids
        flags += ctx_rows
        depth += range(n)
        tree_of += [t] * n
        branch_of += [-1] * n
        read.append(len(tokens) - 1)
        trunk_row = len(read) - 1  # scores each continuation's first token
        for b, c in enumerate(continuations):
            m = len(c) - 1
            if m < 0:
                raise ContractError("a continuation needs at least one token")
            scored += [trunk_row, *range(len(read), len(read) + m)]
            read += range(len(tokens), len(tokens) + m)
            tokens += c[:-1]
            flags += [branch_flags] * m
            depth += range(n, n + m)
            tree_of += [t] * m
            branch_of += [b] * m
            targets += c
            ends.append(len(targets))
    tree, branch = np.array(tree_of), np.array(branch_of)
    rows = mask_rows(np.array(flags, dtype=np.int64), cache.flag_array())[:]
    rows[:, len(cache) :] &= (tree[:, None] == tree) & (
        (branch[:, None] == branch) | (branch == -1)
    )
    kv = cache.stacked(len(tokens), weights.config)
    positions = cache.next_positions(1)[0] + np.array(depth)
    logits = forward(
        weights, tokens, rows, kv, positions, logit_rows=np.array(read), kv_rows=[]
    ).logits
    sums = iter(_logprob_sums(logits, scored, targets, ends))
    return [[next(sums) for _ in continuations] for _, _, continuations in trees]


def _logprob_sums(
    logits: np.ndarray, rows: Sequence[int], targets: Sequence[int], ends: Sequence[int]
) -> list[float]:
    """The one continuation scorer: targets[i] is read under logits row
    rows[i], and each continuation, the targets from the previous end
    (0 first) to its own, gets the left-to-right sum of its
    log-probabilities. One row-wise log-softmax over every row and one
    gather serve all continuations. An id outside [0, vocab_size) raises
    ContractError."""
    ids = np.array(targets, dtype=np.int64)
    vocab_size = logits.shape[-1]
    if ids.size and (ids.min() < 0 or ids.max() >= vocab_size):
        raise ContractError(f"continuation ids must lie in [0, {vocab_size})")
    values = log_softmax(logits)[rows, ids].tolist()
    return [sum(values[a:b], 0.0) for a, b in zip([0, *ends], ends)]


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
    logits = advance(
        weights, cache, prefix.ids, segment_flags(prefix), reduce=cfg.reduction_enabled
    )
    prefix_seconds = time.perf_counter() - t0

    generated = [_sample(logits, cfg, rng)]
    live_sizes = [len(cache)]
    sampled_logits = [logits] if cfg.collect_logits else []
    cur_seq = next_seq_index(prefix)
    decode_seconds = 0.0

    while len(generated) < cfg.max_new_tokens and generated[-1] != cfg.eos_id:
        token = generated[-1]
        is_anchor = token == cfg.anchor_token_id
        flags = np.array([[is_anchor, cur_seq]])  # one (is_anchor, seq_index) row
        # once an anchor's keys/values are cached its sequence can collapse
        # onto it, and the next token opens a new sequence
        reduce = cfg.reduction_enabled and is_anchor
        t0 = time.perf_counter()
        logits = advance(weights, cache, [token], flags, reduce=reduce)
        decode_seconds += time.perf_counter() - t0
        cur_seq += is_anchor
        generated.append(_sample(logits, cfg, rng))
        live_sizes.append(len(cache))
        if cfg.collect_logits:
            sampled_logits.append(logits)

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
    weights: ModelWeights, context: SegmentedText, continuation: list[int]
) -> float:
    """Sum of log-probabilities of the continuation tokens given the
    context, under the mask rule over the context's flags (causal masks
    when the context has no anchor, `masks.no_anchor`).

    Continuation tokens are scored as non-anchor members of the sequence
    that follows the context (a new sequence when the context ends in an
    anchor). One forward runs over the context and every continuation
    token but the last, whose logits no score reads, and keeps no
    keys/values: the last layer runs only the rows whose logits are read,
    from the context's last on, and each layer below only the rows the
    layer above reads, so under anchor masks an earlier sequence's
    non-anchor tokens only feed their anchor's keys/values. The mask
    goes in as the rule, so only those rows' mask rows are built. An
    empty context or continuation raises ContractError, as in
    `score_trees`: a score of 0.0 would beat every real choice.
    """
    total = len(context) + len(continuation)
    if total > weights.config.context_len:
        raise ContractError(
            f"context+continuation length {total} exceeds context_len "
            f"{weights.config.context_len}"
        )
    if not continuation:
        raise ContractError("a continuation needs at least one token")
    if len(context) == 0:
        raise ContractError("scoring requires a nonempty context")

    rest = list(continuation[:-1])
    rest_flags = np.repeat([[0, next_seq_index(context)]], len(rest), axis=0)
    flags = np.concatenate([segment_flags(context), rest_flags])
    out = forward(
        weights, list(context.ids) + rest, mask_rows(flags),
        logit_rows=slice(len(context) - 1, None), kv_rows=[],
    )
    n = len(continuation)
    return _logprob_sums(out.logits, range(n), continuation, [n])[0]
