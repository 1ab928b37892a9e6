"""Tiny decoder-only transformer in float64 numpy.

Pre-norm RMS normalization, rotary position encoding applied at absolute
positions, multi-head attention with a masked softmax that renormalizes
over unmasked keys only, a GELU feed-forward block, and an untied output
head. One forward source (`_forward_graph`) serves both uses: inference
runs it over the plain weight arrays and builds no autodiff Tensor;
training runs it over Tensors, which record the tape for backward. Norm,
GELU, rotary, the attention core and the loss are the fused `autodiff`
ops `rmsnorm`, `gelu`, `rotate`, `attention` and `cross_entropy`, one
tape node each, so a block records 22 nodes per layer plus 4.

A forward runs each layer only for the rows a later read needs. The
caller names the rows whose logits it reads (`logit_rows`) and the rows
whose keys/values it keeps in the cache (`kv_rows`), every row by
default. From the mask, working down from the top layer, `_layer_rows`
derives per layer the rows whose keys/values it computes and the rows it
runs past them (query, attention, output projection and feed-forward):
the last layer runs the logit rows, and each layer below runs the rows
whose keys/values the layer above computes. A token that anchor masks
hide from every later read, such as a non-anchor token of a sequence
that a reduction will discard, stops at the keys/values its own
sequence's rows read. The mask is read the same way, only as bool
`mask[rows]` for the rows each layer runs (`_layer_rows`), so the rule
that callers pass (`masks.mask_rows`) never builds the other rows.
When every row is needed nothing is gathered, so training, perplexity
and one-token decode steps run every row as one block, built once.
A layer's attention runs over the tiles `autodiff.tiles` plans: one
(H, rows, keys) tile while its mask block holds fewer than
`autodiff.TILE_MIN_PAIRS` (row, key) pairs, and from there on one per
`autodiff.TILE_ROWS` query rows, each over only the key columns its rows
keep, so a long prompt under anchor masks skips almost every masked key;
such a forward agrees with the one-tile call to rounding, not bitwise.
Rotary rows are gathered by position from one read-only cos/sin table
per (head_dim, rope_base) that grows on demand (`_rope_tables`), so no
forward computes a cos or sin.
"""

from __future__ import annotations

import ctypes
import hashlib
import math
import os
import platform
import re
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Sequence

import numpy as np

from .autodiff import (
    Tensor, attention, attention_probs, cross_entropy, data_of, gelu, rmsnorm, rotate, take,
)
from .corpus import SegmentedText
from .errors import ContractError, InputError, NumericError
from .masks import MaskRule

Node = Tensor | np.ndarray  # what the forward helpers compute on

# glibc's mallopt parameters (malloc.h) and the values pinned below.
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3
MMAP_THRESHOLD = 32 << 20  # glibc's largest allowed value
TRIM_THRESHOLD = 64 << 20  # twice it, as glibc's own adjustment sets


def pin_malloc_thresholds() -> bool:
    """Fix glibc's mmap and trim thresholds; True if they were set.

    A forward over a long prompt allocates attention temporaries of tens
    of MB. glibc moves its mmap threshold up to the largest mmapped block
    freed so far, so whether such temporaries come from fresh mmaps (page
    faults on every call) or from the heap depended on the sizes of the
    process's first calls: the same 740-token prefill ran about 40%
    slower in some processes than in others, with twice the page faults.
    Fixed thresholds serve every block under 32 MB from a heap that keeps
    up to 64 MB free, in every process alike. Leaves the allocator alone
    off glibc and when MALLOC_MMAP_THRESHOLD_ or MALLOC_TRIM_THRESHOLD_
    is set."""
    if platform.libc_ver()[0] != "glibc" or any(
        v in os.environ for v in ("MALLOC_MMAP_THRESHOLD_", "MALLOC_TRIM_THRESHOLD_")
    ):
        return False
    mallopt = ctypes.CDLL(None).mallopt
    return bool(mallopt(_M_MMAP_THRESHOLD, MMAP_THRESHOLD)) and bool(
        mallopt(_M_TRIM_THRESHOLD, TRIM_THRESHOLD)
    )


pin_malloc_thresholds()


@dataclass(frozen=True)
class ModelConfig:
    vocab_size: int
    n_layers: int = 2
    n_heads: int = 4
    d_model: int = 64
    d_ff: int = 256
    context_len: int = 256
    rope_base: float = 10000.0
    norm_eps: float = 1e-5

    def __post_init__(self) -> None:
        for name in ("vocab_size", "n_layers", "n_heads", "d_model", "d_ff", "context_len"):
            if getattr(self, name) < 1:
                raise ContractError(f"{name} must be positive")
        if self.d_model % self.n_heads != 0:
            raise ContractError("d_model must be divisible by n_heads")
        if (self.d_model // self.n_heads) % 2 != 0:
            raise ContractError("head dimension must be even for rotary pairs")
        for name in ("rope_base", "norm_eps"):
            if not 0 < getattr(self, name) < math.inf:  # False for NaN too
                raise ContractError(f"{name} must be finite and positive")

    @property
    def head_dim(self) -> int:
        return self.d_model // self.n_heads


def param_shapes(config: ModelConfig) -> dict[str, tuple[int, ...]]:
    """Every parameter's name and shape, in the one canonical order that
    initialization draws in, checkpoints store and the optimizer walks."""
    d, ff, vocab = config.d_model, config.d_ff, config.vocab_size
    shapes: dict[str, tuple[int, ...]] = {"embedding": (vocab, d)}
    for i in range(config.n_layers):
        for name, shape in (
            ("attn_gain", (d,)), ("wq", (d, d)), ("wk", (d, d)), ("wv", (d, d)),
            ("wo", (d, d)), ("ffn_gain", (d,)), ("w1", (d, ff)), ("w2", (ff, d)),
        ):
            shapes[f"layer{i}.{name}"] = shape
    shapes["final_gain"] = (d,)
    shapes["head"] = (d, vocab)
    return shapes


@dataclass
class ModelWeights:
    config: ModelConfig
    arrays: dict[str, np.ndarray]  # name -> array, in param_shapes order

    def copy(self) -> "ModelWeights":
        return ModelWeights(self.config, {name: a.copy() for name, a in self.arrays.items()})

    def n_params(self) -> int:
        return sum(a.size for a in self.arrays.values())


@dataclass
class ForwardOutput:
    logits: np.ndarray  # (R, vocab_size): the logit rows, in the order asked for
    # per layer that runs rows, (H, rows run, keys read) probabilities,
    # built only with collect_attn (`autodiff.attention_probs`), zero at
    # the keys no tile reads; (H, T, S) when every row runs
    attn: list[np.ndarray] = field(default_factory=list)


def init_weights(config: ModelConfig, seed: int, anchor_id: int | None = None) -> ModelWeights:
    """Gains start at one; every other array is a normal(0, 0.02) draw,
    taken in param_shapes order. The anchor token's embedding row is
    reset to the mean of all other rows when anchor_id is given."""
    rng = np.random.default_rng(seed)
    arrays = {
        name: np.ones(shape) if name.endswith("_gain") else rng.normal(0.0, 0.02, size=shape)
        for name, shape in param_shapes(config).items()
    }
    if anchor_id is not None:
        embedding = arrays["embedding"]
        embedding[anchor_id] = np.delete(embedding, anchor_id, axis=0).mean(axis=0)
    return ModelWeights(config, arrays)


_ROPE: dict[tuple[int, float], tuple[np.ndarray, np.ndarray]] = {}


def _rope_table(head_dim: int, rope_base: float, size: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only (size, head_dim) tables [cos, cos] and [-sin, sin] of the
    angles of positions 0..size-1, the layout `rotate` takes."""
    inv_freq = np.tile(rope_base ** (-np.arange(head_dim // 2) * 2.0 / head_dim), 2)
    angles = np.arange(size)[:, None] * inv_freq
    cos, sin = np.cos(angles), np.sin(angles)
    sin[:, : head_dim // 2] *= -1.0
    cos.flags.writeable = sin.flags.writeable = False
    return cos, sin


def _rope_tables(config: ModelConfig, positions: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The (T, head_dim) rows of the positions, gathered from the table of
    (head_dim, rope_base) that every forward shares: bitwise the direct
    formula's. It covers context_len positions when first built and at
    least doubles when a position lies past it (a decode past context_len);
    threads growing it at once build equal tables."""
    key = (config.head_dim, config.rope_base)
    cos, sin = _ROPE.get(key, ((), ()))
    top = int(positions.max())
    if top >= len(cos):
        cos, sin = _ROPE[key] = _rope_table(*key, max(config.context_len, 2 * len(cos), top + 1))
    return cos.take(positions, axis=0), sin.take(positions, axis=0)


def _layer_rows(
    mask: MaskRule | np.ndarray,
    n_cached: int,
    n_layers: int,
    logit_rows: np.ndarray | None,
    kv_rows: np.ndarray | None,
) -> list[tuple[np.ndarray | None, np.ndarray | None, np.ndarray]]:
    """Per layer, bottom first, (kv, run, keep): the new rows whose
    keys/values the layer computes, as increasing indices, and the ones
    among them it runs past their keys/values, as indices into kv (or
    into every row), None standing for every row; and keep, the bool
    mask rows of the rows it runs, over every key column.

    Derived once, from the top down, reading only the mask rows of the
    rows each layer runs. The last layer runs the logit rows. A layer
    computes keys/values for the rows it runs, every new key they keep,
    and the rows whose keys/values the caller keeps (kv_rows; None: every
    row), as the cache holds them in every layer. The layer below runs
    exactly the rows this one computes, whose input this one reads. Every
    other row is never read, so never run, and its mask row never built.
    Below a layer that computes every row's keys/values, every layer runs
    every row, and they share the whole block, read once."""
    plan: list[tuple[np.ndarray | None, np.ndarray | None, np.ndarray]] = []
    run = logit_rows
    if run is not None:
        kept = np.zeros(mask.shape[0], dtype=bool)
        kept[slice(None) if kv_rows is None else kv_rows] = True
    while run is not None and len(plan) < n_layers:
        keep = mask[run]
        written = kept | keep[:, n_cached:].any(axis=0)
        written[run] = True
        kv = None if written.all() else np.flatnonzero(written)
        if plan and len(run) == len(written if kv is None else kv):
            plan.append((kv, None, keep))  # the layer above reads every row this one writes
        else:
            plan.append((kv, run if kv is None else np.searchsorted(kv, run), keep))
        run = kv
    if len(plan) < n_layers:
        plan += [(None, None, mask[:])] * (n_layers - len(plan))
    if plan[-1][2].dtype != bool:  # every row comes from the one mask
        raise ContractError(f"mask rows must be bool, got {plan[-1][2].dtype}")
    return plan[::-1]


def _forward_graph(
    params: dict[str, Node],
    config: ModelConfig,
    ids: np.ndarray,
    mask: MaskRule | np.ndarray,
    cache_kv: list[tuple[np.ndarray, np.ndarray]] | None,
    positions: np.ndarray,
    collect_attn: bool,
    logit_rows: np.ndarray | None = None,
    kv_rows: np.ndarray | None = None,
) -> tuple[Node, ForwardOutput]:
    """The forward source; the mask is read only as `mask[rows]`, bool
    rows, and `mask.shape`, so a `MaskRule` builds only the rows read."""
    T = len(ids)
    n_cached = cache_kv[0][0].shape[1] - T if cache_kv else 0
    if n_cached < 0 or mask.shape != (T, n_cached + T) or positions.shape != (T,):
        raise ContractError(
            f"mask shape {mask.shape} and {positions.shape} positions do not match "
            f"(tokens={T}, cached={n_cached})"
        )
    plan = _layer_rows(mask, n_cached, config.n_layers, logit_rows, kv_rows)
    # every new key a row keeps, other than the query itself, comes before
    # it: a chain's positions increase, and a tree's branches may repeat
    # positions, which they cannot see across. Checked for the rows read,
    # the bottom layer's, a superset of every layer's; one token's only
    # new key is itself, which the rule exempts, so a decode step skips it
    if T > 1:
        kv, run, keep = plan[0]
        read = np.arange(T)
        read = read if kv is None else read[kv]
        read = read if run is None else read[run]
        later = positions >= positions[read, None]
        later[np.arange(len(read)), read] = False
        if np.any(later & keep[:, n_cached:]):
            raise ContractError("a row keeps a new key at or after its own position")
    if ids.min() < 0 or ids.max() >= config.vocab_size:
        raise ContractError(f"token ids must lie in [0, {config.vocab_size})")
    if positions.min() < 0:
        raise ContractError("positions must be >= 0")

    H, hd = config.n_heads, config.head_dim
    cos_all, sin_all = _rope_tables(config, positions)
    out = ForwardOutput(logits=np.empty(0))

    h = take(params["embedding"], ids if plan[0][0] is None else ids[plan[0][0]])
    for li, (kv, run, keep) in enumerate(plan):
        prefix = f"layer{li}."
        p = lambda f: params[prefix + f]
        # h holds the rows in kv, the ones this layer computes keys/values for
        cos, sin = cos_all, sin_all
        if kv is not None:
            cols = np.concatenate((np.arange(n_cached), n_cached + kv))  # keys written
            keep, cos, sin = keep[:, cols], cos_all[kv], sin_all[kv]
        m = len(cos)
        a = rmsnorm(h, p("attn_gain"), config.norm_eps)
        k = (a @ p("wk")).reshape(m, H, hd).swapaxes(0, 1)
        v = (a @ p("wv")).reshape(m, H, hd).swapaxes(0, 1)
        k = rotate(k, cos, sin)
        if cache_kv:
            k_all, v_all = cache_kv[li]
            slots = slice(n_cached, None) if kv is None else n_cached + kv
            k_all[:, slots] = data_of(k)
            v_all[:, slots] = data_of(v)
            if kv is not None:  # slots left unwritten may hold NaN or stale data
                k_all, v_all = k_all[:, cols], v_all[:, cols]
        else:
            k_all, v_all = k, v
        if run is not None:
            # only the rows a later read needs go on past their keys/values
            h, a = take(h, run), take(a, run)
            cos, sin = cos[run], sin[run]
        n = len(keep)
        if not n:
            continue  # nothing reads this layer's output: no attention, no FFN
        q = (a @ p("wq")).reshape(n, H, hd).swapaxes(0, 1)
        q = rotate(q, cos, sin)
        ctx = attention(q, k_all, v_all, keep)
        if collect_attn:
            out.attn.append(attention_probs(q, k_all, keep))
        h = h + ctx.swapaxes(0, 1).reshape(n, config.d_model) @ p("wo")
        f = rmsnorm(h, p("ffn_gain"), config.norm_eps)
        h = h + gelu(f @ p("w1")) @ p("w2")
        if not np.isfinite(data_of(h)).all():
            raise NumericError(f"non-finite activations after layer {li}")

    logits = rmsnorm(h, params["final_gain"], config.norm_eps) @ params["head"]
    out.logits = data_of(logits)
    if not np.isfinite(out.logits).all():
        raise NumericError("non-finite logits in forward pass")
    return logits, out


def _row_indices(n: int, selection, name: str) -> np.ndarray:
    """The rows of n that selection (indices, negative ones counting
    from the end, or a slice) picks, in its order."""
    try:
        rows = np.arange(n)[selection]
    except IndexError as exc:
        raise ContractError(f"{name} must index the {n} rows: {exc}") from exc
    if rows.ndim != 1:
        raise ContractError(f"{name} must be a list of row indices or a slice")
    return rows


def forward(
    weights: ModelWeights,
    ids: list[int] | np.ndarray,
    mask_bits: MaskRule | np.ndarray,
    cache_kv: list[tuple[np.ndarray, np.ndarray]] | None = None,
    positions: np.ndarray | None = None,
    collect_attn: bool = False,
    logit_rows: Sequence[int] | np.ndarray | slice | None = None,
    kv_rows: Sequence[int] | np.ndarray | slice | None = None,
) -> ForwardOutput:
    """Run the model over T tokens, optionally attending into cached
    keys/values. cache_kv holds per layer (K, V) of shape
    (n_heads, cached + T, head_dim), as `AnchorKVCache.stacked(T)` gives:
    its last T slots are scratch that this call fills with the new
    tokens' keys (rotary applied) and values, and attention reads the
    cached slots and the written ones in place; a cache is
    inference-only, and no gradient flows into it. mask_bits, of shape
    (T, cached + T), is read only as `mask_bits.shape` and bool
    `mask_bits[rows]`, as a `masks.MaskRule` or a bool array gives them:
    each layer reads the rows it runs, and the position rule below is
    checked for those rows. Positions are absolute and are never
    renumbered after cache reduction. Every new key a row keeps, other
    than the query itself, must lie at an earlier position: a chain's
    positions increase, and the branches of a tree may repeat positions
    where they cannot see each other. Ids outside [0, vocab_size), mask
    rows that are not bool, and positions breaking that rule in a row
    read or lying below 0 raise ContractError.

    logit_rows (row indices, negative ones counting from the end, or a
    slice; None means every row) picks the rows whose logits are
    returned, in the order given; kv_rows (the same forms; None means
    every row) the rows whose keys/values the caller keeps, which every
    layer writes into the scratch slots. Each layer runs only the rows a
    later read needs (`_layer_rows`): the last layer runs its query,
    attention, output projection and feed-forward, and the final norm
    and head, for the logit rows only, and each layer below for the rows
    whose keys/values the layer above computes. Attention reads only the
    slots a layer wrote; the others may hold anything. When every row is
    needed, as with both None, nothing is gathered. The logits, and the
    kept rows' keys/values, agree with a forward over every row to
    rounding (a smaller matmul may take another BLAS kernel). logit_rows
    may be empty only when kept keys/values go into a cache, since a
    forward must leave something to read; an out-of-range selection
    raises ContractError.

    With collect_attn, `attn` holds each layer's (n_heads, rows run, keys
    read) attention probabilities, one array per layer that runs a row,
    built from the tiles its attention ran. Otherwise no forward holds
    them past a tile (`autodiff.attention`), so a layer whose attention
    runs in tiles never holds them whole."""
    ids = np.asarray(ids, dtype=np.int64)
    if ids.size == 0:
        raise ContractError("forward needs at least one token")
    if kv_rows is not None:
        kv_rows = _row_indices(ids.size, kv_rows, "kv_rows")
    if logit_rows is not None:
        logit_rows = _row_indices(ids.size, logit_rows, "logit_rows")
        if logit_rows.size == 0 and not (cache_kv and (kv_rows is None or kv_rows.size)):
            raise ContractError(
                "logit_rows must select at least one row unless kept keys/values go into a cache"
            )
        if logit_rows.size == ids.size and logit_rows.tolist() == list(range(ids.size)):
            logit_rows = None  # every row, in order: nothing to gather
    if positions is None:
        if cache_kv:
            raise ContractError("positions are required when a cache is supplied")
        positions = np.arange(ids.size)
    else:
        positions = np.asarray(positions, dtype=np.int64)
    _, out = _forward_graph(
        weights.arrays, weights.config, ids, mask_bits, cache_kv, positions, collect_attn,
        logit_rows, kv_rows,
    )
    return out


def loss_and_grads(
    weights: ModelWeights, block: SegmentedText, mask_bits: MaskRule | np.ndarray
) -> tuple[float, dict[str, np.ndarray]]:
    """Mean next-token cross-entropy over the block and its exact gradient,
    one array per parameter name. mask_bits is the block's (L, L) mask,
    read as `forward` reads it (`mask_bits.shape` and bool rows); every
    row runs, so it is read once, whole."""
    L = len(block)
    if L < 2:
        raise ContractError("training block must contain at least 2 tokens")
    ids = np.asarray(block.ids, dtype=np.int64)
    params = {name: Tensor(a, requires_grad=True) for name, a in weights.arrays.items()}
    logits, _ = _forward_graph(params, weights.config, ids, mask_bits, None, np.arange(L), False)

    loss = cross_entropy(logits, ids[1:])
    if not np.isfinite(loss.data):
        raise NumericError("non-finite training loss")

    loss.backward()
    # every parameter feeds the loss, so backward gives each one a gradient
    return float(loss.data), {name: p.grad for name, p in params.items()}


# -- checkpoint io -----------------------------------------------------------

_CKPT_MAGIC = "anchorlm-checkpoint-v2"
_CKPT_KEYS = {f.name for f in fields(ModelConfig)} | {"vocab_sha256", "step", "payload_sha256"}
MOMENTS = ("opt.m.", "opt.v.")  # key prefixes of AdamW's first and second moments


def save_checkpoint(
    path: str | Path,
    weights: ModelWeights,
    step: int,
    vocab_sha256: str,
    opt_state: dict[str, np.ndarray] | None = None,
) -> None:
    """A text header (magic line, config fields, vocab_sha256, step,
    payload_sha256, end), then raw little-endian float64 arrays: the
    parameters in param_shapes order, then with opt_state the moments
    `opt.m.<name>` in that order, then `opt.v.<name>`. The config fixes
    the layout, so the file declares no tensors. An opt_state that lacks
    a moment raises ContractError."""
    cfg = weights.config
    names = list(param_shapes(cfg))
    arrays = [weights.arrays[name] for name in names]
    if opt_state:
        try:
            arrays += [opt_state[prefix + name] for prefix in MOMENTS for name in names]
        except KeyError as exc:
            raise ContractError(f"optimizer state lacks the moment {exc}") from None
    payload = b"".join(np.ascontiguousarray(a, dtype="<f8").tobytes() for a in arrays)
    lines = [_CKPT_MAGIC, *(f"{f.name} = {getattr(cfg, f.name)!r}" for f in fields(cfg))]
    lines += [f"vocab_sha256 = {vocab_sha256}", f"step = {step}",
              f"payload_sha256 = {hashlib.sha256(payload).hexdigest()}", "end"]
    Path(path).write_bytes(("\n".join(lines) + "\n").encode("utf-8") + payload)


def load_checkpoint(
    path: str | Path,
) -> tuple[ModelWeights, int, str, dict[str, np.ndarray]]:
    """Inverse of save_checkpoint: weights, step, vocab digest and the
    moments by name (empty if the file has none). InputError for another
    format (named in the message), a malformed header, a key given twice
    or one save_checkpoint does not write, a digest other than 64
    lowercase hex digits, a negative step, a payload of other than n or
    3n float64 values (n: the config's parameter count), or a payload
    whose sha256 is not payload_sha256."""
    try:
        blob = Path(path).read_bytes()
    except OSError as exc:
        raise InputError(f"cannot read checkpoint {path}: {exc}") from exc
    header, end, payload = blob.partition(b"\nend\n")
    magic = header.partition(b"\n")[0]
    if magic != _CKPT_MAGIC.encode() or not end:
        raise InputError(
            f"not a checkpoint file of format {_CKPT_MAGIC}: {path} begins {magic[:40]!r}"
        )
    try:
        values: dict[str, str] = {}
        for line in header.decode("utf-8").splitlines()[1:]:
            key, value = line.split(" = ", 1)
            if key not in _CKPT_KEYS:
                raise InputError(f"checkpoint {path} gives an unknown key {key!r}")
            if key in values:
                raise InputError(f"checkpoint {path} gives {key} twice")
            values[key] = value
        config = ModelConfig(**{
            f.name: (float if f.type == "float" else int)(values[f.name])
            for f in fields(ModelConfig)
        })
        step, vocab_sha256 = int(values["step"]), values["vocab_sha256"]
        payload_sha256 = values["payload_sha256"]
    except (UnicodeDecodeError, ValueError, KeyError, ContractError) as exc:
        raise InputError(f"malformed checkpoint header in {path}: {exc!r}") from exc
    if step < 0:
        raise InputError(f"checkpoint {path} gives a negative step {step}")
    for key in ("vocab_sha256", "payload_sha256"):
        if not re.fullmatch("[0-9a-f]{64}", values[key]):
            raise InputError(f"checkpoint {path}: {key} is not 64 lowercase hex digits")

    shapes = param_shapes(config)
    n = sum(math.prod(shape) for shape in shapes.values())
    if len(payload) not in (8 * n, 24 * n):
        raise InputError(
            f"checkpoint {path} holds {len(payload)} payload bytes; its config needs "
            f"{8 * n} (weights) or {24 * n} (weights and moments)"
        )
    if hashlib.sha256(payload).hexdigest() != payload_sha256:
        raise InputError(f"checkpoint {path}: the payload does not match payload_sha256")
    flat = np.frombuffer(payload, dtype="<f8")
    arrays, offset = {}, 0
    for prefix in ("", *MOMENTS)[: flat.size // n]:
        for name, shape in shapes.items():
            size = math.prod(shape)
            arrays[prefix + name] = flat[offset : offset + size].reshape(shape).copy()
            offset += size
    weights = ModelWeights(config, {name: arrays.pop(name) for name in shapes})
    return weights, step, vocab_sha256, arrays
