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
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .autodiff import Tensor, attention, cross_entropy, data_of, gelu, rmsnorm, rotate, take
from .corpus import SegmentedText
from .errors import ContractError, InputError, NumericError

Node = Tensor | np.ndarray  # what the forward helpers compute on


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
    logits: np.ndarray  # (T, vocab_size)
    attn: list[np.ndarray] = field(default_factory=list)  # per layer when requested


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


def _rope_tables(config: ModelConfig, positions: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    half = config.head_dim // 2
    inv_freq = config.rope_base ** (-np.arange(half) * 2.0 / config.head_dim)
    angles = positions[:, None] * inv_freq[None, :]  # (T, half)
    return np.cos(angles), np.sin(angles)


def _forward_graph(
    params: dict[str, Node],
    config: ModelConfig,
    ids: np.ndarray,
    mask_bits: np.ndarray,
    cache_kv: list[tuple[np.ndarray, np.ndarray]] | None,
    positions: np.ndarray,
    collect_attn: bool,
) -> tuple[Node, ForwardOutput]:
    T = len(ids)
    n_cached = cache_kv[0][0].shape[1] - T if cache_kv else 0
    if n_cached < 0 or mask_bits.shape != (T, n_cached + T):
        raise ContractError(
            f"mask shape {mask_bits.shape} does not match "
            f"(tokens={T}, cached={n_cached})"
        )
    if np.any(np.diff(positions) <= 0):
        raise ContractError("positions must be strictly increasing")
    if ids.min() < 0 or ids.max() >= config.vocab_size:
        raise ContractError(f"token ids must lie in [0, {config.vocab_size})")

    H, hd = config.n_heads, config.head_dim
    cos, sin = _rope_tables(config, positions)
    keep = mask_bits.astype(bool)[None, :, :]
    out = ForwardOutput(logits=np.empty(0))

    h = take(params["embedding"], ids)  # (T, d_model)
    for li in range(config.n_layers):
        prefix = f"layer{li}."
        p = lambda f: params[prefix + f]
        a = rmsnorm(h, p("attn_gain"), config.norm_eps)
        q = (a @ p("wq")).reshape(T, H, hd).swapaxes(0, 1)
        k = (a @ p("wk")).reshape(T, H, hd).swapaxes(0, 1)
        v = (a @ p("wv")).reshape(T, H, hd).swapaxes(0, 1)
        q = rotate(q, cos, sin)
        k = rotate(k, cos, sin)
        if cache_kv:
            k_all, v_all = cache_kv[li]
            k_all[:, n_cached:] = data_of(k)
            v_all[:, n_cached:] = data_of(v)
        else:
            k_all, v_all = k, v
        ctx, attn = attention(q, k_all, v_all, keep)
        if collect_attn:
            out.attn.append(attn)
        h = h + ctx.swapaxes(0, 1).reshape(T, config.d_model) @ p("wo")
        f = rmsnorm(h, p("ffn_gain"), config.norm_eps)
        h = h + gelu(f @ p("w1")) @ p("w2")
        if not np.all(np.isfinite(data_of(h))):
            raise NumericError(f"non-finite activations after layer {li}")

    logits = rmsnorm(h, params["final_gain"], config.norm_eps) @ params["head"]
    out.logits = data_of(logits)
    if not np.all(np.isfinite(out.logits)):
        raise NumericError("non-finite logits in forward pass")
    return logits, out


def forward(
    weights: ModelWeights,
    ids: list[int] | np.ndarray,
    mask_bits: np.ndarray,
    cache_kv: list[tuple[np.ndarray, np.ndarray]] | None = None,
    positions: np.ndarray | None = None,
    collect_attn: bool = False,
) -> ForwardOutput:
    """Run the model over T tokens, optionally attending into cached
    keys/values. cache_kv holds per layer (K, V) of shape
    (n_heads, cached + T, head_dim), as `AnchorKVCache.stacked(T)` gives:
    its last T slots are scratch that this call fills with the new
    tokens' keys (rotary applied) and values, and attention reads the
    whole view in place; a cache is inference-only, and no gradient
    flows into it. mask_bits has shape (T, cached + T); positions
    are absolute and are never renumbered after cache reduction. Ids
    outside [0, vocab_size) raise ContractError."""
    ids = np.asarray(ids, dtype=np.int64)
    if ids.size == 0:
        raise ContractError("forward needs at least one token")
    mask_bits = np.atleast_2d(np.asarray(mask_bits))
    if positions is None:
        if cache_kv:
            raise ContractError("positions are required when a cache is supplied")
        positions = np.arange(ids.size)
    else:
        positions = np.asarray(positions, dtype=np.int64)
    _, out = _forward_graph(
        weights.arrays, weights.config, ids, mask_bits, cache_kv, positions, collect_attn
    )
    return out


def loss_and_grads(
    weights: ModelWeights, block: SegmentedText, mask_bits: np.ndarray
) -> tuple[float, dict[str, np.ndarray]]:
    """Mean next-token cross-entropy over the block and its exact gradient,
    one array per parameter name."""
    L = len(block)
    if L < 2:
        raise ContractError("training block must contain at least 2 tokens")
    ids = np.asarray(block.ids, dtype=np.int64)
    params = {name: Tensor(a, requires_grad=True) for name, a in weights.arrays.items()}
    logits, _ = _forward_graph(
        params, weights.config, ids, np.asarray(mask_bits), None, np.arange(L), False
    )

    loss = cross_entropy(logits, ids[1:])
    if not np.isfinite(loss.data):
        raise NumericError("non-finite training loss")

    loss.backward()
    # every parameter feeds the loss, so backward gives each one a gradient
    return float(loss.data), {name: p.grad for name, p in params.items()}


# -- checkpoint io -----------------------------------------------------------

_CKPT_MAGIC = "anchorlm-checkpoint-v1"
_CONFIG_FIELDS = (
    "vocab_size", "n_layers", "n_heads", "d_model", "d_ff",
    "context_len", "rope_base", "norm_eps",
)


def save_checkpoint(
    path: str | Path,
    weights: ModelWeights,
    step: int,
    vocab_sha256: str,
    opt_state: dict[str, np.ndarray] | None = None,
) -> None:
    """Text manifest followed by raw little-endian float64 tensors in
    manifest-declared order: the parameters in param_shapes order, then
    the optimizer state sorted by name."""
    cfg = weights.config
    tensors = [(name, weights.arrays[name]) for name in param_shapes(cfg)]
    if opt_state:
        tensors += sorted(opt_state.items())
    lines = [_CKPT_MAGIC]
    for f in _CONFIG_FIELDS:
        lines.append(f"{f} = {getattr(cfg, f)!r}")
    lines.append(f"vocab_sha256 = {vocab_sha256}")
    lines.append(f"step = {step}")
    for name, arr in tensors:
        lines.append("tensor " + name + " " + " ".join(str(d) for d in arr.shape))
    lines.append("end")
    payload = b"".join(np.ascontiguousarray(a, dtype="<f8").tobytes() for _, a in tensors)
    Path(path).write_bytes(("\n".join(lines) + "\n").encode("utf-8") + payload)


def load_checkpoint(
    path: str | Path,
) -> tuple[ModelWeights, int, str, dict[str, np.ndarray]]:
    """Inverse of save_checkpoint. A malformed header, a payload whose
    length differs from the declared tensors, or a tensor whose shape
    does not fit the declared config raises InputError."""
    try:
        blob = Path(path).read_bytes()
    except OSError as exc:
        raise InputError(f"cannot read checkpoint {path}: {exc}") from exc
    header_end = blob.find(b"\nend\n")
    if not blob.startswith(_CKPT_MAGIC.encode()) or header_end < 0:
        raise InputError(f"not a checkpoint file: {path}")
    payload = blob[header_end + 5 :]
    try:
        header = blob[: header_end + 5].decode("utf-8").splitlines()
        fields: dict[str, str] = {}
        tensor_decls: list[tuple[str, tuple[int, ...]]] = []
        for line in header[1:-1]:
            if line.startswith("tensor "):
                name, *dims = line.split()[1:]
                tensor_decls.append((name, tuple(int(d) for d in dims)))
            else:
                key, value = line.split(" = ", 1)
                fields[key] = value
        config = ModelConfig(**{
            f: (float(fields[f]) if f in ("rope_base", "norm_eps") else int(fields[f]))
            for f in _CONFIG_FIELDS
        })
        step, vocab_sha256 = int(fields["step"]), fields["vocab_sha256"]
    except (UnicodeDecodeError, ValueError, KeyError, ContractError) as exc:
        raise InputError(f"malformed checkpoint header in {path}: {exc!r}") from exc

    sizes = [math.prod(shape) for _, shape in tensor_decls]
    if any(d < 0 for _, shape in tensor_decls for d in shape) or 8 * sum(sizes) != len(payload):
        raise InputError(
            f"checkpoint {path} holds {len(payload)} payload bytes, "
            f"but its header declares {8 * sum(sizes)}"
        )
    arrays: dict[str, np.ndarray] = {}
    offset = 0
    for (name, shape), n in zip(tensor_decls, sizes):
        arrays[name] = np.frombuffer(
            payload, dtype="<f8", count=n, offset=offset
        ).reshape(shape).copy()
        offset += n * 8

    shapes = param_shapes(config)
    for name, shape in shapes.items():
        if name not in arrays:
            raise InputError(f"checkpoint {path} is missing tensor {name}")
        if arrays[name].shape != shape:
            raise InputError(
                f"checkpoint {path}: tensor {name} has shape {arrays[name].shape}, "
                f"the config needs {shape}"
            )
    weights = ModelWeights(config, {name: arrays.pop(name) for name in shapes})
    return weights, step, vocab_sha256, arrays
