"""Minimal reverse-mode automatic differentiation over float64 numpy arrays.

A Tensor records its parents and a backward closure while some input
requires gradients. The model's composite layers are fused ops, each
one tape node with an analytic backward: `rmsnorm`, `gelu`, `rotate`
(rotary position encoding), `attention` (scores, masked softmax and the
weighted sum of values) and `cross_entropy` (the training loss). Like
`take`, they accept plain arrays or Tensors and build a node only for a
Tensor, computing the value with the same numpy ops either way, so one
forward source runs on Tensors (training) or on arrays (inference, no
Tensor built) and both agree bitwise. `attention` runs, forward and
backward, over the tiles that `tiles` plans: one over every row and key
for a small mask block, and for a large one a tile per block of query
rows, over only the key columns it keeps. The model joins the fused ops
with the only Tensor operators: `+` (equal shapes), `@` (equal leading
axes), `reshape` and `swapaxes`; neither broadcasts, since no forward
needs it. Gradient correctness is pinned down by the finite-difference
tests, not by construction.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

Array = np.ndarray

_GELU_C = math.sqrt(2.0 / math.pi)


class Tensor:
    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad: Array | None = None
        self.requires_grad = requires_grad
        self._parents: tuple[Tensor, ...] = ()
        self._backward: Callable[[Array], tuple[Array | None, ...]] | None = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    # -- graph construction -------------------------------------------------

    @staticmethod
    def _op(data: Array, parents: tuple["Tensor", ...], backward) -> "Tensor":
        out = Tensor(data)
        if any(p.requires_grad for p in parents):
            out.requires_grad = True
            out._parents = parents
            out._backward = backward
        return out

    def backward(self) -> None:
        """Backpropagate from this (scalar) tensor through the tape."""
        if self.data.size != 1:
            raise ValueError("backward() expects a scalar output")
        order: list[Tensor] = []
        seen: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                order.append(node)
                continue
            if id(node) in seen or not node.requires_grad:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                stack.append((p, False))

        self.grad = np.ones_like(self.data)
        for node in reversed(order):
            if node._backward is None or node.grad is None:
                continue
            for parent, g in zip(node._parents, node._backward(node.grad)):
                if g is None or not parent.requires_grad:
                    continue
                if parent.grad is None:
                    parent.grad = g.copy()  # g may be a view, or shared with a sibling
                else:
                    parent.grad += g

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other) -> "Tensor":
        other = ensure_tensor(other)
        if self.shape != other.shape:
            raise ValueError(f"Tensor + needs equal shapes: {self.shape}, {other.shape}")
        return Tensor._op(self.data + other.data, (self, other), lambda g: (g, g))

    def __matmul__(self, other) -> "Tensor":
        other = ensure_tensor(other)
        if self.shape[:-2] != other.shape[:-2]:
            raise ValueError(f"Tensor @ needs equal leading axes: {self.shape}, {other.shape}")
        data = self.data @ other.data

        def bwd(g):
            return g @ other.data.swapaxes(-1, -2), self.data.swapaxes(-1, -2) @ g

        return Tensor._op(data, (self, other), bwd)

    # -- shape ---------------------------------------------------------------

    def reshape(self, *shape: int) -> "Tensor":
        data = self.data.reshape(*shape)
        return Tensor._op(data, (self,), lambda g: (g.reshape(self.shape),))

    def swapaxes(self, a: int, b: int) -> "Tensor":
        data = self.data.swapaxes(a, b)
        return Tensor._op(data, (self,), lambda g: (g.swapaxes(a, b),))


def ensure_tensor(value) -> Tensor:
    return value if isinstance(value, Tensor) else Tensor(value)


def data_of(value: Tensor | Array) -> Array:
    """The array behind a Tensor, or the array itself."""
    return value.data if isinstance(value, Tensor) else value


def take(tensor: Tensor | Array, indices: np.ndarray) -> Tensor | Array:
    """Row gather along axis 0 (embedding lookup)."""
    indices = np.asarray(indices, dtype=np.int64)
    if not isinstance(tensor, Tensor):
        return tensor[indices]
    data = tensor.data[indices]

    def bwd(g):
        buf = np.zeros_like(tensor.data)
        np.add.at(buf, indices, g)
        return (buf,)

    return Tensor._op(data, (tensor,), bwd)


def rmsnorm(x: Tensor | Array, gain: Tensor | Array, eps: float) -> Tensor | Array:
    """x / sqrt(mean(x * x) + eps) * gain over the last axis, for x of
    shape (rows, d) and gain of shape (d,)."""
    xd = data_of(x)
    scale = ((xd * xd).sum(axis=-1, keepdims=True) * (1.0 / xd.shape[-1]) + eps) ** -0.5
    normed = xd * scale
    data = normed * data_of(gain)
    if not (isinstance(x, Tensor) or isinstance(gain, Tensor)):
        return data
    x, gain = ensure_tensor(x), ensure_tensor(gain)

    def bwd(g):
        u = g * gain.data
        centred = u - normed * ((u * normed).sum(axis=-1, keepdims=True) * (1.0 / xd.shape[-1]))
        return scale * centred, (g * normed).sum(axis=0)

    return Tensor._op(data, (x, gain), bwd)


def gelu(x: Tensor | Array) -> Tensor | Array:
    """GELU, tanh approximation."""
    xd = data_of(x)
    t = np.tanh(_GELU_C * (xd + 0.044715 * (xd * xd * xd)))
    data = 0.5 * xd * (1.0 + t)
    if not isinstance(x, Tensor):
        return data

    def bwd(g):
        inner_grad = _GELU_C * (1.0 + 3 * 0.044715 * (xd * xd))
        return (g * (0.5 * (1.0 + t) + 0.5 * xd * (1.0 - t * t) * inner_grad),)

    return Tensor._op(data, (x,), bwd)


def _swap_halves(a: Array) -> Array:
    half = a.shape[-1] // 2
    return np.concatenate((a[..., half:], a[..., :half]), axis=-1)


def rotate(x: Tensor | Array, cos: Array, sin: Array) -> Tensor | Array:
    """Rotary encoding: turn each pair (x[..., i], x[..., half + i]) by its
    angle. cos and sin are (..., head_dim) rows [cos, cos] and [-sin, sin]
    of the angles, gathered by position (`model._rope_tables`), so the
    rotation is swap(x) * sin + x * cos, where swap exchanges the two
    halves: per element the same IEEE operations as x1 cos - x2 sin and
    x1 sin + x2 cos. The backward is the inverse rotation,
    g * cos - swap(g) * sin."""
    xd = data_of(x)
    data = _swap_halves(xd)
    data *= sin
    data += xd * cos
    if not isinstance(x, Tensor):
        return data

    def bwd(g):
        swapped = _swap_halves(g)
        swapped *= sin
        out = g * cos
        out -= swapped
        return (out,)

    return Tensor._op(data, (x,), bwd)


# Attention runs in tiles of TILE_ROWS query rows once its keep block
# holds TILE_MIN_PAIRS (row, key) pairs; smaller calls are one tile.
TILE_ROWS = 32
TILE_MIN_PAIRS = 65_536


def tiles(keep: Array) -> list[tuple[slice, Array | slice]]:
    """The plan of `attention`, (rows, cols) per tile. Below
    TILE_MIN_PAIRS (row, key) pairs one tile of every row and every key;
    from there on one per TILE_ROWS query rows, whose cols are the key
    columns any of its rows keeps, or every column, as slice(None), when
    those are at least half of them (a gather would save little)."""
    n_rows, n_keys = keep.shape[-2:]
    if n_rows * n_keys < TILE_MIN_PAIRS:
        return [(slice(None), slice(None))]
    out = []
    for start in range(0, n_rows, TILE_ROWS):
        rows = slice(start, start + TILE_ROWS)
        cols = np.flatnonzero(keep[..., rows, :].reshape(-1, n_keys).any(axis=0))
        out.append((rows, slice(None) if 2 * len(cols) >= n_keys else cols))
    return out


def _softmax(scores: Array, keep: Array, scale: float) -> Array:
    """The masked softmax of `attention`, in place in scores."""
    scores *= scale
    scores -= np.maximum.reduce(scores, axis=-1, keepdims=True, where=keep, initial=-np.inf)
    np.minimum(scores, 0.0, out=scores)
    np.exp(scores, out=scores)
    scores *= keep
    scores /= scores.sum(axis=-1, keepdims=True)
    return scores


def _tile_probs(qd: Array, kd: Array, keep: Array, scale: float):
    """(rows, cols, probabilities) per tile of `tiles(keep)`, each tile's
    probabilities (..., tile rows, len(cols)) computed into the output
    of its scores' matmul."""
    for rows, cols in tiles(keep):
        scores = qd[..., rows, :] @ kd[..., cols, :].swapaxes(-1, -2)
        yield rows, cols, _softmax(scores, keep[..., rows, cols], scale)


def attention(
    q: Tensor | Array, k: Tensor | Array, v: Tensor | Array, keep: Array
) -> Tensor | Array:
    """softmax(q k^T / sqrt(d)) v per head, with the softmax renormalized
    over kept keys only; masked keys contribute 0.

    q is (..., T, d), k and v are (..., S, d), keep is a bool (T, S) mask
    broadcast over the leading axes. Every row keeps at least the self
    bit, so the denominator is positive. The row max over kept keys is
    subtracted as a constant for stability (softmax is shift-invariant),
    and the shifted scores are clamped at 0 before the exp, so a masked
    key scoring far above that max cannot overflow to inf (inf * 0 would
    turn the row into NaN); kept keys are never above 0 there. Returns
    the context (..., T, d). The backward uses
    dS = P * (dP - rowsum(dP * P)), as in FlashAttention (Dao et al.,
    2022).

    One forward loop and one backward loop run over the tiles of
    `tiles(keep)`, each over only the key columns its rows keep, as
    FlexAttention's block mask skips masked blocks (Dong et al., 2024).
    Each tile's scores are turned into probabilities in the matmul's
    output, each step the same IEEE operation on the same operands as
    the composed expression (scale, subtract the masked row max, clamp,
    exp, zero the masked keys, divide by the row sum); the masked max
    reads `keep` through `where=`, with no masked copy of the scores. So
    below TILE_MIN_PAIRS (row, key) pairs, one tile, the call holds one
    (..., T, S) buffer and its result is bitwise that expression's. The
    masked keys a row tile skips add exact zeros to the one tile's sums,
    so row tiles agree with it to rounding, not bitwise. A taped call
    keeps each tile's probabilities for its backward; an untaped one
    keeps none past its tile.
    """
    qd, kd, vd = data_of(q), data_of(k), data_of(v)
    scale = 1.0 / math.sqrt(qd.shape[-1])
    taped = isinstance(q, Tensor) or isinstance(k, Tensor) or isinstance(v, Tensor)
    data = np.empty(qd.shape[:-1] + vd.shape[-1:])
    held = []
    for rows, cols, p in _tile_probs(qd, kd, keep, scale):
        np.matmul(p, vd[..., cols, :], out=data[..., rows, :])
        if taped:
            held.append((rows, cols, p))
    if not taped:
        return data
    q, k, v = ensure_tensor(q), ensure_tensor(k), ensure_tensor(v)

    def bwd(g):
        dq, dk, dv = np.empty_like(qd), np.zeros_like(kd), np.zeros_like(vd)
        for rows, cols, p in held:
            gt = g[..., rows, :]
            dp = gt @ vd[..., cols, :].swapaxes(-1, -2)
            ds = p * (dp - (dp * p).sum(axis=-1, keepdims=True)) * scale
            dq[..., rows, :] = ds @ kd[..., cols, :]
            dk[..., cols, :] += ds.swapaxes(-1, -2) @ qd[..., rows, :]
            dv[..., cols, :] += p.swapaxes(-1, -2) @ gt
        return dq, dk, dv

    return Tensor._op(data, (q, k, v), bwd)


def attention_probs(q: Tensor | Array, k: Tensor | Array, keep: Array) -> Array:
    """The (..., T, S) probabilities `attention` weighs the values by,
    from the same tiles, zero at the keys no tile reads."""
    qd, kd = data_of(q), data_of(k)
    out = np.zeros(qd.shape[:-1] + kd.shape[-2:-1])
    for rows, cols, p in _tile_probs(qd, kd, keep, 1.0 / math.sqrt(qd.shape[-1])):
        out[..., rows, cols] = p
    return out


def cross_entropy(logits: Tensor | Array, targets: np.ndarray) -> Tensor | Array:
    """Mean over t of -log softmax(logits[t])[targets[t]], a scalar.

    logits is (N, V) with N >= len(targets); rows past len(targets) are
    not scored (next-token training has no target for the last
    position). The backward is (softmax - onehot) / len(targets).
    """
    targets = np.asarray(targets, dtype=np.int64)
    n = len(targets)
    rows = np.arange(n)
    pred = data_of(logits)[:n]
    shifted = pred - pred.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    z = e.sum(axis=-1, keepdims=True)
    data = -((shifted[rows, targets] - np.log(z).reshape(n)).sum() * (1.0 / n))
    if not isinstance(logits, Tensor):
        return data

    def bwd(g):
        grad = np.zeros_like(logits.data)
        grad[:n] = e / z
        grad[rows, targets] -= 1.0
        grad[:n] *= g * (1.0 / n)
        return (grad,)

    return Tensor._op(data, (logits,), bwd)
