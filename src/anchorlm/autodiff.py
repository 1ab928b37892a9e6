"""Minimal reverse-mode automatic differentiation over float64 numpy arrays.

A Tensor records its parents and a backward closure while some input
requires gradients. The model's composite layers are fused ops, each
one tape node with an analytic backward: `rmsnorm`, `gelu`, `rotate`
(rotary position encoding), `attention` (scores, masked softmax and the
weighted sum of values) and `cross_entropy` (the training loss). Like
`take`, they accept plain arrays or Tensors and build a node only for a
Tensor, computing the value with the same numpy ops either way, so one
forward source runs on Tensors (training) or on arrays (inference, no
Tensor built) and both agree bitwise. The model joins the fused ops
with the Tensor operators `+`, `@`, `reshape` and `swapaxes`; `-`, `*`
and `sum` complete the elementwise algebra. Gradient correctness is
pinned down by the finite-difference tests, not by construction.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

Array = np.ndarray

_GELU_C = math.sqrt(2.0 / math.pi)


def _unbroadcast(grad: Array, shape: tuple[int, ...]) -> Array:
    """Sum grad over axes that were broadcast to reach grad's shape."""
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for axis, size in enumerate(shape):
        if size == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad


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
        data = self.data + other.data

        def bwd(g):
            return _unbroadcast(g, self.shape), _unbroadcast(g, other.shape)

        return Tensor._op(data, (self, other), bwd)

    __radd__ = __add__

    def __sub__(self, other) -> "Tensor":
        other = ensure_tensor(other)
        data = self.data - other.data

        def bwd(g):
            return _unbroadcast(g, self.shape), _unbroadcast(-g, other.shape)

        return Tensor._op(data, (self, other), bwd)

    def __rsub__(self, other) -> "Tensor":
        return ensure_tensor(other) - self

    def __mul__(self, other) -> "Tensor":
        other = ensure_tensor(other)
        data = self.data * other.data

        def bwd(g):
            return (
                _unbroadcast(g * other.data, self.shape),
                _unbroadcast(g * self.data, other.shape),
            )

        return Tensor._op(data, (self, other), bwd)

    __rmul__ = __mul__

    def __neg__(self) -> "Tensor":
        return Tensor._op(-self.data, (self,), lambda g: (-g,))

    def __matmul__(self, other) -> "Tensor":
        other = ensure_tensor(other)
        data = self.data @ other.data

        def bwd(g):
            ga = _unbroadcast(g @ other.data.swapaxes(-1, -2), self.shape)
            gb = _unbroadcast(self.data.swapaxes(-1, -2) @ g, other.shape)
            return ga, gb

        return Tensor._op(data, (self, other), bwd)

    # -- reductions / shape ----------------------------------------------------

    def sum(self, axis=None, keepdims: bool = False) -> "Tensor":
        data = self.data.sum(axis=axis, keepdims=keepdims)

        def bwd(g):
            if axis is not None and not keepdims:
                g = np.expand_dims(g, axis)
            return (np.broadcast_to(g, self.shape).copy(),)

        return Tensor._op(data, (self,), bwd)

    def reshape(self, *shape: int) -> "Tensor":
        data = self.data.reshape(*shape)
        return Tensor._op(data, (self,), lambda g: (g.reshape(self.shape),))

    def swapaxes(self, a: int, b: int) -> "Tensor":
        data = self.data.swapaxes(a, b)
        return Tensor._op(data, (self,), lambda g: (g.swapaxes(a, b),))

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"


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
    """x / sqrt(mean(x * x) + eps) * gain over the last axis."""
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
        return scale * centred, _unbroadcast(g * normed, gain.shape)

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


def rotate(x: Tensor | Array, cos: Array, sin: Array) -> Tensor | Array:
    """Rotary encoding: turn each pair (x[..., i], x[..., half + i]) by the
    angle whose cosine and sine are cos[..., i] and sin[..., i]. The
    backward is the inverse rotation."""
    xd = data_of(x)
    half = xd.shape[-1] // 2
    x1, x2 = xd[..., :half], xd[..., half:]
    data = np.concatenate([x1 * cos - x2 * sin, x1 * sin + x2 * cos], axis=-1)
    if not isinstance(x, Tensor):
        return data

    def bwd(g):
        g1, g2 = g[..., :half], g[..., half:]
        return (np.concatenate([g1 * cos + g2 * sin, g2 * cos - g1 * sin], axis=-1),)

    return Tensor._op(data, (x,), bwd)


def attention(
    q: Tensor | Array, k: Tensor | Array, v: Tensor | Array, keep: Array
) -> tuple[Tensor | Array, Array]:
    """softmax(q k^T / sqrt(d)) v per head, with the softmax renormalized
    over kept keys only; masked keys contribute 0.

    q is (..., T, d), k and v are (..., S, d), keep is a bool (T, S) mask
    broadcast over the leading axes. Every row keeps at least the self
    bit, so the denominator is positive. The row max over kept keys is
    subtracted as a constant for stability (softmax is shift-invariant).
    Returns the context (..., T, d) and the probabilities (..., T, S), an
    array. The backward uses dS = P * (dP - rowsum(dP * P)), as in
    FlashAttention (Dao et al., 2022).
    """
    qd, kd, vd = data_of(q), data_of(k), data_of(v)
    scale = 1.0 / math.sqrt(qd.shape[-1])
    scores = (qd @ kd.swapaxes(-1, -2)) * scale
    rowmax = np.max(np.where(keep, scores, -np.inf), axis=-1, keepdims=True)
    e = np.exp(scores - rowmax) * keep
    probs = e / e.sum(axis=-1, keepdims=True)
    data = probs @ vd
    if not (isinstance(q, Tensor) or isinstance(k, Tensor) or isinstance(v, Tensor)):
        return data, probs
    q, k, v = ensure_tensor(q), ensure_tensor(k), ensure_tensor(v)

    def bwd(g):
        dp = g @ vd.swapaxes(-1, -2)
        ds = probs * (dp - (dp * probs).sum(axis=-1, keepdims=True)) * scale
        return ds @ kd, ds.swapaxes(-1, -2) @ qd, probs.swapaxes(-1, -2) @ g

    return Tensor._op(data, (q, k, v), bwd), probs


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
