"""Minimal reverse-mode automatic differentiation over float64 numpy arrays.

A Tensor records its parents and a backward closure while some input
requires gradients. Its operators also work on plain arrays, and `exp`,
`tanh`, `concat`, `take` and `data_of` build a node only for a Tensor, so
one forward source runs on Tensors (training) or on arrays (inference, no
Tensor built). Gradient correctness is pinned down by the
finite-difference tests, not by construction.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

Array = np.ndarray


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
                    parent.grad = np.zeros_like(parent.data)
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

    def __truediv__(self, other) -> "Tensor":
        other = ensure_tensor(other)
        data = self.data / other.data

        def bwd(g):
            return (
                _unbroadcast(g / other.data, self.shape),
                _unbroadcast(-g * self.data / (other.data * other.data), other.shape),
            )

        return Tensor._op(data, (self, other), bwd)

    def __neg__(self) -> "Tensor":
        return Tensor._op(-self.data, (self,), lambda g: (-g,))

    def __pow__(self, exponent: float) -> "Tensor":
        data = self.data**exponent

        def bwd(g):
            return (g * exponent * self.data ** (exponent - 1),)

        return Tensor._op(data, (self,), bwd)

    def __matmul__(self, other) -> "Tensor":
        other = ensure_tensor(other)
        data = self.data @ other.data

        def bwd(g):
            ga = _unbroadcast(g @ other.data.swapaxes(-1, -2), self.shape)
            gb = _unbroadcast(self.data.swapaxes(-1, -2) @ g, other.shape)
            return ga, gb

        return Tensor._op(data, (self, other), bwd)

    # -- elementwise functions ------------------------------------------------

    def exp(self) -> "Tensor":
        data = np.exp(self.data)
        return Tensor._op(data, (self,), lambda g: (g * data,))

    def log(self) -> "Tensor":
        return Tensor._op(np.log(self.data), (self,), lambda g: (g / self.data,))

    def tanh(self) -> "Tensor":
        data = np.tanh(self.data)
        return Tensor._op(data, (self,), lambda g: (g * (1.0 - data * data),))

    # -- reductions / shape ----------------------------------------------------

    def sum(self, axis=None, keepdims: bool = False) -> "Tensor":
        data = self.data.sum(axis=axis, keepdims=keepdims)

        def bwd(g):
            if axis is not None and not keepdims:
                g = np.expand_dims(g, axis)
            return (np.broadcast_to(g, self.shape).copy(),)

        return Tensor._op(data, (self,), bwd)

    def mean(self, axis=None, keepdims: bool = False) -> "Tensor":
        count = self.data.size if axis is None else self.data.shape[axis]
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / count)

    def reshape(self, *shape: int) -> "Tensor":
        data = self.data.reshape(*shape)
        return Tensor._op(data, (self,), lambda g: (g.reshape(self.shape),))

    def swapaxes(self, a: int, b: int) -> "Tensor":
        data = self.data.swapaxes(a, b)
        return Tensor._op(data, (self,), lambda g: (g.swapaxes(a, b),))

    def __getitem__(self, index) -> "Tensor":
        data = self.data[index]

        def bwd(g):
            buf = np.zeros_like(self.data)
            np.add.at(buf, index, g)
            return (buf,)

        return Tensor._op(data, (self,), bwd)

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"


def ensure_tensor(value) -> Tensor:
    return value if isinstance(value, Tensor) else Tensor(value)


def data_of(value: Tensor | Array) -> Array:
    """The array behind a Tensor, or the array itself."""
    return value.data if isinstance(value, Tensor) else value


def exp(x: Tensor | Array) -> Tensor | Array:
    return x.exp() if isinstance(x, Tensor) else np.exp(x)


def tanh(x: Tensor | Array) -> Tensor | Array:
    return x.tanh() if isinstance(x, Tensor) else np.tanh(x)


def concat(tensors: Sequence[Tensor | Array], axis: int = -1) -> Tensor | Array:
    """Join along axis; a node only when some part is a Tensor."""
    if not any(isinstance(t, Tensor) for t in tensors):
        return np.concatenate(tensors, axis=axis)
    tensors = [ensure_tensor(t) for t in tensors]
    data = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.data.shape[axis] for t in tensors]

    def bwd(g):
        splits = np.split(g, np.cumsum(sizes)[:-1], axis=axis)
        return tuple(splits)

    return Tensor._op(data, tuple(tensors), bwd)


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


def take_pairs(tensor: Tensor, rows: np.ndarray, cols: np.ndarray) -> Tensor:
    """Gather tensor[rows[t], cols[t]] for each t (log-prob selection)."""
    rows = np.asarray(rows, dtype=np.int64)
    cols = np.asarray(cols, dtype=np.int64)
    data = tensor.data[rows, cols]

    def bwd(g):
        buf = np.zeros_like(tensor.data)
        np.add.at(buf, (rows, cols), g)
        return (buf,)

    return Tensor._op(data, (tensor,), bwd)
