"""Finite-difference checks for every autodiff op; the fused ops' array
path is pinned bitwise to the composed expression it replaced."""

import math

import numpy as np
import pytest

from anchorlm.autodiff import (
    Tensor, attention, cross_entropy, gelu, rmsnorm, rotate, take,
)
from oracles import finite_difference_grads


def check_op(build_loss, arrays, tol=1e-6):
    """build_loss(tensors) -> scalar Tensor; compare backward grads to
    central differences of the same expression."""
    tensors = {k: Tensor(v, requires_grad=True) for k, v in arrays.items()}
    loss = build_loss(tensors)
    loss.backward()

    def loss_value():
        plain = {k: Tensor(t.data) for k, t in tensors.items()}
        return float(build_loss(plain).data)

    fd = finite_difference_grads(
        loss_value, {k: t.data for k, t in tensors.items()}, step=1e-5
    )
    for name, t in tensors.items():
        np.testing.assert_allclose(t.grad, fd[name], rtol=tol, atol=1e-7)


def sq(t):
    return t * t


@pytest.fixture
def rng():
    return np.random.default_rng(0)


def test_add_broadcast(rng):
    check_op(
        lambda t: sq(t["a"] + t["b"]).sum(),
        {"a": rng.normal(size=(3, 4)), "b": rng.normal(size=(4,))},
    )


def test_sub_rsub(rng):
    check_op(
        lambda t: ((1.0 - t["a"]) * (t["a"] - 2.0)).sum(),
        {"a": rng.normal(size=(5,))},
    )


def test_mul_broadcast(rng):
    check_op(
        lambda t: (t["a"] * t["b"]).sum(),
        {"a": rng.normal(size=(2, 3, 4)), "b": rng.normal(size=(3, 4))},
    )


def test_matmul_2d(rng):
    check_op(
        lambda t: sq(t["a"] @ t["b"]).sum(),
        {"a": rng.normal(size=(3, 4)), "b": rng.normal(size=(4, 2))},
    )


def test_matmul_batched(rng):
    check_op(
        lambda t: sq(t["a"] @ t["b"]).sum(),
        {"a": rng.normal(size=(2, 3, 4)), "b": rng.normal(size=(2, 4, 5))},
    )


def test_sum_axis_keepdims(rng):
    check_op(
        lambda t: (t["a"].sum(axis=1, keepdims=True) * t["a"]).sum(),
        {"a": rng.normal(size=(3, 5))},
    )


def test_reshape_swapaxes(rng):
    check_op(
        lambda t: sq(t["a"].reshape(4, 2, 3).swapaxes(0, 1)).sum(),
        {"a": rng.normal(size=(8, 3))},
    )


def test_take_rows_with_duplicates(rng):
    idx = np.array([0, 2, 0, 1])
    check_op(
        lambda t: sq(take(t["emb"], idx)).sum(),
        {"emb": rng.normal(size=(3, 4))},
    )


def test_neg(rng):
    check_op(lambda t: (-t["a"] * t["a"]).sum(), {"a": rng.normal(size=(4,))})


def test_no_tape_without_requires_grad():
    a = Tensor(np.ones((2, 2)))
    b = Tensor(np.ones((2, 2)))
    out = (a @ b) + a * b
    assert not out.requires_grad
    assert out._parents == ()


def test_backward_requires_scalar():
    a = Tensor(np.ones(3), requires_grad=True)
    with pytest.raises(ValueError):
        (a * 2).backward()


def test_grad_accumulates_across_reuse(rng):
    # y = a*a + a  =>  dy/da = 2a + 1
    a = Tensor(np.array([2.0, -1.0]), requires_grad=True)
    ((a * a) + a).sum().backward()
    np.testing.assert_allclose(a.grad, 2 * a.data + 1)


def test_parents_do_not_share_grad_buffers(rng):
    # + hands one gradient array to both parents; a parent that kept it
    # without a copy would add its later inputs into its sibling's grad
    def build(t):
        p, n = t["a"] * 2.0, t["a"] * 3.0
        return ((p + n) + p * n).sum()

    check_op(build, {"a": rng.normal(size=(3,))})


# -- fused ops ------------------------------------------------------------------

EPS = 1e-5
GELU_C = math.sqrt(2.0 / math.pi)


def weighted(out, w):
    """A scalar that weighs every output element differently."""
    return (out * w).sum()


def rope(rng, tokens, half):
    angles = rng.normal(size=(tokens, half))
    return np.cos(angles), np.sin(angles)


def sparse_keep(rng, tokens, cached):
    """Causal rows over cached + tokens keys with random holes, the self
    bit always kept; rows 0 and 2 keep only the self bit."""
    keys = cached + tokens
    keep = np.tril(np.ones((tokens, keys), dtype=bool), k=cached)
    keep &= rng.random((tokens, keys)) < 0.6
    keep[[0, 2]] = False
    keep[np.arange(tokens), cached + np.arange(tokens)] = True
    return keep


def test_rmsnorm_grad(rng):
    w = rng.normal(size=(3, 5))
    check_op(
        lambda t: weighted(rmsnorm(t["x"], t["gain"], EPS), w),
        {"x": rng.normal(size=(3, 5)), "gain": rng.normal(size=(5,))},
    )


def test_gelu_grad(rng):
    w = rng.normal(size=(4, 6))
    check_op(lambda t: weighted(gelu(t["x"]), w), {"x": 2.0 * rng.normal(size=(4, 6))})


def test_rotate_grad(rng):
    cos, sin = rope(rng, 3, 3)
    w = rng.normal(size=(2, 3, 6))
    check_op(lambda t: weighted(rotate(t["x"], cos, sin), w), {"x": rng.normal(size=(2, 3, 6))})


def test_attention_grad_with_self_only_rows(rng):
    keep = sparse_keep(rng, tokens=4, cached=2)
    assert keep[0].sum() == keep[2].sum() == 1
    w = rng.normal(size=(2, 4, 4))
    check_op(
        lambda t: weighted(attention(t["q"], t["k"], t["v"], keep)[0], w),
        {"q": rng.normal(size=(2, 4, 4)), "k": rng.normal(size=(2, 6, 4)),
         "v": rng.normal(size=(2, 6, 4))},
    )


def test_cross_entropy_grad_leaves_unscored_rows_at_zero(rng):
    targets = np.array([2, 0, 4, 4])
    logits = Tensor(rng.normal(size=(5, 6)), requires_grad=True)
    cross_entropy(logits, targets).backward()
    assert not logits.grad[4].any()
    check_op(lambda t: cross_entropy(t["logits"], targets), {"logits": logits.data})


def composed_rmsnorm(x, gain):
    return x * ((x * x).sum(axis=-1, keepdims=True) * (1.0 / x.shape[-1]) + EPS) ** -0.5 * gain


def composed_gelu(x):
    return 0.5 * x * (1.0 + np.tanh(GELU_C * (x + 0.044715 * (x * x * x))))


def composed_rotate(x, cos, sin):
    half = x.shape[-1] // 2
    x1, x2 = x[:, :, :half], x[:, :, half:]
    return np.concatenate([x1 * cos - x2 * sin, x1 * sin + x2 * cos], axis=-1)


def composed_attention(q, k, v, keep):
    scores = (q @ k.swapaxes(-1, -2)) * (1.0 / math.sqrt(q.shape[-1]))
    rowmax = np.max(np.where(keep, scores, -np.inf), axis=-1, keepdims=True)
    e = np.exp(scores - rowmax) * keep
    probs = e / e.sum(axis=-1, keepdims=True)
    return probs @ v, probs


def composed_cross_entropy(logits, targets):
    n = len(targets)
    pred = logits[:-1]
    shifted = pred - pred.max(axis=-1, keepdims=True)
    log_z = np.log(np.exp(shifted).sum(axis=-1, keepdims=True)).reshape(n)
    return -((shifted[np.arange(n), targets] - log_z).sum() * (1.0 / n))


def fused_cases(rng):
    """name -> (fused op, composed expression, differentiable inputs,
    other inputs), at the shapes the model uses them."""
    cos, sin = rope(rng, 5, 4)
    return {
        "rmsnorm": (lambda x, g: rmsnorm(x, g, EPS), composed_rmsnorm,
                    [rng.normal(size=(5, 8)), rng.normal(size=(8,))], []),
        "gelu": (gelu, composed_gelu, [3.0 * rng.normal(size=(5, 8))], []),
        "rotate": (rotate, composed_rotate, [rng.normal(size=(2, 5, 8))], [cos, sin]),
        "attention": (attention, composed_attention,
                      [rng.normal(size=(2, 5, 8)), rng.normal(size=(2, 7, 8)),
                       rng.normal(size=(2, 7, 8))], [sparse_keep(rng, 5, 2)[None]]),
        "cross_entropy": (cross_entropy, composed_cross_entropy,
                          [rng.normal(size=(6, 9))], [rng.integers(0, 9, 5)]),
    }


def outputs(value):
    parts = value if isinstance(value, tuple) else (value,)
    return [p.data if isinstance(p, Tensor) else np.asarray(p) for p in parts]


@pytest.mark.parametrize("name", ["rmsnorm", "gelu", "rotate", "attention", "cross_entropy"])
def test_fused_op_matches_composed_expression_bitwise(rng, name):
    fused, composed, diff_inputs, other = fused_cases(rng)[name]
    want = outputs(composed(*diff_inputs, *other))
    got = outputs(fused(*diff_inputs, *other))
    assert not any(isinstance(part, Tensor) for part in got)
    tensors = [Tensor(a, requires_grad=True) for a in diff_inputs]
    taped = fused(*tensors, *other)
    node = taped[0] if isinstance(taped, tuple) else taped
    assert isinstance(node, Tensor) and node.requires_grad
    for values in (got, outputs(taped)):
        assert len(values) == len(want)
        assert all(np.array_equal(a, b) for a, b in zip(values, want))
