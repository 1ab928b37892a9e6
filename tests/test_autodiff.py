"""Finite-difference checks for every autodiff op; the fused ops' array
path is pinned bitwise to the composed expression it replaced."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from anchorlm import autodiff
from anchorlm.autodiff import (
    Tensor, attention, attention_probs, cross_entropy, gelu, rmsnorm, rotate, take, tiles,
)
from conftest import traced_peak
from oracles import finite_difference_grads


def check_op(build_loss, arrays, tol=1e-6):
    """build_loss(tensors) -> scalar Tensor; compare backward grads to
    central differences of the same expression."""
    tensors = {k: Tensor(v, requires_grad=True) for k, v in arrays.items()}
    loss = build_loss(tensors)
    loss.backward()

    def loss_value():
        plain = {k: Tensor(t.data) for k, t in tensors.items()}
        return build_loss(plain).data.item()

    fd = finite_difference_grads(
        loss_value, {k: t.data for k, t in tensors.items()}, step=1e-5
    )
    for name, t in tensors.items():
        np.testing.assert_allclose(t.grad, fd[name], rtol=tol, atol=1e-7)


def weighted(out, w):
    """A (1, 1) scalar that weighs every output element differently, made
    of the Tensor operators the model uses."""
    return out.reshape(1, -1) @ Tensor(w.reshape(-1, 1))


@pytest.fixture
def rng():
    return np.random.default_rng(0)


def test_add_broadcast(rng):
    # no Tensor operator broadcasts: a broadcast would otherwise get a
    # gradient of the wrong shape. test_rmsnorm_grad covers the gain's row sum
    a, b = Tensor(rng.normal(size=(3, 4))), Tensor(rng.normal(size=(4,)))
    with pytest.raises(ValueError, match="equal shapes"):
        a + b
    a, b = Tensor(rng.normal(size=(2, 3, 4))), Tensor(rng.normal(size=(4, 5)))
    with pytest.raises(ValueError, match="equal leading axes"):
        a @ b


def test_matmul_2d(rng):
    w = rng.normal(size=(3, 2))
    check_op(
        lambda t: weighted(t["a"] @ t["b"], w),
        {"a": rng.normal(size=(3, 4)), "b": rng.normal(size=(4, 2))},
    )


def test_matmul_batched(rng):
    w = rng.normal(size=(2, 3, 5))
    check_op(
        lambda t: weighted(t["a"] @ t["b"], w),
        {"a": rng.normal(size=(2, 3, 4)), "b": rng.normal(size=(2, 4, 5))},
    )


def test_reshape_swapaxes(rng):
    w = rng.normal(size=(2, 4, 3))
    check_op(
        lambda t: weighted(t["a"].reshape(4, 2, 3).swapaxes(0, 1), w),
        {"a": rng.normal(size=(8, 3))},
    )


def test_take_rows_with_duplicates(rng):
    idx = np.array([0, 2, 0, 1])
    w = rng.normal(size=(4, 4))
    check_op(
        lambda t: weighted(take(t["emb"], idx), w),
        {"emb": rng.normal(size=(3, 4))},
    )


def test_no_tape_without_requires_grad():
    a = Tensor(np.ones((2, 2)))
    b = Tensor(np.ones((2, 2)))
    out = (a @ b) + a
    assert not out.requires_grad
    assert out._parents == ()


def test_backward_requires_scalar():
    a = Tensor(np.ones(3), requires_grad=True)
    with pytest.raises(ValueError):
        (a + a).backward()


def test_grad_accumulates_across_reuse(rng):
    # y = a . (a + c)  =>  dy/da = 2a + c
    a = Tensor(np.array([2.0, -1.0]), requires_grad=True)
    c = np.array([0.5, 3.0])
    (a.reshape(1, -1) @ (a.reshape(-1, 1) + Tensor(c.reshape(-1, 1)))).backward()
    np.testing.assert_allclose(a.grad, 2 * a.data + c)


def test_parents_do_not_share_grad_buffers(rng):
    # + hands one gradient array to both parents; a parent that kept it
    # without a copy would add its later inputs into its sibling's grad
    b1, b2, w = rng.normal(size=(3, 3)), rng.normal(size=(3, 3)), rng.normal(size=(1, 3))

    def build(t):
        p, n = t["a"].reshape(1, 3) @ Tensor(b1), t["a"].reshape(1, 3) @ Tensor(b2)
        return weighted(p + n, w) + p @ n.reshape(3, 1)

    check_op(build, {"a": rng.normal(size=(3,))})


# -- fused ops ------------------------------------------------------------------

EPS = 1e-5
GELU_C = math.sqrt(2.0 / math.pi)


def rope(rng, tokens, half):
    """`rotate`'s tables of random angles: [cos, cos] and [-sin, sin]."""
    angles = rng.normal(size=(tokens, half))
    c, s = np.cos(angles), np.sin(angles)
    return np.concatenate([c, c], axis=-1), np.concatenate([-s, s], axis=-1)


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
        lambda t: weighted(attention(t["q"], t["k"], t["v"], keep), w),
        {"q": rng.normal(size=(2, 4, 4)), "k": rng.normal(size=(2, 6, 4)),
         "v": rng.normal(size=(2, 6, 4))},
    )


@pytest.mark.parametrize("taped", [False, True])
def test_attention_masked_key_far_above_kept_max_stays_finite(taped):
    # the masked key scores ~2546 above the kept one: exp of that overflows
    q = np.array([[[-30.0, -30.0]]])
    k = np.array([[[30.0, 30.0], [-30.0, -30.0]]])
    v = np.array([[[1.0, 2.0], [5.0, 7.0]]])
    keep = np.array([[True, False]])
    if taped:
        q, k, v = (Tensor(a, requires_grad=True) for a in (q, k, v))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        ctx, probs = attention(q, k, v, keep), attention_probs(q, k, keep)
    assert np.array_equal(probs, [[[1.0, 0.0]]])
    assert np.array_equal(outputs(ctx)[0], [[[1.0, 2.0]]])


def test_attention_holds_one_score_buffer(rng):
    # scores turn into probabilities inside the matmul's output, so a call
    # below TILE_MIN_PAIRS, one tile, allocates one (H, T, S) float64
    # array, not one per softmax step
    heads, tokens = 4, math.isqrt(autodiff.TILE_MIN_PAIRS - 1)
    q, k, v = (rng.normal(size=(heads, tokens, 16)) for _ in range(3))
    keep = np.tril(np.ones((tokens, tokens), dtype=bool))
    assert tiles(keep) == [(slice(None), slice(None))]
    peak = traced_peak(lambda: attention(q, k, v, keep))
    assert peak <= 1.25 * heads * tokens * tokens * 8


@settings(max_examples=150, derandomize=True, database=None, deadline=None)
@given(st.integers(1, 40), st.integers(0, 30), st.integers(1, 9), st.floats(0.0, 1.0),
       st.integers(0, 2**32 - 1))
def test_tiles_read_exactly_the_columns_their_rows_keep(tokens, cached, tile_rows, density, seed):
    # below TILE_MIN_PAIRS (row, key) pairs the plan is one tile of every
    # row and key; from there on the tiles cover the rows in order,
    # TILE_ROWS at a time, and a tile reads every key column when its rows
    # keep at least half of them, and otherwise exactly the columns they keep
    keep = np.random.default_rng(seed).random((tokens, cached + tokens)) < density
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(autodiff, "TILE_ROWS", tile_rows)
        mp.setattr(autodiff, "TILE_MIN_PAIRS", keep.size + 1)
        assert tiles(keep) == [(slice(None), slice(None))]
        mp.setattr(autodiff, "TILE_MIN_PAIRS", 0)
        plan = tiles(keep)
    assert [r.start for r, _ in plan] == list(range(0, tokens, tile_rows))
    assert all(r.stop == r.start + tile_rows for r, _ in plan)
    for rows, cols in plan:
        union = np.flatnonzero(keep[rows].any(axis=0))
        if isinstance(cols, slice):
            assert cols == slice(None) and 2 * len(union) >= keep.shape[1]
        else:
            assert np.array_equal(cols, union) and 2 * len(union) < keep.shape[1]


@pytest.mark.parametrize("tile_rows", [1, 3, 4])
def test_tiled_attention_grad(rng, monkeypatch, tile_rows):
    # from TILE_MIN_PAIRS (row, key) pairs on, attention and its backward
    # run per tile of query rows, over the key columns each tile keeps
    monkeypatch.setattr(autodiff, "TILE_MIN_PAIRS", 0)
    monkeypatch.setattr(autodiff, "TILE_ROWS", tile_rows)
    # causal rows over 6 cached keys; rows 0 and 2 keep only the self bit,
    # rows from 5 on only the new keys from 4 on, so every tile size both
    # gathers columns and reads them all
    keep = np.tril(np.ones((10, 16), dtype=bool), k=6)
    keep[[0, 2]] = False
    keep[5:, :10] = False
    keep[np.arange(10), 6 + np.arange(10)] = True
    assert {isinstance(cols, slice) for _, cols in tiles(keep)} == {False, True}
    w = rng.normal(size=(2, 10, 4))
    check_op(
        lambda t: weighted(attention(t["q"], t["k"], t["v"], keep), w),
        {"q": rng.normal(size=(2, 10, 4)), "k": rng.normal(size=(2, 16, 4)),
         "v": rng.normal(size=(2, 16, 4))},
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
    # the textbook pairwise rotation, on the angles' own cos and sin
    half = x.shape[-1] // 2
    x1, x2 = x[:, :, :half], x[:, :, half:]
    c, s = cos[:, :half], sin[:, half:]
    return np.concatenate([x1 * c - x2 * s, x1 * s + x2 * c], axis=-1)


def composed_attention(q, k, v, keep):
    scores = (q @ k.swapaxes(-1, -2)) * (1.0 / math.sqrt(q.shape[-1]))
    rowmax = np.max(np.where(keep, scores, -np.inf), axis=-1, keepdims=True)
    e = np.exp(scores - rowmax) * keep
    probs = e / e.sum(axis=-1, keepdims=True)
    return probs @ v, probs


def attention_and_probs(q, k, v, keep):
    return attention(q, k, v, keep), attention_probs(q, k, keep)


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
        "attention": (attention_and_probs, composed_attention,
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
