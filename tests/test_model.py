import numpy as np
import pytest

from anchorlm.autodiff import Tensor
from anchorlm.cache import AnchorKVCache, CacheEntry
from anchorlm.corpus import SegmentedText
from anchorlm.errors import ContractError, InputError, NumericError
from anchorlm.infer import advance
from anchorlm.masks import TokenFlags, anchor_mask, causal_mask, segment_flags
from anchorlm.model import (
    ModelConfig,
    _forward_graph,
    forward,
    init_weights,
    load_checkpoint,
    loss_and_grads,
    param_shapes,
    save_checkpoint,
)
from conftest import random_segmented, tiny_config
from oracles import finite_difference_grads, naive_attention, naive_init


def zeroed(config):
    w = init_weights(config, seed=0)
    for arr in w.arrays.values():
        arr[:] = 0.0
    return w


def plain_seg(ids):
    return SegmentedText(ids=list(ids), is_anchor=[False] * len(ids), seq_index=[0] * len(ids))


def oracle_inputs(weights):
    cfg = weights.config
    dims = {
        "n_layers": cfg.n_layers,
        "n_heads": cfg.n_heads,
        "d_model": cfg.d_model,
        "norm_eps": cfg.norm_eps,
        "rope_base": cfg.rope_base,
    }
    return dims, weights.arrays


def test_config_validation():
    with pytest.raises(ContractError):
        ModelConfig(vocab_size=10, d_model=30, n_heads=4)  # not divisible
    with pytest.raises(ContractError):
        ModelConfig(vocab_size=10, d_model=12, n_heads=4)  # head dim odd
    with pytest.raises(ContractError):
        ModelConfig(vocab_size=0)


def test_single_token_softmax_is_one(tiny_weights):
    out = forward(tiny_weights, [3], np.array([[1]]), collect_attn=True)
    for attn in out.attn:
        np.testing.assert_allclose(attn, 1.0)
    assert out.logits.shape == (1, tiny_weights.config.vocab_size)


def test_masked_except_self_equals_single_token(tiny_weights):
    ids = [4, 7, 2]
    mask = np.eye(3, dtype=np.uint8)  # every token sees only itself
    full = forward(tiny_weights, ids, mask)
    solo = forward(tiny_weights, [ids[2]], np.array([[1]]), positions=np.array([2]))
    np.testing.assert_allclose(full.logits[2], solo.logits[0], rtol=1e-12)


def test_forward_matches_naive_oracle():
    rng = np.random.default_rng(21)
    for trial in range(5):
        config = ModelConfig(
            vocab_size=11, n_layers=2, n_heads=2, d_model=16, d_ff=24, context_len=16
        )
        weights = init_weights(config, seed=trial)
        seg = random_segmented(rng, max_len=6)
        ids = [int(i) % 11 for i in seg.ids]
        mask = anchor_mask(seg)
        got = forward(weights, ids, mask).logits
        dims, arrays = oracle_inputs(weights)
        want = naive_attention(dims, arrays, ids, mask, list(range(len(ids))))
        np.testing.assert_allclose(got, want, rtol=1e-6)


def test_attention_rows_sum_to_one(tiny_weights):
    rng = np.random.default_rng(5)
    seg = random_segmented(rng, max_len=12)
    ids = [int(i) % tiny_weights.config.vocab_size for i in seg.ids]
    out = forward(tiny_weights, ids, anchor_mask(seg), collect_attn=True)
    for attn in out.attn:
        np.testing.assert_allclose(attn.sum(axis=-1), 1.0, atol=1e-6)


def test_uniform_logits_loss_is_log_vocab():
    config = tiny_config()
    weights = zeroed(config)
    block = plain_seg([1, 2, 3, 4])
    loss, _ = loss_and_grads(weights, block, causal_mask(4))
    assert abs(loss - np.log(config.vocab_size)) < 1e-12


def test_loss_nonnegative_under_anchor_mask():
    rng = np.random.default_rng(13)
    weights = init_weights(tiny_config(), seed=4)
    for _ in range(5):
        seg = random_segmented(rng, max_len=10)
        seg.ids = [i % 11 for i in seg.ids]
        if len(seg) < 2:
            continue
        loss, _ = loss_and_grads(weights, seg, anchor_mask(seg))
        assert loss >= 0.0


def test_gradients_match_finite_differences():
    config = ModelConfig(
        vocab_size=7, n_layers=1, n_heads=2, d_model=8, d_ff=12, context_len=8
    )
    weights = init_weights(config, seed=9)
    seg = SegmentedText(
        ids=[1, 4, 2, 6, 3], is_anchor=[False, True, False, False, True],
        seq_index=[0, 0, 1, 1, 1],
    )
    mask = anchor_mask(seg)
    _, grads = loss_and_grads(weights, seg, mask)

    def loss_value():
        return loss_and_grads(weights, seg, mask)[0]

    fd = finite_difference_grads(loss_value, weights.arrays, step=1e-4)
    assert list(grads) == list(weights.arrays)
    for name, analytic in grads.items():
        denom = np.maximum(np.maximum(np.abs(fd[name]), np.abs(analytic)), 1e-3)
        assert np.max(np.abs(fd[name] - analytic) / denom) < 1e-4, name


def test_tape_nodes_per_block(tiny_weights, monkeypatch):
    # norm, GELU, rotary, the attention core and the loss are one node each
    made = []
    op = Tensor._op

    def recording_op(*args):
        made.append(op(*args))
        return made[-1]

    monkeypatch.setattr(Tensor, "_op", staticmethod(recording_op))
    seg = plain_seg([1, 5, 3, 7, 9, 2, 4, 8])
    loss_and_grads(tiny_weights, seg, causal_mask(len(seg)))
    nodes = sum(t.requires_grad for t in made)
    assert nodes == 4 + 22 * tiny_weights.config.n_layers == 48


def test_init_deterministic_and_seed_sensitive():
    config = tiny_config()
    a = init_weights(config, seed=3)
    b = init_weights(config, seed=3)
    c = init_weights(config, seed=4)
    for x, y in zip(a.arrays.values(), b.arrays.values()):
        assert np.array_equal(x, y)
    assert any(not np.array_equal(x, y) for x, y in zip(a.arrays.values(), c.arrays.values()))


@pytest.mark.parametrize("anchor_id", [None, 4])
@pytest.mark.parametrize("config", [
    tiny_config(),
    ModelConfig(vocab_size=9, n_layers=3, n_heads=2, d_model=8, d_ff=12, context_len=8),
])
def test_init_matches_documented_draw_order(config, anchor_id):
    want = naive_init(config, seed=11, anchor_id=anchor_id)
    got = init_weights(config, seed=11, anchor_id=anchor_id)
    assert list(got.arrays) == list(want)
    for name, arr in want.items():
        assert got.arrays[name].dtype == np.float64
        assert np.array_equal(got.arrays[name], arr), name


def test_anchor_embedding_row_is_mean_of_others():
    config = tiny_config()
    w = init_weights(config, seed=1, anchor_id=4)
    embedding = w.arrays["embedding"]
    others = np.delete(embedding, 4, axis=0)
    np.testing.assert_allclose(embedding[4], others.mean(axis=0), rtol=1e-12)


def test_cache_equivalence_token_by_token(tiny_weights):
    ids = [1, 5, 3, 7, 9, 2]
    block = forward(tiny_weights, ids, causal_mask(len(ids)))
    cache = AnchorKVCache()
    rows = []
    for t, tok in enumerate(ids):
        out = forward(
            tiny_weights, [tok], np.ones(t + 1, dtype=np.uint8),
            cache.stacked(1, tiny_weights.config), positions=[t],
        )
        rows.append(out.logits[0])
        cache.extend_from_forward([t], [TokenFlags(False, 0)])
    scale = np.abs(block.logits).max()
    assert np.max(np.abs(np.array(rows) - block.logits)) / scale < 1e-5


def test_position_stability_after_dropping_masked_entries(tiny_weights):
    # the last token's logits depend only on the entries its mask keeps,
    # at their original absolute positions
    seg = SegmentedText(
        ids=[1, 2, 3, 4, 5, 6],
        is_anchor=[False, True, False, True, False, False],
        seq_index=[0, 0, 1, 1, 2, 2],
    )
    mask = anchor_mask(seg)
    # a forward into an empty cache's free slots leaves every token's keys there
    full_kv = AnchorKVCache().stacked(len(seg), tiny_weights.config)
    full = forward(tiny_weights, seg.ids, mask, full_kv, positions=np.arange(len(seg)))
    last = len(seg) - 1
    visible = [j for j in range(last) if mask[last][j]]
    assert visible != list(range(last))  # something actually got dropped

    cache = AnchorKVCache()
    for j in visible:
        cache.append(
            CacheEntry(
                position=j,
                is_anchor=seg.is_anchor[j],
                seq_index=seg.seq_index[j],
                keys=np.stack([k[:, j, :] for k, _ in full_kv]),
                values=np.stack([v[:, j, :] for _, v in full_kv]),
            )
        )
    out = forward(
        tiny_weights, [seg.ids[last]], np.ones(len(visible) + 1, dtype=np.uint8),
        cache.stacked(1), positions=[last],
    )
    np.testing.assert_allclose(out.logits[0], full.logits[last], rtol=1e-9)


def test_mask_shape_mismatch_raises(tiny_weights):
    with pytest.raises(ContractError):
        forward(tiny_weights, [1, 2], causal_mask(3))


def test_positions_must_increase(tiny_weights):
    with pytest.raises(ContractError):
        forward(tiny_weights, [1, 2], causal_mask(2), positions=np.array([3, 3]))


def test_non_finite_raises():
    weights = init_weights(tiny_config(), seed=0)
    weights.arrays["embedding"][1] = np.inf
    with np.errstate(all="ignore"), pytest.raises(NumericError):
        forward(weights, [1, 2, 3], causal_mask(3))


def test_short_block_rejected(tiny_weights):
    with pytest.raises(ContractError):
        loss_and_grads(tiny_weights, plain_seg([1]), causal_mask(1))


def test_checkpoint_round_trip(tmp_path, tiny_weights):
    opt = {"opt.m.head": np.full_like(tiny_weights.arrays["head"], 0.5)}
    path = tmp_path / "ckpt.bin"
    save_checkpoint(path, tiny_weights, step=42, vocab_sha256="ab" * 32, opt_state=opt)
    loaded, step, sha, opt_loaded = load_checkpoint(path)
    assert step == 42 and sha == "ab" * 32
    assert list(loaded.arrays) == list(param_shapes(tiny_weights.config))
    for x, y in zip(tiny_weights.arrays.values(), loaded.arrays.values()):
        assert np.array_equal(x, y)
    assert np.array_equal(opt_loaded["opt.m.head"], opt["opt.m.head"])


def _truncate(blob):
    return blob[:-5]


def _append_bytes(blob):
    return blob + b"\x00" * 8


def _break_header_line(blob):
    return blob.replace(b"step = 42", b"step 42")


def _misdeclare_shape(blob):
    # same payload size, but a shape the config cannot use
    return blob.replace(b"tensor final_gain 16", b"tensor final_gain 4 4")


@pytest.mark.parametrize(
    "corrupt", [_truncate, _append_bytes, _break_header_line, _misdeclare_shape]
)
def test_malformed_checkpoint_is_input_error(tmp_path, tiny_weights, corrupt):
    path = tmp_path / "ckpt.bin"
    save_checkpoint(path, tiny_weights, step=42, vocab_sha256="ab" * 32)
    blob = path.read_bytes()
    broken = corrupt(blob)
    assert broken != blob
    path.write_bytes(broken)
    with pytest.raises(InputError):
        load_checkpoint(path)


@pytest.mark.parametrize("n_cached", [None, 0, 5])
def test_array_forward_matches_taped_path_bitwise(tiny_weights, n_cached):
    # forward runs _forward_graph over plain arrays; training runs the same
    # source over Tensors, so the two must agree to the last bit, in the
    # keys/values written to the cache's free slots too (None: no cache)
    ids = np.array([1, 5, 3, 7, 9, 2, 4, 8])
    seg = SegmentedText(
        ids=list(ids), is_anchor=[False, True, False, False, True, False, False, False],
        seq_index=[0, 0, 1, 1, 1, 2, 2, 2],
    )
    start = n_cached or 0
    mask = anchor_mask(seg)[start:]
    positions = np.arange(start, len(ids))
    cache_kv = None
    if n_cached is not None:
        cache = AnchorKVCache()
        if n_cached:
            advance(tiny_weights, cache, ids[:n_cached], segment_flags(seg.slice(0, n_cached)))
        cache_kv = cache.stacked(len(ids) - start, tiny_weights.config)

    def written():
        return [a[:, start:].copy() for layer in cache_kv or () for a in layer]

    arrays = forward(tiny_weights, ids[start:], mask, cache_kv, positions, collect_attn=True)
    arrays_kv = written()
    params = {name: Tensor(a, requires_grad=True) for name, a in tiny_weights.arrays.items()}
    logits, taped = _forward_graph(
        params, tiny_weights.config, ids[start:], mask, cache_kv, positions, True
    )
    assert logits.requires_grad
    assert np.array_equal(arrays.logits, taped.logits)
    for got, want in zip(arrays_kv + arrays.attn, written() + taped.attn):
        assert np.array_equal(got, want)


@pytest.mark.parametrize("bad", [-1, 11])
def test_ids_outside_vocab_rejected(tiny_weights, bad):
    # a negative id would otherwise wrap to a real embedding row
    with pytest.raises(ContractError, match="token ids"):
        forward(tiny_weights, [1, bad, 2], causal_mask(3))
    with pytest.raises(ContractError, match="token ids"):
        loss_and_grads(tiny_weights, plain_seg([1, bad, 2]), causal_mask(3))
