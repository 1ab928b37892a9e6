import contextlib
import hashlib
import math
import platform
import re
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from anchorlm import autodiff, model
from anchorlm.autodiff import Tensor
from anchorlm.cache import AnchorKVCache, kept_by_reduction
from anchorlm.corpus import SegmentedText
from anchorlm.errors import ContractError, InputError, NumericError
from anchorlm.infer import GenerationConfig, advance, generate
from anchorlm.masks import mask_rows, segment_flags
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
from conftest import (
    SCORE_RTOL, anchor_rule, causal_rule, random_segmented, tiny_config, traced_peak,
)
from oracles import (
    finite_difference_grads, naive_anchor_mask, naive_attention, naive_causal_mask, naive_init,
)
from test_autodiff import composed_attention


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
    out = forward(tiny_weights, [3], np.array([[True]]), collect_attn=True)
    for attn in out.attn:
        np.testing.assert_allclose(attn, 1.0)
    assert out.logits.shape == (1, tiny_weights.config.vocab_size)


def test_masked_except_self_equals_single_token(tiny_weights):
    ids = [4, 7, 2]
    mask = np.eye(3, dtype=bool)  # every token sees only itself
    full = forward(tiny_weights, ids, mask)
    solo = forward(tiny_weights, [ids[2]], np.array([[True]]), positions=np.array([2]))
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
        got = forward(weights, ids, anchor_rule(seg)).logits
        dims, arrays = oracle_inputs(weights)
        mask = naive_anchor_mask(seg.is_anchor, seg.seq_index)
        want = naive_attention(dims, arrays, ids, mask, list(range(len(ids))))
        np.testing.assert_allclose(got, want, rtol=1e-6)


def test_attention_rows_sum_to_one(tiny_weights):
    rng = np.random.default_rng(5)
    seg = random_segmented(rng, max_len=12)
    ids = [int(i) % tiny_weights.config.vocab_size for i in seg.ids]
    out = forward(tiny_weights, ids, anchor_rule(seg), collect_attn=True)
    for attn in out.attn:
        np.testing.assert_allclose(attn.sum(axis=-1), 1.0, atol=1e-6)


def test_dense_forward_peaks_below_two_score_buffers():
    # one layer's (H, T, T) probabilities live at a time, and attention
    # below autodiff.TILE_MIN_PAIRS, one tile, builds them in a single buffer
    heads, tokens = 4, math.isqrt(autodiff.TILE_MIN_PAIRS - 1)
    config = ModelConfig(
        vocab_size=50, n_layers=2, n_heads=heads, d_model=64, d_ff=256, context_len=tokens
    )
    weights = init_weights(config, seed=0)
    ids = np.random.default_rng(2).integers(0, 50, tokens)
    mask = causal_rule(tokens)
    peak = traced_peak(lambda: forward(weights, ids, mask))
    assert peak <= 2.0 * heads * tokens * tokens * 8


def test_tiled_forward_peaks_below_a_fraction_of_one_score_buffer():
    # from autodiff.TILE_MIN_PAIRS on, attention runs per tile of query rows
    # over the keys they keep and holds no (H, T, T) buffer; under an anchor
    # every 12 tokens a tile keeps a few hundred of 1024 keys
    heads, tokens = 4, 1024
    config = ModelConfig(
        vocab_size=50, n_layers=2, n_heads=heads, d_model=64, d_ff=256, context_len=tokens
    )
    weights = init_weights(config, seed=0)
    ids = np.random.default_rng(2).integers(0, 50, tokens)
    seg = SegmentedText(
        ids=ids.tolist(), is_anchor=[t % 12 == 11 for t in range(tokens)],
        seq_index=[t // 12 for t in range(tokens)],
    )
    mask = anchor_rule(seg)
    peak = traced_peak(lambda: forward(weights, ids, mask))
    assert peak < 0.6 * heads * tokens * tokens * 8


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="mallopt is glibc's")
def test_malloc_thresholds_pinned_unless_the_environment_sets_them(monkeypatch):
    assert model.pin_malloc_thresholds()
    monkeypatch.setenv("MALLOC_TRIM_THRESHOLD_", str(model.TRIM_THRESHOLD))
    assert not model.pin_malloc_thresholds()


def test_collect_attn_keeps_what_an_uncollected_forward_releases(tiny_weights, monkeypatch):
    rng = np.random.default_rng(9)
    seg = random_segmented(rng, max_len=12)
    ids = [int(i) % tiny_weights.config.vocab_size for i in seg.ids]
    mask = anchor_rule(seg)
    inputs, probs, held = [], [], []
    attention, softmax = model.attention, autodiff._softmax

    def softmax_spy(*args):
        out = softmax(*args)
        probs.append(weakref.ref(out))
        return out

    def attention_spy(*args):
        # an uncollected forward keeps no probabilities past the call
        inputs.append(args)
        probs.clear()
        ctx = attention(*args)
        held.extend(ref() is not None for ref in probs)
        return ctx

    monkeypatch.setattr(autodiff, "_softmax", softmax_spy)
    monkeypatch.setattr(model, "attention", attention_spy)
    plain = forward(tiny_weights, ids, mask)
    monkeypatch.undo()
    assert plain.attn == [] and held == [False] * tiny_weights.config.n_layers
    collected = forward(tiny_weights, ids, mask, collect_attn=True)
    assert np.array_equal(collected.logits, plain.logits)
    composed = [composed_attention(*args)[1] for args in inputs]
    assert len(collected.attn) == len(composed) == tiny_weights.config.n_layers
    assert all(np.array_equal(got, want) for got, want in zip(collected.attn, composed))


def test_uniform_logits_loss_is_log_vocab():
    config = tiny_config()
    weights = zeroed(config)
    block = plain_seg([1, 2, 3, 4])
    loss, _ = loss_and_grads(weights, block, causal_rule(4))
    assert abs(loss - np.log(config.vocab_size)) < 1e-12


def test_loss_nonnegative_under_anchor_mask():
    rng = np.random.default_rng(13)
    weights = init_weights(tiny_config(), seed=4)
    for _ in range(5):
        seg = random_segmented(rng, max_len=10)
        seg.ids = [i % 11 for i in seg.ids]
        if len(seg) < 2:
            continue
        loss, _ = loss_and_grads(weights, seg, anchor_rule(seg))
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
    mask = anchor_rule(seg)
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
    loss_and_grads(tiny_weights, seg, causal_rule(len(seg)))
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
    block = forward(tiny_weights, ids, causal_rule(len(ids)))
    cache = AnchorKVCache()
    rows = []
    for t, tok in enumerate(ids):
        out = forward(
            tiny_weights, [tok], np.ones((1, t + 1), dtype=bool),
            cache.stacked(1, tiny_weights.config), positions=[t],
        )
        rows.append(out.logits[0])
        cache.extend_from_forward([(False, 0)])
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
    mask = anchor_rule(seg)
    # a forward into an empty cache's free slots leaves every token's keys there
    cache = AnchorKVCache()
    full_kv = cache.stacked(len(seg), tiny_weights.config)
    full = forward(tiny_weights, seg.ids, mask, full_kv, positions=np.arange(len(seg)))
    last = len(seg) - 1
    visible = [j for j in range(last) if mask[last][j]]
    assert visible != list(range(last))  # something actually got dropped

    # commit the prefix, then keep only the slots the last token sees
    cache.extend_from_forward(segment_flags(seg)[:last])
    cache.entries = visible
    assert cache.live_positions() == visible
    out = forward(
        tiny_weights, [seg.ids[last]], np.ones((1, len(visible) + 1), dtype=bool),
        cache.stacked(1), positions=[last],
    )
    np.testing.assert_allclose(out.logits[0], full.logits[last], rtol=1e-9)


def test_mask_shape_mismatch_raises(tiny_weights):
    with pytest.raises(ContractError):
        forward(tiny_weights, [1, 2], causal_rule(3))


def test_one_position_per_token(tiny_weights):
    # one position would otherwise broadcast over both tokens
    with pytest.raises(ContractError, match="positions"):
        forward(tiny_weights, [1, 2], causal_rule(2), positions=np.array([0]))


def test_positions_must_increase(tiny_weights):
    with pytest.raises(ContractError):
        forward(tiny_weights, [1, 2], causal_rule(2), positions=np.array([3, 3]))


def test_visible_key_at_a_later_position_raises(tiny_weights):
    # the last row keeps key 1, whose position 2 is after its own 1
    with pytest.raises(ContractError, match="position"):
        forward(tiny_weights, [1, 2, 3], causal_rule(3), positions=np.array([0, 2, 1]))


def test_hidden_key_at_a_later_position_passes(tiny_weights):
    mask = np.array([[1, 0, 0], [1, 1, 0], [1, 0, 1]], dtype=bool)
    out = forward(tiny_weights, [1, 2, 3], mask, positions=np.array([0, 2, 1]))
    assert out.logits.shape == (3, tiny_weights.config.vocab_size)


def test_trunk_and_branches_with_repeated_positions_pass(tiny_weights):
    # a two-token trunk and three two-token branches that each continue it
    # at positions 2 and 3 and see the trunk and themselves only
    branch = np.array([-1, -1, 0, 0, 1, 1, 2, 2])
    mask = naive_causal_mask(8).astype(bool) & ((branch[:, None] == branch) | (branch == -1))
    positions = np.array([0, 1, 2, 3, 2, 3, 2, 3])
    out = forward(tiny_weights, [1, 2, 3, 4, 5, 6, 3, 4], mask, positions=positions)
    # the first and last branches hold the same tokens, so the same logits
    np.testing.assert_allclose(out.logits[2:4], out.logits[6:8], rtol=1e-12)


def test_non_finite_raises():
    weights = init_weights(tiny_config(), seed=0)
    weights.arrays["embedding"][1] = np.inf
    with np.errstate(all="ignore"), pytest.raises(NumericError):
        forward(weights, [1, 2, 3], causal_rule(3))


def decode_cache(weights, n_cached=5):
    """A cache holding n_cached tokens of one sequence, for one-token steps."""
    cache = AnchorKVCache()
    advance(weights, cache, list(range(1, n_cached + 1)), [(False, 0)] * n_cached)
    return cache


@pytest.mark.parametrize("bad", [-1, 11])
def test_one_token_step_rejects_ids_outside_vocab(tiny_weights, bad):
    with pytest.raises(ContractError, match="token ids"):
        advance(tiny_weights, decode_cache(tiny_weights), [bad], [(False, 0)])


@pytest.mark.parametrize("width", [5, 7])
def test_one_token_step_rejects_a_mask_of_the_wrong_shape(tiny_weights, width):
    cache = decode_cache(tiny_weights)  # the right width is 6
    kv, positions = cache.stacked(1, tiny_weights.config), cache.next_positions(1)
    with pytest.raises(ContractError, match="mask shape"):
        forward(tiny_weights, [1], np.ones((1, width), dtype=bool), kv, positions)


@pytest.mark.parametrize("dtype", [np.uint8, np.int64, np.float64])
def test_non_bool_mask_is_contract_error(tiny_weights, dtype):
    # np.asarray of a rule is uint8; forward reads bool rows and converts nothing
    mask = np.asarray(mask_rows([(0, 0), (1, 0), (0, 1)]), dtype=dtype)
    with pytest.raises(ContractError, match="bool"):
        forward(tiny_weights, [1, 2, 3], mask)


def test_one_token_step_names_the_first_non_finite_layer(tiny_weights):
    for li in range(tiny_weights.config.n_layers):
        weights = tiny_weights.copy()
        cache = decode_cache(weights)
        weights.arrays[f"layer{li}.w2"][0, 0] = np.nan
        with pytest.raises(NumericError, match=f"after layer {li}"):
            advance(weights, cache, [1], [(False, 0)])


def direct_rope_rows(config, positions):
    """The rotary rows [cos, cos] and [-sin, sin] computed from the
    positions directly, as every forward once did."""
    half = config.head_dim // 2
    inv_freq = np.tile(config.rope_base ** (-np.arange(half) * 2.0 / config.head_dim), 2)
    angles = positions[:, None] * inv_freq
    cos, sin = np.cos(angles), np.sin(angles)
    sin[:, :half] *= -1.0
    return cos, sin


@pytest.fixture
def rope_builds(monkeypatch):
    """An empty rotary table store; the list holds each table build's size."""
    monkeypatch.setattr(model, "_ROPE", {})
    sizes = []
    build = model._rope_table

    def spy(head_dim, rope_base, size):
        sizes.append(size)
        return build(head_dim, rope_base, size)

    monkeypatch.setattr(model, "_rope_table", spy)
    return sizes


@pytest.mark.parametrize("positions", [
    np.arange(64), np.array([0, 1, 2, 3, 2, 3, 2, 3, 4]),
    np.arange(60, 5000, 37), np.random.default_rng(3).integers(0, 4096, 500),
], ids=["chain", "tree", "past-context", "random"])
def test_rotary_rows_equal_the_direct_formula(rope_builds, positions):
    config = tiny_config()  # context_len 64
    for got, want in zip(model._rope_tables(config, positions), direct_rope_rows(config, positions)):
        assert got.shape == want.shape and got.tobytes() == want.tobytes()  # bitwise


def test_rotary_table_is_built_once_and_read_only(rope_builds, tiny_weights):
    ids = [1, 2, 3, 4]
    forward(tiny_weights, ids, causal_rule(4))
    forward(tiny_weights, ids, causal_rule(4), positions=np.arange(60, 64))
    assert rope_builds == [64]  # context_len; the second forward builds nothing
    cos, sin = model._ROPE[(8, 10000.0)]
    for table in (cos, sin):
        with pytest.raises(ValueError):
            table[0, 0] = 2.0
    forward(tiny_weights, ids, causal_rule(4), positions=np.arange(64, 68))
    assert rope_builds == [64, 128]  # a position past the table doubles it


def test_negative_positions_are_rejected(tiny_weights):
    with pytest.raises(ContractError, match="positions"):
        forward(tiny_weights, [1, 2], causal_rule(2), positions=np.array([-2, -1]))


def test_decode_past_context_len_is_lossless(rope_builds):
    weights = init_weights(tiny_config(context_len=8), seed=7)
    prefix = SegmentedText(
        ids=[5, 6, 4, 7, 8, 4, 9], is_anchor=[False, False, True, False, False, True, False],
        seq_index=[0, 0, 0, 1, 1, 1, 2],
    )
    on, off = (
        generate(weights, prefix, GenerationConfig(
            max_new_tokens=20, anchor_token_id=4, eos_id=None, reduction_enabled=reduce,
        ))
        for reduce in (True, False)
    )
    assert on.ids == off.ids and len(on.ids) == 20
    assert on.stats.total_discards > 0
    assert rope_builds == [8, 16, 32]  # positions past 15 read grown tables


def test_short_block_rejected(tiny_weights):
    with pytest.raises(ContractError):
        loss_and_grads(tiny_weights, plain_seg([1]), causal_rule(1))


def _moments(weights):
    """Both AdamW moments of every parameter, each with its own values."""
    rng = np.random.default_rng(5)
    return {prefix + name: rng.normal(size=a.shape)
            for prefix in ("opt.m.", "opt.v.") for name, a in weights.arrays.items()}


def test_checkpoint_round_trip(tmp_path, tiny_weights):
    opt = _moments(tiny_weights)
    path = tmp_path / "ckpt.bin"
    save_checkpoint(path, tiny_weights, step=42, vocab_sha256="ab" * 32, opt_state=opt)
    loaded, step, sha, opt_loaded = load_checkpoint(path)
    assert step == 42 and sha == "ab" * 32
    assert list(loaded.arrays) == list(param_shapes(tiny_weights.config))
    for x, y in zip(tiny_weights.arrays.values(), loaded.arrays.values()):
        assert np.array_equal(x, y)
    assert list(opt_loaded) == list(opt)
    for name, moment in opt.items():
        assert np.array_equal(opt_loaded[name], moment)


def test_checkpoint_layout_follows_the_config(tmp_path, tiny_weights):
    # no tensor table: the payload is the parameters in param_shapes order,
    # then every first moment, then every second moment, under one sha256
    opt = _moments(tiny_weights)
    path = tmp_path / "ckpt.bin"
    save_checkpoint(path, tiny_weights, step=3, vocab_sha256="ab" * 32, opt_state=opt)
    header, _, payload = path.read_bytes().partition(b"\nend\n")
    lines = header.decode("utf-8").splitlines()
    assert lines[0] == "anchorlm-checkpoint-v2"
    assert not any(line.startswith("tensor") for line in lines)
    assert f"payload_sha256 = {hashlib.sha256(payload).hexdigest()}" in lines
    names = list(param_shapes(tiny_weights.config))
    arrays = [tiny_weights.arrays[n] for n in names] + [opt["opt.m." + n] for n in names]
    arrays += [opt["opt.v." + n] for n in names]
    assert payload == b"".join(a.astype("<f8").tobytes() for a in arrays)
    save_checkpoint(path, tiny_weights, step=3, vocab_sha256="ab" * 32)
    assert load_checkpoint(path)[3] == {}


def test_checkpoint_without_a_moment_is_contract_error(tmp_path, tiny_weights):
    opt = _moments(tiny_weights)
    del opt["opt.v.head"]
    with pytest.raises(ContractError, match="opt.v.head"):
        save_checkpoint(tmp_path / "ckpt.bin", tiny_weights, 1, "ab" * 32, opt_state=opt)
    assert not (tmp_path / "ckpt.bin").exists()


def _truncate(blob):
    return blob[:-5]


def _append_bytes(blob):
    return blob + b"\x00" * 8


def _break_header_line(blob):
    return blob.replace(b"step = 42", b"step 42")


def _misdeclare_shape(blob):
    # same payload, but a config whose shapes it does not fill
    return blob.replace(b"\nd_ff = 32\n", b"\nd_ff = 16\n")


def _header_value(key, value):
    def corrupt(blob):
        return re.sub(rf"\n{key} = [^\n]*\n".encode(), f"\n{key} = {value}\n".encode(), blob)
    return pytest.param(corrupt, id=f"{key}-{value}")


@pytest.mark.parametrize("corrupt", [
    _truncate, _append_bytes, _break_header_line, _misdeclare_shape,
    # the payload sha256 does not cover the header: the config check must
    *(_header_value("rope_base", v) for v in ("0.0", "-2.0", "nan", "inf")),
    *(_header_value("norm_eps", v) for v in ("0.0", "-1.0", "nan")),
])
def test_malformed_checkpoint_is_input_error(tmp_path, tiny_weights, corrupt):
    path = tmp_path / "ckpt.bin"
    save_checkpoint(path, tiny_weights, step=42, vocab_sha256="ab" * 32)
    blob = path.read_bytes()
    broken = corrupt(blob)
    assert broken != blob
    path.write_bytes(broken)
    with pytest.raises(InputError):
        load_checkpoint(path)


def _with_payload(blob, edit):
    # the payload edited, and payload_sha256 made to match it
    header, _, payload = blob.partition(b"\nend\n")
    payload = edit(payload)
    header, count = re.subn(
        rb"\npayload_sha256 = \w+",
        b"\npayload_sha256 = " + hashlib.sha256(payload).hexdigest().encode(), header,
    )
    assert count == 1
    return header + b"\nend\n" + payload


def _as_v1(blob):
    # the same arrays in the v1 layout: a tensor line each, no payload_sha256
    header, _, payload = blob.partition(b"\nend\n")
    lines = [line for line in header.split(b"\n") if not line.startswith(b"payload_sha256")]
    lines[0] = b"anchorlm-checkpoint-v1"
    lines += [f"tensor {name} {' '.join(map(str, shape))}".encode()
              for name, shape in param_shapes(tiny_config()).items()]
    return b"\n".join(lines) + b"\nend\n" + payload


def _flip_payload_byte(blob):
    return blob[:-9] + bytes([blob[-9] ^ 1]) + blob[-8:]


CORRUPT_CHECKPOINT = {
    "key-twice": lambda blob: blob.replace(b"step = 5\n", b"step = 5\nstep = 9\n", 1),
    "v1": _as_v1,
    "flipped-byte": _flip_payload_byte,
    "no-payload-sha256": lambda blob: re.sub(rb"\npayload_sha256 = \w+", b"", blob),
    "negative-step": lambda blob: blob.replace(b"\nstep = 5\n", b"\nstep = -3\n"),
    "two-n-floats": lambda blob: _with_payload(blob, lambda p: p + p),
    # head, the last array, is 16 x 11 floats
    "one-array-short": lambda blob: _with_payload(blob, lambda p: p[: -8 * 16 * 11]),
    # a typo of n_layers, which the loader must not skip
    "unknown-key": lambda blob: blob.replace(b"\nstep = 5\n", b"\nstep = 5\nn_layer = 7\n"),
    "vocab-digest-not-hex": lambda blob: blob.replace(b"ab" * 32, b"zz"),
    "vocab-digest-upper-case": lambda blob: blob.replace(b"ab" * 32, b"AB" * 32),
    "payload-digest-short": lambda blob: re.sub(rb"(\npayload_sha256 = \w+)\w", rb"\1", blob),
}


@pytest.mark.parametrize("case, message", [
    ("directory", "cannot read checkpoint"), ("missing", "cannot read checkpoint"),
    ("text", "not a checkpoint"), ("key-twice", "gives step twice"),
    ("v1", "anchorlm-checkpoint-v1"), ("flipped-byte", "payload_sha256"),
    ("no-payload-sha256", "payload_sha256"), ("negative-step", "negative step"),
    ("two-n-floats", "payload bytes"), ("one-array-short", "payload bytes"),
    ("unknown-key", "unknown key 'n_layer'"),
    ("vocab-digest-not-hex", "vocab_sha256 is not 64 lowercase hex digits"),
    ("vocab-digest-upper-case", "vocab_sha256 is not 64 lowercase hex digits"),
    ("payload-digest-short", "payload_sha256 is not 64 lowercase hex digits"),
])
def test_unloadable_checkpoint_is_input_error(tmp_path, tiny_weights, case, message):
    path = tmp_path / "ckpt.bin"
    if case == "directory":
        path.mkdir()
    elif case == "text":
        path.write_text("steps = 1\nend\n", encoding="utf-8")
    elif case != "missing":
        save_checkpoint(path, tiny_weights, step=5, vocab_sha256="ab" * 32)
        blob = path.read_bytes()
        broken = CORRUPT_CHECKPOINT[case](blob)
        assert broken != blob
        path.write_bytes(broken)
    with pytest.raises(InputError, match=message):
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
    mask = anchor_rule(seg)[start:]
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
        forward(tiny_weights, [1, bad, 2], causal_rule(3))
    with pytest.raises(ContractError, match="token ids"):
        loss_and_grads(tiny_weights, plain_seg([1, bad, 2]), causal_rule(3))


def new_rows(rng, kind, n_cached, T):
    """Flags of n_cached + T tokens, and mask rows and positions of the
    last T: a causal chain (one sequence with no anchor), anchor masks,
    or a causal trunk and up to three branches that each see the trunk
    and themselves only."""
    flags, seq = [], 0
    while len(flags) < n_cached + T:
        run = int(rng.integers(1, 5))
        anchored = kind == "anchor" and rng.random() < 0.7
        flags += [(anchored and i == run - 1, seq) for i in range(run)]
        seq += kind == "anchor"
    flags = np.array(flags[: n_cached + T])
    rows = mask_rows(flags[n_cached:], flags[:n_cached])
    depth = np.arange(T)
    if kind == "tree":
        trunk = int(rng.integers(1, T + 1))
        branch = np.r_[np.full(trunk, -1), np.sort(rng.integers(0, 3, T - trunk))]
        rows = rows[:]  # the whole block, restricted as score_trees does
        rows[:, n_cached:] &= (branch[:, None] == branch) | (branch == -1)
        depth[trunk:] = [trunk + np.sum(branch[trunk:i] == branch[i]) for i in range(trunk, T)]
    return flags, rows, n_cached + depth


@settings(max_examples=120, derandomize=True, database=None, deadline=None)
@given(
    st.sampled_from(["causal", "anchor", "tree"]), st.sampled_from([None, 0, 1, 6]),
    st.integers(1, 12), st.integers(0, 2**32 - 1), st.data(),
)
def test_logit_rows_match_the_same_rows_of_a_full_forward(
    tiny_weights, kind, n_cached, T, seed, data
):
    rng = np.random.default_rng(seed)
    n = n_cached or 0
    ids = rng.integers(0, tiny_weights.config.vocab_size, n + T)
    flags, rows, positions = new_rows(rng, kind, n, T)
    picked = data.draw(st.one_of(
        st.lists(st.integers(-T, T - 1), min_size=1, max_size=T, unique=True),
        st.builds(slice, st.integers(0, T - 1), st.none()),
    ))
    cache_kv = None  # no cache; 0 is an empty one
    if n_cached is not None:
        cache = AnchorKVCache()
        if n_cached:
            advance(tiny_weights, cache, ids[:n], flags[:n])
        cache_kv = cache.stacked(T, tiny_weights.config)

    def run(**kwargs):
        for layer in cache_kv or ():
            for a in layer:
                a[:, n:] = np.nan  # so each run must write its own keys/values
        out = forward(tiny_weights, ids[n:], rows, cache_kv, positions, True, **kwargs)
        return out, [a[:, n:].copy() for layer in cache_kv or () for a in layer]

    full, full_kv = run()
    part, part_kv = run(logit_rows=picked)
    want = full.logits[picked]
    assert part.logits.shape == want.shape
    assert np.all(np.abs(part.logits - want) <= SCORE_RTOL * np.maximum(1.0, np.abs(want)))
    assert all(np.array_equal(a, b) for a, b in zip(part_kv, full_kv))
    # every layer but the last runs every row, bitwise as before
    assert len(part.attn) == len(full.attn) == tiny_weights.config.n_layers
    assert all(np.array_equal(a, b) for a, b in zip(part.attn[:-1], full.attn[:-1]))
    last = full.attn[-1][:, picked]
    assert part.attn[-1].shape == last.shape == (tiny_weights.config.n_heads, len(want), n + T)
    assert np.all(np.abs(part.attn[-1] - last) <= SCORE_RTOL)


def chunk_flags(rng, layout, n_cached, T):
    """(is_anchor, seq_index) rows of n_cached random tokens, then of T new
    ones whose anchors are laid out as named: none, only the last, or at
    random places (mid-chunk ones among them)."""
    cached = rng.random(n_cached) < 0.3
    new = {
        "no-anchor": np.zeros(T, dtype=bool),
        "anchor-last": np.arange(T) == T - 1,
        "anchors-mid": (rng.random(T) < 0.4) | (np.arange(T) == rng.integers(T)),
    }[layout]
    is_anchor = np.r_[cached, new]
    seq = np.r_[0, np.cumsum(is_anchor[:-1])]
    return np.column_stack((is_anchor, seq)).astype(np.int64)


def all_close(a, b):
    return a.shape == b.shape and np.all(np.abs(a - b) <= SCORE_RTOL * np.maximum(1.0, np.abs(b)))


@settings(max_examples=150, derandomize=True, database=None, deadline=None)
@given(
    st.sampled_from(["no-anchor", "anchor-last", "anchors-mid"]),
    st.sampled_from([None, 0, 1, 7]), st.integers(1, 12), st.booleans(),
    st.integers(0, 2**32 - 1), st.data(),
)
def test_kept_rows_match_the_same_rows_of_a_full_forward(
    tiny_weights, layout, n_cached, T, ansan, seed, data
):
    # a forward that keeps only some rows' keys/values, and reads only some
    # rows' logits, skips every other row wherever no later read needs it;
    # what it returns and keeps is what the forward over every row gives
    config = tiny_weights.config
    rng = np.random.default_rng(seed)
    n = n_cached or 0
    flags = chunk_flags(rng, layout, n, T)
    if not ansan:
        flags[:] = 0  # one sequence with no anchor: causal masks
    ids = rng.integers(0, config.vocab_size, n + T)
    rows = mask_rows(flags[n:], flags[:n])
    reduced = kept_by_reduction(flags[n:])
    kept = data.draw(st.one_of(
        st.just(list(range(T)) if reduced is None else reduced.tolist()),
        st.lists(st.integers(0, T - 1), unique=True, max_size=T),
    ))
    picked = data.draw(st.lists(
        st.integers(-T, T - 1), min_size=0 if n_cached is not None and kept else 1,
        max_size=T, unique=True,
    ))

    def prefilled():
        cache = AnchorKVCache()
        if n:
            advance(tiny_weights, cache, ids[:n], flags[:n])
        return cache

    cache = prefilled() if n_cached is not None else None

    def run(**kwargs):
        kv = None if cache is None else cache.stacked(T, config)
        for layer in kv or ():
            for a in layer:
                a[:, n:] = np.nan  # a slot a forward does not write stays NaN
        out = forward(tiny_weights, ids[n:], rows, kv, np.arange(n, n + T), True, **kwargs)
        return out, [a[:, n:].copy() for layer in kv or () for a in layer]

    full, full_kv = run()
    part, part_kv = run(logit_rows=picked, kv_rows=kept)
    assert all_close(part.logits, full.logits[picked])
    assert all(all_close(a[:, kept], b[:, kept]) for a, b in zip(part_kv, full_kv))
    if not ansan and T - 1 in np.arange(T)[picked]:
        # under causal masks the last row keeps every key: every row runs
        # below the last layer, and every layer writes every row's keys/values
        assert [a.shape[1] for a in part.attn[:-1]] == [T] * (config.n_layers - 1)
        assert all(np.isfinite(a).all() for a in part_kv)

    # advance with reduce computes only the rows the reduction keeps, and
    # leaves the cache a separate reduction leaves
    one, two = prefilled(), prefilled()
    for layer in one.stacked(T, config):
        for a in layer:
            a[:, n:] = np.nan  # a slot left unwritten must not stay live
    read = data.draw(st.booleans())
    got = advance(tiny_weights, one, ids[n:], flags[n:], reduce=True, logits=read)
    want = advance(tiny_weights, two, ids[n:], flags[n:])
    two.reduction()
    assert all_close(got, want) if read else got is None
    assert one.live_positions() == two.live_positions()
    assert np.array_equal(one.flag_array(), two.flag_array())
    assert one.stats == two.stats
    assert all(
        all_close(a, b) for x, y in zip(one.stacked(), two.stacked()) for a, b in zip(x, y)
    )


@settings(max_examples=150, derandomize=True, database=None, deadline=None)
@given(
    st.sampled_from(["no-anchor", "anchor-last", "anchors-mid"]),
    st.sampled_from([None, 0, 1, 7]), st.integers(1, 12), st.booleans(),
    st.integers(0, 2**32 - 1), st.data(),
)
def test_mask_rule_reads_as_its_dense_matrix(
    tiny_weights, layout, n_cached, T, ansan, seed, data
):
    # the rule builds any rows as the dense matrix holds them, and a forward
    # given the rule is bitwise the forward given that matrix
    config = tiny_weights.config
    rng = np.random.default_rng(seed)
    n = n_cached or 0
    flags = chunk_flags(rng, layout, n, T)
    if not ansan:
        flags[:] = 0  # one sequence with no anchor: causal masks
    rule = mask_rows(flags[n:], flags[:n])
    dense = np.asarray(rule)
    full = naive_anchor_mask(flags[:, 0], flags[:, 1]) if ansan else naive_causal_mask(n + T)
    assert dense.dtype == np.uint8 and rule.shape == (T, n + T)
    assert np.array_equal(dense, full[n:])
    rows = data.draw(st.one_of(
        st.lists(st.integers(-T, T - 1), max_size=2 * T),
        st.builds(slice, st.integers(-T, T) | st.none(), st.integers(-T, T) | st.none(),
                  st.sampled_from([None, 1, 2, -1])),
        st.integers(-T, T - 1),
    ))
    got = rule[rows]
    assert got.dtype == bool and np.array_equal(got, dense[rows])

    every_row = st.none()
    kept = data.draw(every_row | st.lists(st.integers(0, T - 1), unique=True, max_size=T))
    picked = data.draw(every_row | st.lists(
        st.integers(-T, T - 1), min_size=0 if n_cached is not None and kept != [] else 1,
        max_size=T, unique=True,
    ))
    cache = None
    if n_cached is not None:
        cache = AnchorKVCache()
        if n:
            advance(tiny_weights, cache, rng.integers(0, config.vocab_size, n), flags[:n])
    ids = rng.integers(0, config.vocab_size, T)

    def run(mask):
        kv = None if cache is None else cache.stacked(T, config)
        for layer in kv or ():
            for a in layer:
                a[:, n:] = np.nan  # a slot a forward does not write stays NaN
        out = forward(tiny_weights, ids, mask, kv, np.arange(n, n + T), True,
                      logit_rows=picked, kv_rows=kept)
        rows_kept = slice(None) if kept is None else kept
        return out, [a[:, n:][:, rows_kept].copy() for layer in kv or () for a in layer]

    (by_rule, rule_kv), (by_dense, dense_kv) = run(rule), run(dense.astype(bool))
    assert np.array_equal(by_rule.logits, by_dense.logits)
    assert all(np.array_equal(a, b) for a, b in zip(rule_kv, dense_kv, strict=True))
    assert all(np.array_equal(a, b) for a, b in zip(by_rule.attn, by_dense.attn, strict=True))

    if n == 0 and T > 1:
        # training reads the rule whole: loss and gradients are bitwise the
        # ones under the oracle's matrix
        block = SegmentedText(ids.tolist(), flags[:, 0].astype(bool).tolist(), flags[:, 1].tolist())
        loss, grads = loss_and_grads(tiny_weights, block, rule)
        want_loss, want = loss_and_grads(tiny_weights, block, full.astype(bool))
        assert loss == want_loss
        assert all(np.array_equal(grads[name], want[name]) for name in want)


TILE_RTOL = 1e-12


def tile_close(a, b):
    """Equal shapes, and equal to TILE_RTOL of b's largest magnitude."""
    return a.shape == b.shape and (
        a.size == 0 or np.abs(a - b).max() <= TILE_RTOL * np.abs(b).max()
    )


@contextlib.contextmanager
def tiling(tile_rows, min_pairs):
    """attention's tile size (None: the module's) and threshold (None:
    no call reaches it) set for the block."""
    with pytest.MonkeyPatch.context() as mp:
        if tile_rows is not None:
            mp.setattr(autodiff, "TILE_ROWS", tile_rows)
        mp.setattr(autodiff, "TILE_MIN_PAIRS", 2**62 if min_pairs is None else min_pairs)
        yield


@settings(max_examples=150, derandomize=True, database=None, deadline=None)
@given(
    st.sampled_from(["no-anchor", "anchor-last", "anchors-mid"]),
    st.sampled_from([None, 0, 1, 7]), st.integers(1, 24), st.booleans(),
    st.sampled_from([1, 2, 3, 5, 64]), st.integers(0, 2**32 - 1), st.data(),
)
def test_tiled_forward_matches_one_tile(
    tiny_weights, layout, n_cached, T, ansan, tile_rows, seed, data
):
    # a forward whose attention runs in tiles of query rows, each over only
    # the key columns its rows keep, returns and keeps what the forward
    # whose attention is one tile over every key does, to rounding: the
    # keys a tile skips only add exact zeros to the one tile's sums
    config = tiny_weights.config
    rng = np.random.default_rng(seed)
    n = n_cached or 0
    flags = chunk_flags(rng, layout, n, T)
    if not ansan:
        flags[:] = 0  # one sequence with no anchor: causal masks
    ids = rng.integers(0, config.vocab_size, n + T)
    rows = mask_rows(flags[n:], flags[:n])
    every_row = st.none()
    kept = data.draw(every_row | st.lists(st.integers(0, T - 1), unique=True, max_size=T))
    picked = data.draw(every_row | st.lists(
        st.integers(-T, T - 1), min_size=0 if n_cached is not None and kept != [] else 1,
        max_size=T, unique=True,
    ))
    cache = None
    if n_cached is not None:
        cache = AnchorKVCache()
        if n:
            advance(tiny_weights, cache, ids[:n], flags[:n])

    def run(min_pairs):
        kv = None if cache is None else cache.stacked(T, config)
        for layer in kv or ():
            for a in layer:
                a[:, n:] = np.nan  # a slot a forward does not write stays NaN
        with tiling(tile_rows, min_pairs):
            out = forward(tiny_weights, ids[n:], rows, kv, np.arange(n, n + T), True,
                          logit_rows=picked, kv_rows=kept)
        rows_kept = slice(None) if kept is None else kept
        return out, [a[:, n:][:, rows_kept].copy() for layer in kv or () for a in layer]

    (by_tile, by_tile_kv), (one, one_kv) = run(0), run(None)
    assert tile_close(by_tile.logits, one.logits)
    assert all(tile_close(a, b) for a, b in zip(by_tile_kv, one_kv, strict=True))
    # the collected probabilities hold zeros at the keys a tile skips
    assert all(tile_close(a, b) for a, b in zip(by_tile.attn, one.attn, strict=True))


@pytest.mark.parametrize("tile_rows", [None, 96])
def test_tiled_training_gradients_match_one_tile(tiny_weights, tile_rows):
    # a 320-token block crosses TILE_MIN_PAIRS, so its attention and the
    # backward run per tile; every gradient is the one-tile call's to rounding
    rng = np.random.default_rng(4)
    is_anchor = rng.random(320) < 0.12
    block = SegmentedText(
        ids=rng.integers(0, tiny_weights.config.vocab_size, 320).tolist(),
        is_anchor=is_anchor.tolist(), seq_index=np.r_[0, np.cumsum(is_anchor[:-1])].tolist(),
    )
    mask = anchor_rule(block)
    assert 320 * 320 >= autodiff.TILE_MIN_PAIRS
    with tiling(tile_rows, 0):
        loss, grads = loss_and_grads(tiny_weights, block, mask)
    with tiling(tile_rows, None):
        want_loss, want = loss_and_grads(tiny_weights, block, mask)
    assert abs(loss - want_loss) <= TILE_RTOL * abs(want_loss)
    assert all(tile_close(grads[name], want[name]) for name in want)


def test_reducing_advance_skips_rows_only_under_anchor_masks(tiny_weights, layer_queries):
    # under causal masks the next-token row keeps every key, so every row
    # runs in every layer below the last; under anchor masks it keeps the
    # anchors and its own sequence, which is all the layer below runs
    flags = np.array([[0, 0], [1, 0], [0, 1], [1, 1], [0, 2]])
    for ansan in (False, True):
        advance(tiny_weights, AnchorKVCache(), [1, 2, 3, 4, 5], flags * ansan, reduce=True)
    assert layer_queries() == [[5, 1], [3, 1]]


@pytest.mark.parametrize("bad", [[], [3], [-4], slice(3, None), [0.5], 1, [[0]]],
                         ids=["empty", "past-end", "before-start", "empty-slice", "float",
                              "scalar", "nested"])
def test_bad_logit_rows_rejected(tiny_weights, bad):
    with pytest.raises(ContractError, match="logit_rows"):
        forward(tiny_weights, [1, 2, 3], causal_rule(3), logit_rows=bad)
