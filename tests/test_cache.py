import numpy as np
import pytest

from anchorlm.cache import AnchorKVCache
from anchorlm.corpus import SegmentedText
from anchorlm.errors import ContractError, UndefinedMetricError
from anchorlm.infer import advance
from anchorlm.masks import mask_rows, segment_flags
from anchorlm.model import ModelConfig, forward
from oracles import naive_anchor_mask, naive_reduction

ONE_HEAD = ModelConfig(1, 1, 1, 2)  # slots of one layer, one head, head_dim 2


def commit(cache, flags):
    """Commit one entry per (is_anchor, seq_index) flag through the one
    write path, as a forward over `stacked` would; returns the per-layer
    (K, V) views whose free slots the entries took."""
    kv = cache.stacked(len(flags), ONE_HEAD)
    cache.extend_from_forward(flags)
    return kv


def filled(flags):
    """Cache from a flag string like 'nnAnn' (A = anchor)."""
    cache = AnchorKVCache()
    commit(cache, [(ch == "A", 0) for ch in flags])
    return cache


def test_append_counts():
    cache = AnchorKVCache()
    commit(cache, [(False, 0)])
    assert len(cache) == 1
    commit(cache, [(False, 0)])
    commit(cache, [(False, 0)])
    assert len(cache) == 3
    assert cache.stats.peak_live_count == 3
    assert cache.stats.total_appends == 3


def test_entries_setter_rejects_bad_slots():
    cache = filled("nnn")
    for slots in ([1, 1], [2, 0], [0, 3], [-1]):  # repeated, decreasing, out of range
        with pytest.raises(ContractError):
            cache.entries = slots
    assert cache.live_positions() == [0, 1, 2]


def test_entries_setter_keeps_the_given_slots():
    cache = filled("nAnn")
    assert cache.entries == [0, 1, 2, 3]
    cache.entries = cache.entries[-1:]
    assert cache.live_positions() == [3] and cache.flag_array().tolist() == [[0, 0]]
    assert cache.stats.total_discards == 0  # statistics are left unchanged
    commit(cache, [(False, 0)])
    assert cache.live_positions() == [3, 4]


def test_reduction_keeps_tail_and_anchors():
    cache = filled("nnAnn")
    cache.reduction()
    assert cache.live_positions() == [2, 3, 4]


def test_reduction_two_anchors():
    cache = filled("nAnA")
    cache.reduction()
    assert cache.live_positions() == [1, 3]


def test_reduction_without_anchor_is_identity():
    cache = filled("nnn")
    cache.reduction()
    assert cache.live_positions() == [0, 1, 2]
    assert cache.stats.total_discards == 0


def test_reduction_idempotent():
    rng = np.random.default_rng(2)
    for _ in range(50):
        flags = "".join("A" if rng.random() < 0.3 else "n" for _ in range(rng.integers(1, 20)))
        cache = filled(flags)
        cache.reduction()
        once = cache.live_positions()
        cache.reduction()
        assert cache.live_positions() == once


def test_reduction_matches_oracle_randomized():
    rng = np.random.default_rng(8)
    for _ in range(200):
        flags = [bool(rng.random() < 0.25) for _ in range(int(rng.integers(0, 24)))]
        cache = AnchorKVCache()
        for is_anchor in flags:
            commit(cache, [(is_anchor, 0)])
        cache.reduction()
        expected = naive_reduction(list(enumerate(flags)))
        assert set(cache.live_positions()) == expected


def test_anchor_and_tail_conservation():
    rng = np.random.default_rng(4)
    for _ in range(100):
        flags = [bool(rng.random() < 0.3) for _ in range(int(rng.integers(1, 30)))]
        cache = AnchorKVCache()
        for is_anchor in flags:
            commit(cache, [(is_anchor, 0)])
        anchors = {p for p, a in enumerate(flags) if a}
        last = max(anchors) if anchors else None
        cache.reduction()
        live = set(cache.live_positions())
        assert anchors <= live
        if last is not None:
            assert {p for p in range(last, len(flags))} <= live


def test_live_flags_order():
    cache = AnchorKVCache()
    commit(cache, [(False, 0)])
    commit(cache, [(True, 0)])
    commit(cache, [(False, 1)])
    flags = cache.flag_array()
    assert [bool(a) for a in flags[:, 0]] == [False, True, False]
    assert flags[:, 1].tolist() == [0, 0, 1]
    cache.reduction()
    assert len(cache.flag_array()) == 2


def test_metric_ratio():
    cache = filled("nnnnnnnnAn")  # 10 appends, anchor at 8
    cache.reduction()
    assert cache.stats.total_discards == 8
    assert cache.reduction_metric() == 0.8


def test_metric_no_reduction_zero():
    cache = filled("nnn")
    assert cache.reduction_metric() == 0.0


def test_metric_undefined_on_empty():
    with pytest.raises(UndefinedMetricError):
        AnchorKVCache().reduction_metric()


def test_stats_monotone_and_consistent():
    rng = np.random.default_rng(6)
    cache = AnchorKVCache()
    prev_peak = 0
    for _ in range(30):
        for _ in range(int(rng.integers(1, 5))):
            commit(cache, [(bool(rng.random() < 0.3), 0)])
        cache.reduction()
        stats = cache.stats
        assert stats.peak_live_count >= prev_peak
        prev_peak = stats.peak_live_count
        assert stats.total_appends == len(cache) + stats.total_discards
        assert 0.0 <= cache.reduction_metric() <= 1.0


def test_clone_is_independent():
    cache = filled("nAn")
    clone = cache.clone()
    commit(clone, [(False, 0)])
    assert len(cache) == 3 and len(clone) == 4
    assert clone.stats.total_appends == 1  # clone counts only its own appends


# -- array layout -----------------------------------------------------------------


def forwarded(weights, seg, start, stop, cache):
    """Run tokens [start, stop) of seg against the cache and commit them;
    returns the per-layer (K, V) the forward wrote for them."""
    new_flags = segment_flags(seg)[start:stop]
    rows = mask_rows(new_flags, cache.flag_array())
    kv = cache.stacked(stop - start, weights.config)
    forward(weights, seg.ids[start:stop], rows, kv, positions=np.arange(start, stop))
    written = [(k[:, len(cache):].copy(), v[:, len(cache):].copy()) for k, v in kv]
    cache.extend_from_forward(new_flags)
    return written


def test_stacked_returns_views_of_the_cache():
    cache = filled("nnAnn")
    first = cache.stacked()
    second = cache.stacked()
    for (k1, v1), (k2, v2) in zip(first, second):
        assert np.shares_memory(k1, k2) and np.shares_memory(v1, v2)
        assert not np.shares_memory(k1, v1)


def test_clone_and_source_stay_independent(tiny_weights):
    seg = SegmentedText(
        ids=[1, 2, 3, 4, 5, 6, 7, 8],
        is_anchor=[False, True, False, False, True, False, False, False],
        seq_index=[0, 0, 1, 1, 1, 2, 2, 2],
    )
    source = AnchorKVCache()
    forwarded(tiny_weights, seg, 0, 4, source)
    clone = source.clone()
    before = [(k.copy(), v.copy()) for k, v in source.stacked()]

    forwarded(tiny_weights, seg, 4, 6, clone)
    clone.reduction()
    assert source.live_positions() == [0, 1, 2, 3]
    for (k, v), (k0, v0) in zip(source.stacked(), before):
        assert np.array_equal(k, k0) and np.array_equal(v, v0)

    clone_positions = clone.live_positions()
    clone_before = [(k.copy(), v.copy()) for k, v in clone.stacked()]
    source.reduction()
    forwarded(tiny_weights, seg, 4, 8, source)
    assert clone.live_positions() == clone_positions == [1, 4, 5]
    for (k, v), (k0, v0) in zip(clone.stacked(), clone_before):
        assert np.array_equal(k, k0) and np.array_equal(v, v0)


def test_extend_after_reduction_keeps_rows_aligned(tiny_weights):
    seg = SegmentedText(
        ids=[3, 1, 4, 1, 5, 9, 2, 6, 5, 3],
        is_anchor=[False, False, True, False, True, False, False, True, False, False],
        seq_index=[0, 0, 0, 1, 1, 2, 2, 2, 3, 3],
    )
    cache = AnchorKVCache()
    outputs = {}
    for start, stop in ((0, 5), (5, 8), (8, 10)):
        written = forwarded(tiny_weights, seg, start, stop, cache)
        for t, pos in enumerate(range(start, stop)):
            outputs[pos] = [(k[:, t], v[:, t]) for k, v in written]
        cache.reduction()
    positions = cache.live_positions()
    assert positions == [2, 4, 7, 8, 9]
    # reduction drops only keys no later query sees, so every committed row
    # also matches one forward over the whole segment
    whole = AnchorKVCache().stacked(len(seg), tiny_weights.config)
    mask = naive_anchor_mask(seg.is_anchor, seg.seq_index).astype(bool)
    forward(tiny_weights, seg.ids, mask, whole, positions=np.arange(len(seg)))
    for layer, (keys, values) in enumerate(cache.stacked()):
        for slot, pos in enumerate(positions):
            k, v = outputs[pos][layer]
            assert np.array_equal(keys[:, slot], k) and np.array_equal(values[:, slot], v)
            np.testing.assert_allclose(k, whole[layer][0][:, pos], rtol=1e-9)
            np.testing.assert_allclose(v, whole[layer][1][:, pos], rtol=1e-9)


# -- attending in place -------------------------------------------------------------


SEG = SegmentedText(
    ids=[3, 1, 4, 1, 5, 9, 2, 6, 5, 3],
    is_anchor=[False, False, True, False, True, False, False, True, False, False],
    seq_index=[0, 0, 0, 1, 1, 2, 2, 2, 3, 3],
)


def live_rows(cache):
    return [(k.copy(), v.copy()) for k, v in cache.stacked()]


def test_attend_leaves_the_live_cache_unchanged(tiny_weights):
    cache = AnchorKVCache()
    advance(tiny_weights, cache, SEG.ids[:5], segment_flags(SEG)[:5])
    cache.reduction()
    before = live_rows(cache)
    positions, flags = cache.live_positions(), cache.flag_array().copy()
    appends = cache.stats.total_appends
    # enough new tokens that the free slots must grow past the capacity
    ids = [2, 7, 1, 8, 2, 8, 1, 8, 2, 8, 4, 5, 9, 0, 4]
    rule = mask_rows([(False, 3)] * len(ids), cache.flag_array())
    kv = cache.stacked(len(ids), tiny_weights.config)
    forward(tiny_weights, ids, rule, kv, positions=cache.next_positions(len(ids)))
    assert len(cache) == len(before[0][0][0]) and cache.stats.total_appends == appends
    assert cache.live_positions() == positions
    assert np.array_equal(cache.flag_array(), flags)
    for (k, v), (k0, v0) in zip(cache.stacked(), before):
        assert np.array_equal(k, k0) and np.array_equal(v, v0)


def test_committed_rows_match_a_forward_from_scratch(tiny_weights):
    cache = AnchorKVCache()
    for start, stop in ((0, 5), (5, 6), (6, 7), (7, 10)):
        advance(tiny_weights, cache, SEG.ids[start:stop], segment_flags(SEG)[start:stop])
    scratch = AnchorKVCache().stacked(len(SEG), tiny_weights.config)
    mask = naive_anchor_mask(SEG.is_anchor, SEG.seq_index).astype(bool)
    forward(tiny_weights, SEG.ids, mask, scratch, positions=np.arange(len(SEG)))
    assert cache.live_positions() == list(range(len(SEG)))
    for (k, v), (k0, v0) in zip(cache.stacked(), scratch):
        np.testing.assert_allclose(k, k0, rtol=1e-9)
        np.testing.assert_allclose(v, v0, rtol=1e-9)


def test_growing_stacked_keeps_rows_aligned():
    cache = AnchorKVCache()
    for pos, ch in enumerate("nnnAnnnnnnnnAnnn"):  # 16 entries fill the first capacity
        (keys, values), = commit(cache, [(ch == "A", 0)])
        keys[0, pos], values[0, pos] = pos, -pos
    cache.reduction()
    live = cache.live_positions()
    (keys, values), = cache.stacked(20)
    assert keys.shape == (1, len(live) + 20, 2)
    assert keys[0, : len(live), 0].tolist() == live
    assert (-values[0, : len(live), 1]).tolist() == live
    keys[0, len(live) :] = np.arange(16, 36)[:, None]
    cache.extend_from_forward([(False, 1)] * 20)
    (keys, _), = cache.stacked()
    assert keys[0, :, 0].tolist() == cache.live_positions() == live + list(range(16, 36))


def test_unshaped_cache_needs_config():
    # without a shape, the free slots would hold no keys/values at all
    with pytest.raises(ContractError, match="config"):
        AnchorKVCache().stacked(1)


def test_reducing_a_clone_leaves_the_source(tiny_weights):
    # a clone starts full, so its first write is an in-place reduction
    source = AnchorKVCache()
    advance(tiny_weights, source, SEG.ids[:5], segment_flags(SEG)[:5])
    before = live_rows(source)
    clone = source.clone()
    clone.reduction()
    assert clone.live_positions() == [2, 4] and source.live_positions() == [0, 1, 2, 3, 4]
    for (k, v), (k0, v0) in zip(source.stacked(), before):
        assert np.array_equal(k, k0) and np.array_equal(v, v0)
