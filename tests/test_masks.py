import numpy as np

from anchorlm.corpus import SegmentedText
from anchorlm.masks import (
    TokenFlags,
    anchor_mask,
    causal_mask,
    mask_rows,
)
from conftest import random_segmented
from oracles import naive_anchor_mask


def seg(flags, seqs):
    return SegmentedText(ids=list(range(len(flags))), is_anchor=flags, seq_index=seqs)


def test_causal_small():
    assert causal_mask(0).shape == (0, 0)
    assert causal_mask(1).tolist() == [[1]]
    assert causal_mask(3).tolist() == [[1, 0, 0], [1, 1, 0], [1, 1, 1]]


def test_anchor_mask_two_sequences():
    # [t, a | t, t]: a non-anchor query sees the previous anchor but not
    # the previous non-anchor
    m = anchor_mask(seg([False, True, False, False], [0, 0, 1, 1]))
    assert m[2].tolist() == [0, 1, 1, 0]
    assert m[3].tolist() == [0, 1, 1, 1]


def test_anchor_mask_anchor_query_blocks_everything_previous():
    # [t, a | t, a]: an anchor attends only within its own sequence
    m = anchor_mask(seg([False, True, False, True], [0, 0, 1, 1]))
    assert m[3].tolist() == [0, 0, 1, 1]


def test_anchor_mask_no_anchors_equals_causal():
    s = seg([False] * 5, [0] * 5)
    assert np.array_equal(anchor_mask(s), causal_mask(5))


def test_decode_row_non_anchor_sees_previous_anchors():
    row = mask_rows(
        [TokenFlags(False, 2)], [TokenFlags(True, 0), TokenFlags(True, 1)]
    )[0]
    assert row.tolist() == [1, 1, 1]


def test_decode_row_anchor_blocks_previous_sequences():
    row = mask_rows(
        [TokenFlags(True, 2)], [TokenFlags(True, 0), TokenFlags(False, 2)]
    )[0]
    assert row.tolist() == [0, 1, 1]


def test_decode_row_empty_cache():
    assert mask_rows([TokenFlags(False, 0)], [])[0].tolist() == [1]


def test_anchor_mask_matches_oracle_randomized():
    rng = np.random.default_rng(42)
    for _ in range(100):
        s = random_segmented(rng)
        assert np.array_equal(anchor_mask(s), naive_anchor_mask(s.is_anchor, s.seq_index))


def test_row_by_row_reconstruction_matches_matrix():
    rng = np.random.default_rng(7)
    for _ in range(50):
        s = random_segmented(rng, max_len=32)
        full = anchor_mask(s)
        flags = [TokenFlags(a, q) for a, q in zip(s.is_anchor, s.seq_index)]
        for i in range(len(s)):
            row = mask_rows([flags[i]], flags[:i])[0]
            assert np.array_equal(row, full[i, : i + 1])
            assert not full[i, i + 1 :].any()


def test_anchor_mask_never_exceeds_causal():
    rng = np.random.default_rng(3)
    for _ in range(50):
        s = random_segmented(rng, max_len=48)
        assert np.all(anchor_mask(s) <= causal_mask(len(s)))


def test_every_row_keeps_self():
    rng = np.random.default_rng(9)
    for _ in range(50):
        s = random_segmented(rng, max_len=48)
        assert np.all(np.diag(anchor_mask(s)) == 1)


def test_single_token():
    assert anchor_mask(seg([True], [0])).tolist() == [[1]]
