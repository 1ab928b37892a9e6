import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from anchorlm.corpus import SegmentedText
from anchorlm.masks import mask_rows, no_anchor, segment_flags
from conftest import causal_rule, random_segmented
from oracles import naive_anchor_mask, naive_causal_mask


def seg(flags, seqs):
    return SegmentedText(ids=list(range(len(flags))), is_anchor=flags, seq_index=seqs)


def dense(s):
    """The rule over a segment's own flags, as its 0/1 matrix."""
    return np.asarray(mask_rows(segment_flags(s)))


def test_causal_small():
    assert np.asarray(causal_rule(0)).shape == (0, 0)
    assert np.asarray(causal_rule(1)).tolist() == [[1]]
    assert np.asarray(causal_rule(3)).tolist() == [[1, 0, 0], [1, 1, 0], [1, 1, 1]]


def test_anchor_mask_two_sequences():
    # [t, a | t, t]: a non-anchor query sees the previous anchor but not
    # the previous non-anchor
    m = dense(seg([False, True, False, False], [0, 0, 1, 1]))
    assert m[2].tolist() == [0, 1, 1, 0]
    assert m[3].tolist() == [0, 1, 1, 1]


def test_anchor_mask_anchor_query_blocks_everything_previous():
    # [t, a | t, a]: an anchor attends only within its own sequence
    m = dense(seg([False, True, False, True], [0, 0, 1, 1]))
    assert m[3].tolist() == [0, 0, 1, 1]


def test_anchor_mask_no_anchors_equals_causal():
    s = seg([False] * 5, [0] * 5)
    assert np.array_equal(dense(s), naive_causal_mask(5))


def test_decode_row_non_anchor_sees_previous_anchors():
    row = mask_rows([(False, 2)], [(True, 0), (True, 1)])[0]
    assert row.tolist() == [1, 1, 1]


def test_decode_row_anchor_blocks_previous_sequences():
    row = mask_rows([(True, 2)], [(True, 0), (False, 2)])[0]
    assert row.tolist() == [0, 1, 1]


def test_decode_row_empty_cache():
    assert mask_rows([(False, 0)], [])[0].tolist() == [1]


def test_anchor_mask_matches_oracle_randomized():
    rng = np.random.default_rng(42)
    for _ in range(100):
        s = random_segmented(rng)
        assert np.array_equal(dense(s), naive_anchor_mask(s.is_anchor, s.seq_index))
        # the same ids as one sequence with no anchor give the causal rule
        assert np.array_equal(dense(no_anchor(s)), naive_causal_mask(len(s)))
        assert no_anchor(s).ids == s.ids


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(st.integers(0, 39), st.integers(1, 39), st.data())
def test_rule_over_flags_with_no_anchor_is_causal(K, T, data):
    # causal masks are the anchor rule over zero flags, one sequence with
    # no anchor, on cached keys too and read by any rows
    rule = mask_rows(np.zeros((T, 2), dtype=np.int64), np.zeros((K, 2), dtype=np.int64))
    rows = data.draw(st.one_of(
        st.builds(slice, st.integers(-T, T) | st.none(), st.integers(-T, T) | st.none(),
                  st.sampled_from([None, 1, 2, -1])),
        st.lists(st.integers(-T, T - 1), max_size=2 * T).map(lambda r: np.array(r, dtype=int)),
        st.integers(-T, T - 1),
    ))
    want = naive_causal_mask(K + T)[K:].astype(bool)[rows]
    got = rule[rows]
    assert got.dtype == bool and got.shape == want.shape and np.array_equal(got, want)


def test_row_by_row_reconstruction_matches_matrix():
    rng = np.random.default_rng(7)
    for _ in range(50):
        s = random_segmented(rng, max_len=32)
        full = naive_anchor_mask(s.is_anchor, s.seq_index)
        flags = list(zip(s.is_anchor, s.seq_index))
        for i in range(len(s)):
            row = mask_rows([flags[i]], flags[:i])[0]
            assert np.array_equal(row, full[i, : i + 1])
            assert not full[i, i + 1 :].any()


def test_anchor_mask_never_exceeds_causal():
    rng = np.random.default_rng(3)
    for _ in range(50):
        s = random_segmented(rng, max_len=48)
        assert np.all(dense(s) <= naive_causal_mask(len(s)))


def test_every_row_keeps_self():
    rng = np.random.default_rng(9)
    for _ in range(50):
        s = random_segmented(rng, max_len=48)
        assert np.all(np.diag(dense(s)) == 1)


def test_single_token():
    assert dense(seg([True], [0])).tolist() == [[1]]
