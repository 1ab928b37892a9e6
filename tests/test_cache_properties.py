"""Property tests: the vectorized mask rule and the array-backed cache
against the brute-force oracles, over generated flag layouts, split
points and reduction schedules; and generation with reduction on
against reduction off, over generated prefixes and sampling seeds."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from anchorlm.cache import AnchorKVCache
from anchorlm.corpus import SegmentedText
from anchorlm.infer import GenerationConfig, generate
from anchorlm.masks import mask_rows
from anchorlm.model import ModelConfig
from oracles import naive_anchor_mask, naive_reduction

# Sequences as (length, ends in an anchor) runs: the SegmentedText layout.
runs = st.lists(st.tuples(st.integers(1, 6), st.booleans()), min_size=1, max_size=10)


@st.composite
def schedules(draw):
    """A flag layout cut into chunks, each followed by a reduction or not."""
    flags = [
        (anchored and i == length - 1, seq)
        for seq, (length, anchored) in enumerate(draw(runs))
        for i in range(length)
    ]
    cuts = draw(st.sets(st.integers(1, len(flags) - 1), max_size=6)) if len(flags) > 1 else set()
    bounds = [0, *sorted(cuts), len(flags)]
    reduce_after = draw(st.lists(st.booleans(), min_size=len(bounds) - 1, max_size=len(bounds) - 1))
    return flags, list(zip(bounds, bounds[1:], reduce_after))


@settings(max_examples=150, derandomize=True, database=None, deadline=None)
@given(schedules())
def test_rule_and_reduction_match_oracles(schedule):
    flags, chunks = schedule
    oracle = naive_anchor_mask([a for a, _ in flags], [s for _, s in flags])
    cache = AnchorKVCache()
    for start, stop, reduce_now in chunks:
        live = cache.live_positions()
        new = list(range(start, stop))
        rows = mask_rows(flags[start:stop], cache.flag_array())
        assert np.array_equal(rows, oracle[start:stop][:, live + new])
        # what reduction discarded is blocked for every later query
        dropped = sorted(set(range(start)) - set(live))
        assert not oracle[start:, dropped].any()

        # each key row holds its own position, so misaligned rows show
        (keys, values), = cache.stacked(len(new), ModelConfig(1, 1, 1, 2))
        keys[0, len(live) :] = values[0, len(live) :] = np.asarray(new, dtype=float)[:, None]
        cache.extend_from_forward(flags[start:stop])
        if reduce_now:
            cache.reduction()
            seen = [(p, flags[p][0]) for p in range(stop)]
            assert set(cache.live_positions()) == naive_reduction(seen)
        (stored, _), = cache.stacked()
        assert stored[0, :, 0].tolist() == cache.live_positions()


ANCHOR_ID = 4


@st.composite
def prefixes(draw):
    """A prompt of at most 36 tokens whose anchors carry the anchor id; it
    ends in an anchor or not."""
    layout = draw(st.lists(st.tuples(st.integers(1, 6), st.booleans()), min_size=1, max_size=6))
    plain = st.integers(0, 10).filter(lambda t: t != ANCHOR_ID)
    ids, anchors, seqs = [], [], []
    for seq, (length, anchored) in enumerate(layout):
        for i in range(length):
            is_anchor = anchored and i == length - 1
            ids.append(ANCHOR_ID if is_anchor else draw(plain))
            anchors.append(is_anchor)
            seqs.append(seq)
    return SegmentedText(ids=ids, is_anchor=anchors, seq_index=seqs)


@settings(max_examples=60, derandomize=True, database=None, deadline=None)
@given(prefix=prefixes(), seed=st.integers(0, 2**16))
def test_reduction_is_lossless_in_generation(tiny_weights, prefix, seed):
    # temperature sampling over 11 near-uniform logits emits <AC> often,
    # so most examples reduce the cache mid-generation too
    on, off = (
        generate(tiny_weights, prefix, GenerationConfig(
            max_new_tokens=16, anchor_token_id=ANCHOR_ID, temperature=1.0,
            sample_seed=seed, reduction_enabled=reduce, collect_logits=True,
        ))
        for reduce in (True, False)
    )
    assert on.ids == off.ids
    for a, b in zip(on.sampled_logits, off.sampled_logits):
        assert np.max(np.abs(a - b)) / np.abs(b).max() < 1e-5
    for res in (on, off):
        live = res.final_cache.live_positions()
        assert all(p < q for p, q in zip(live, live[1:]))
        # every token but the last sampled one has been cached
        assert live[-1] == len(prefix) + len(res.ids) - 2
