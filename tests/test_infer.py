import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import anchorlm.autodiff as autodiff
import anchorlm.evaluate as evaluate
import anchorlm.infer as infer
from anchorlm.cache import AnchorKVCache
from anchorlm.corpus import SegmentedText
from anchorlm.errors import ContractError, NumericError
from anchorlm.infer import (
    GenerationConfig,
    _sample,
    advance,
    generate,
    log_softmax,
    score_continuation,
    score_trees,
)
from anchorlm.masks import MaskRule, mask_rows, no_anchor, segment_flags
from anchorlm.model import forward, init_weights
from conftest import random_segmented, tiny_config
from oracles import naive_causal_mask, naive_log_softmax


def anchored_prefix(anchor_id=4):
    return SegmentedText(
        ids=[5, 6, anchor_id, 7, 8, anchor_id, 9],
        is_anchor=[False, False, True, False, False, True, False],
        seq_index=[0, 0, 0, 1, 1, 1, 2],
    )


def gen_cfg(**kw):
    base = dict(max_new_tokens=12, anchor_token_id=4, eos_id=None)
    base.update(kw)
    return GenerationConfig(**base)


def test_reduction_does_not_change_greedy_output(tiny_weights):
    prefix = anchored_prefix()
    on = generate(tiny_weights, prefix, gen_cfg(reduction_enabled=True, collect_logits=True))
    off = generate(tiny_weights, prefix, gen_cfg(reduction_enabled=False, collect_logits=True))
    assert on.ids == off.ids
    for a, b in zip(on.sampled_logits, off.sampled_logits):
        scale = np.abs(b).max()
        assert np.max(np.abs(a - b)) / scale < 1e-5
    assert on.stats.total_discards > 0
    assert max(on.live_sizes) < max(off.live_sizes)


def test_no_anchor_prefix_grows_one_per_step():
    config = tiny_config(vocab_size=13)
    weights = init_weights(config, seed=2)
    # anchor_token_id None: nothing ever detected as an anchor
    prefix = SegmentedText(ids=[5, 6, 7], is_anchor=[False] * 3, seq_index=[0] * 3)
    res = generate(weights, prefix, gen_cfg(anchor_token_id=None, max_new_tokens=8))
    assert res.live_sizes == [3 + t for t in range(8)]
    assert res.stats.total_discards == 0


def test_max_new_tokens_one(tiny_weights):
    res = generate(tiny_weights, anchored_prefix(), gen_cfg(max_new_tokens=1))
    assert len(res.ids) == 1 and len(res.live_sizes) == 1


def test_eos_stops_generation(tiny_weights):
    probe = generate(tiny_weights, anchored_prefix(), gen_cfg(max_new_tokens=1))
    first = probe.ids[0]
    res = generate(tiny_weights, anchored_prefix(), gen_cfg(max_new_tokens=50, eos_id=first))
    assert res.ids == [first]


def test_generation_always_terminates(tiny_weights):
    res = generate(tiny_weights, anchored_prefix(), gen_cfg(max_new_tokens=40))
    assert len(res.ids) <= 40


def test_temperature_sampling_deterministic_per_seed(tiny_weights):
    a = generate(
        tiny_weights, anchored_prefix(), gen_cfg(temperature=1.0, sample_seed=11)
    )
    b = generate(
        tiny_weights, anchored_prefix(), gen_cfg(temperature=1.0, sample_seed=11)
    )
    c = generate(
        tiny_weights, anchored_prefix(), gen_cfg(temperature=1.0, sample_seed=12)
    )
    assert a.ids == b.ids
    assert a.ids != c.ids or len(a.ids) == 1


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(
    st.sampled_from([0.1, 1.0, 3.0]), st.integers(2, 300), st.floats(0.0, 60.0),
    st.integers(0, 2**32 - 1),
)
def test_sample_takes_the_draws_of_generator_choice(temperature, vocab_size, peak, seed):
    rng = np.random.default_rng(seed)
    logits = rng.normal(scale=4.0, size=vocab_size)
    # a high peak makes one probability 1 to within rounding
    logits[rng.integers(vocab_size)] += peak * temperature
    probs = np.exp(log_softmax(logits / temperature))
    cfg = gen_cfg(temperature=temperature)
    ours, twin = np.random.default_rng(seed), np.random.default_rng(seed)
    for _ in range(5):
        assert _sample(logits, cfg, ours) == twin.choice(vocab_size, p=probs / probs.sum())
        assert ours.bit_generator.state == twin.bit_generator.state


def test_sample_rejects_an_overflowing_distribution():
    cfg = gen_cfg(temperature=1e-308)
    with np.errstate(all="ignore"), pytest.raises(NumericError, match="sampling"):
        _sample(np.array([10.0, 1.0, 0.0]), cfg, np.random.default_rng(0))


def test_cache_bound_with_reduction(tiny_weights):
    prefix = anchored_prefix()
    res = generate(tiny_weights, prefix, gen_cfg(max_new_tokens=20))
    stream_anchor = list(prefix.is_anchor)
    for t, size in enumerate(res.live_sizes):
        anchors = sum(stream_anchor)
        since_last = 0
        for a in reversed(stream_anchor):
            if a:
                break
            since_last += 1
        assert size <= anchors + since_last
        if t < len(res.ids):
            stream_anchor.append(res.ids[t] == 4)


def test_prefix_too_long_rejected():
    config = tiny_config(context_len=4)
    weights = init_weights(config, seed=0)
    prefix = SegmentedText(ids=[1] * 5, is_anchor=[False] * 5, seq_index=[0] * 5)
    with pytest.raises(ContractError):
        generate(weights, prefix, gen_cfg(max_new_tokens=1))


def test_empty_prefix_rejected(tiny_weights):
    empty = SegmentedText(ids=[], is_anchor=[], seq_index=[])
    with pytest.raises(ContractError):
        generate(tiny_weights, empty, gen_cfg())


def test_generation_config_validation():
    with pytest.raises(ContractError):
        GenerationConfig(max_new_tokens=0)
    with pytest.raises(ContractError):
        GenerationConfig(max_new_tokens=1, temperature=0.0)
    with pytest.raises(ContractError):
        GenerationConfig(max_new_tokens=1, temperature=float("nan"))


# -- score_continuation ---------------------------------------------------------


def ctx(ids):
    return SegmentedText(ids=list(ids), is_anchor=[False] * len(ids), seq_index=[0] * len(ids))


def test_empty_continuation_rejected(tiny_weights):
    # a 0.0 score would beat every real choice's negative log-probability
    with pytest.raises(ContractError, match="continuation needs"):
        score_continuation(tiny_weights, ctx([1, 2]), [])
    with pytest.raises(ContractError, match="continuation needs"):
        score_trees(tiny_weights, AnchorKVCache(), [([1, 2], [(0, 0), (0, 0)], [[]])])


def test_uniform_model_continuation_score():
    config = tiny_config()
    weights = init_weights(config, seed=0)
    for arr in weights.arrays.values():
        arr[:] = 0.0
    got = score_continuation(weights, ctx([1, 2]), [3, 4, 5])
    assert abs(got - (-3 * np.log(config.vocab_size))) < 1e-9


def test_rigged_model_picks_favored_choice():
    config = tiny_config()
    weights = init_weights(config, seed=0)
    favored = 6
    for arr in weights.arrays.values():
        arr[:] = 0.0
    weights.arrays["embedding"][:] = 1.0
    weights.arrays["final_gain"][:] = 1.0
    weights.arrays["head"][:, favored] = 5.0  # constant hidden state -> logits favor one id
    choices = [[2], [favored], [3]]
    scores = [score_continuation(weights, ctx([1, 2, 3]), c) for c in choices]
    assert int(np.argmax(scores)) == 1


def test_overflow_rejected():
    config = tiny_config(context_len=5)
    weights = init_weights(config, seed=0)
    with pytest.raises(ContractError):
        score_continuation(weights, ctx([1, 2, 3]), [4, 5, 6])


def test_score_matches_generate_path(tiny_weights):
    # greedy generation maximizes per-step logprob; scoring the generated
    # token must beat scoring any other single token
    prefix = anchored_prefix()
    res = generate(tiny_weights, prefix, gen_cfg(max_new_tokens=1))
    best = res.ids[0]
    s_best = score_continuation(tiny_weights, prefix, [best])
    for other in range(tiny_weights.config.vocab_size):
        s = score_continuation(tiny_weights, prefix, [other])
        assert s <= s_best + 1e-12


@pytest.mark.parametrize("bad", [-1, 11], ids=["negative", "vocab_size"])
def test_continuation_ids_outside_vocab_rejected(tiny_weights, bad):
    # the final id is never fed to the model, so only scoring can check it
    prefix = anchored_prefix()
    with pytest.raises(ContractError, match="continuation ids"):
        score_continuation(tiny_weights, prefix, [4, bad])
    # the forest is checked as a whole: the bad id may sit in any tree
    good = (prefix.ids, segment_flags(prefix), [[1], [2, 3]])
    tree = (prefix.ids, segment_flags(prefix), [[1], [4, bad]])
    for trees in ([tree], [good, tree], [good, good, tree]):
        with pytest.raises(ContractError, match="continuation ids"):
            score_trees(tiny_weights, AnchorKVCache(), trees)


def test_tree_scores_equal_each_continuation_scored_alone_bitwise(tiny_weights, monkeypatch):
    # one log-softmax and one gather over the whole forest must give each
    # continuation the bits of a log-softmax over its own rows only
    logits = []

    def keep_logits(*args, **kwargs):
        out = forward(*args, **kwargs)
        logits.append(out.logits.copy())
        return out

    monkeypatch.setattr(infer, "forward", keep_logits)
    prefix = anchored_prefix()
    flags = segment_flags(prefix)
    trees = [
        (prefix.ids[:3], flags[:3], [[1], [2, 3], [5, 6, 7]]),  # trunk ends in an anchor
        (prefix.ids[3:], flags[3:], [[8, 9, 10, 0], [3]]),
        (prefix.ids[6:], flags[6:], [[7, 2], [10, 1, 1]]),
    ]
    scores = score_trees(tiny_weights, AnchorKVCache(), trees)
    (rows,) = logits
    # per tree its trunk's last row, then each continuation's branch rows
    row = 0
    for (_, _, continuations), got in zip(trees, scores):
        trunk, row = row, row + 1
        want = []
        for c in continuations:
            own = [trunk, *range(row, row + len(c) - 1)]
            row += len(c) - 1
            want.append(sum(log_softmax(rows[own])[np.arange(len(c)), c].tolist(), 0.0))
        assert got == want
    assert row == len(rows)


def test_empty_tree_continuation_rejected(tiny_weights):
    prefix = anchored_prefix()
    tree = (prefix.ids, segment_flags(prefix), [[1], []])
    with pytest.raises(ContractError, match="continuation needs"):
        score_trees(tiny_weights, AnchorKVCache(), [tree])


def test_generate_runs_one_last_layer_row_per_forward(tiny_weights, layer_queries):
    # only the next-token logits are read, the prefix's included
    generate(tiny_weights, anchored_prefix(), gen_cfg(max_new_tokens=3))
    assert [rows[-1] for rows in layer_queries()] == [1, 1, 1]


@pytest.mark.parametrize("use_ansan", [True, False])
def test_scoring_runs_the_last_layer_for_scored_rows(tiny_weights, layer_queries, use_ansan):
    prefix = anchored_prefix() if use_ansan else no_anchor(anchored_prefix())
    score_continuation(tiny_weights, prefix, [1, 2, 3])
    # per tree its trunk's last row, then every continuation token but the last
    trees = [
        (prefix.ids[:3], segment_flags(prefix)[:3], [[1], [2, 3], [5, 6, 7]]),
        (prefix.ids[3:], segment_flags(prefix)[3:], [[8, 9]]),
    ]
    score_trees(tiny_weights, AnchorKVCache(), trees)
    assert [rows[-1] for rows in layer_queries()] == [3, 1 + 3 + 1 + 1]


def test_scoring_skips_the_rows_a_closed_sequence_hides(tiny_weights, layer_queries):
    # the trunk closes two sequences, so the last layer's rows (the
    # trunk's last and one branch token) read only the anchors and the
    # open sequence: layer 0 runs 4 of the 8 new rows
    prefix = anchored_prefix()
    trees = [(prefix.ids, segment_flags(prefix), [[1], [2, 3]])]
    score_trees(tiny_weights, AnchorKVCache(), trees)
    assert layer_queries() == [[4, 2]]


@pytest.fixture
def mask_reads(monkeypatch):
    """Per read of a `MaskRule`, in call order, the number of rows built."""
    reads: list[int] = []
    getitem = MaskRule.__getitem__

    def spy(self, rows):
        out = getitem(self, rows)
        reads.append(len(out))
        return out

    monkeypatch.setattr(MaskRule, "__getitem__", spy)
    return reads


def test_noncached_scoring_reads_only_the_rows_it_runs(mask_reads):
    # an mc-sized prompt: 92 sequences of 8 tokens, each closed by an
    # anchor, and a 4-token continuation, so 739 new rows. The last layer
    # reads its 4 logit rows; they keep the 92 anchors, the last
    # sequence's other 7 tokens and the continuation's 3, which is all the
    # layer below reads. No 739 x 739 block is built
    weights = init_weights(tiny_config(context_len=1024), seed=7)
    n = 92 * 8
    context = SegmentedText(
        ids=[1 + i % 10 for i in range(n)], is_anchor=[i % 8 == 7 for i in range(n)],
        seq_index=[i // 8 for i in range(n)],
    )
    score_continuation(weights, context, [1, 2, 3, 4])
    assert mask_reads == [4, 92 + 7 + 3]


def test_decode_step_reads_one_mask_row(tiny_weights, mask_reads):
    cache, prefix = AnchorKVCache(), anchored_prefix()
    advance(tiny_weights, cache, prefix.ids, segment_flags(prefix), reduce=True)
    mask_reads.clear()
    advance(tiny_weights, cache, [3], np.array([[0, 2]]))
    assert mask_reads == [1]  # every row runs: one block, read once for both layers


def test_continuation_rows_causal_and_ansan():
    live = [(True, 0), (False, 1)]
    new = [(False, 1), (False, 1)]
    ansan = np.asarray(mask_rows(new, live))
    causal = np.asarray(mask_rows(np.zeros((2, 2)), np.zeros((2, 2))))  # no anchor
    assert ansan.tolist() == [[1, 1, 1, 0], [1, 1, 1, 1]]
    assert causal.tolist() == [[1, 1, 1, 0], [1, 1, 1, 1]]
    # a later-sequence query blocks the live non-anchor under ansan
    new2 = [(False, 2)]
    assert np.asarray(mask_rows(new2, live)).tolist() == [[1, 0, 1]]
    assert np.asarray(mask_rows(np.zeros((1, 2)), np.zeros((2, 2)))).tolist() == [[1, 1, 1]]


def test_score_continuation_random_masks_agree(tiny_weights):
    # under a no-anchor context, scoring is scoring under the causal oracle mask
    rng = np.random.default_rng(0)
    for _ in range(5):
        seg = random_segmented(rng, max_len=8)
        plain = ctx([i % 11 for i in seg.ids])
        cont = [int(rng.integers(0, 11)) for _ in range(3)]
        a = score_continuation(tiny_weights, plain, cont)
        ids = plain.ids + cont[:-1]
        logits = forward(tiny_weights, ids, naive_causal_mask(len(ids)).astype(bool)).logits
        b = sum(naive_log_softmax(logits[len(plain) - 1 + k])[c] for k, c in enumerate(cont))
        assert abs(a - b) < 1e-12


@pytest.fixture
def no_tensors(monkeypatch):
    """Fail the test if any autodiff Tensor is built while it runs."""

    def refuse(self, *args, **kwargs):
        raise AssertionError("inference built an autodiff Tensor")

    monkeypatch.setattr(autodiff.Tensor, "__init__", refuse)


def test_generate_builds_no_tensor(tiny_weights, no_tensors):
    res = generate(tiny_weights, anchored_prefix(), gen_cfg())
    assert len(res.ids) == 12


@pytest.mark.parametrize("use_ansan", [True, False])
def test_mc_scoring_builds_no_tensor(tiny_weights, no_tensors, use_ansan):
    prompt = anchored_prefix()
    demo = prompt.slice(0, 3)
    prepared = [evaluate._PreparedItem(prompt, [[1], [2, 3], [5, 6, 7]], 0)]
    if not use_ansan:
        demo, prepared = evaluate._without_anchors(demo, prepared)
    cached, _ = evaluate._score_cached(tiny_weights, demo, prepared)
    noncached = evaluate._score_noncache(tiny_weights, prepared)
    assert len(cached[0]) == len(noncached[0]) == 3


def test_perplexity_builds_no_tensor(tiny_weights, no_tensors):
    ppl = evaluate.perplexity(tiny_weights, anchored_prefix(), "ansan", 4)
    assert np.isfinite(ppl)


@pytest.mark.parametrize("use_ansan", [True, False])
def test_score_continuation_allocates_no_cache(tiny_weights, monkeypatch, use_ansan):
    # the non-cached baseline runs one plain forward; filling a cache that
    # is dropped right after would only add cost to that arm
    def refuse(self, *args, **kwargs):
        raise AssertionError("score_continuation read cache slots")

    monkeypatch.setattr(AnchorKVCache, "stacked", refuse)
    prefix = anchored_prefix() if use_ansan else no_anchor(anchored_prefix())
    score = score_continuation(tiny_weights, prefix, [1, 2, 3])
    assert np.isfinite(score)


@pytest.mark.parametrize("n_rows", [1, 2, 33])
@pytest.mark.parametrize("vocab_size", [5, 97, 4096])
def test_log_softmax_rows_equal_the_oracle_bitwise(n_rows, vocab_size):
    rng = np.random.default_rng(n_rows * vocab_size)
    x = rng.normal(scale=8.0, size=(n_rows, vocab_size))
    rows = log_softmax(x)
    assert rows.shape == x.shape
    for got, row in zip(rows, x):
        assert np.array_equal(got, naive_log_softmax(row))
    assert np.array_equal(log_softmax(x[0]), naive_log_softmax(x[0]))
