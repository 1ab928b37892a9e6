import dataclasses
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from anchorlm import evaluate, infer
from anchorlm.cache import AnchorKVCache
from anchorlm.corpus import AnchorPolicy, SegmentedText, annotate, build_vocab, tokenize
from anchorlm.errors import ContractError, InputError, UndefinedMetricError
from anchorlm.evaluate import (
    MCItem,
    MetricsReport,
    _demo_part,
    _prompt,
    ablation_anchor_positions,
    item_order_digest,
    load_mc_items,
    perplexity,
    run_mc_task,
    save_mc_items,
)
from anchorlm.infer import advance, next_seq_index, score_continuation, score_trees
from anchorlm.masks import mask_rows, segment_flags
from anchorlm.model import ModelConfig, forward, init_weights
from anchorlm.synth import make_corpus, make_task, partner
from conftest import SCORE_RTOL, tiny_config
from oracles import naive_anchor_mask, naive_causal_mask, naive_log_softmax

AC = AnchorPolicy(mode="ac")
EP = AnchorPolicy(mode="ep")


@pytest.fixture(scope="module")
def ac_vocab(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("corpus")
    path = tmp / "corpus.txt"
    path.write_text("\n".join(make_corpus(30, seed=0)), encoding="utf-8")
    return build_vocab([path], AC, 256)


@pytest.fixture(scope="module")
def ac_model(ac_vocab):
    config = ModelConfig(
        vocab_size=len(ac_vocab), n_layers=2, n_heads=2, d_model=16, d_ff=32,
        context_len=256,
    )
    return init_weights(config, seed=3, anchor_id=ac_vocab.anchor_id)


def zero_weights(config):
    w = init_weights(config, seed=0)
    for arr in w.arrays.values():
        arr[:] = 0.0
    return w


def plain_seg(ids):
    return SegmentedText(ids=list(ids), is_anchor=[False] * len(ids), seq_index=[0] * len(ids))


# -- perplexity -----------------------------------------------------------------


def test_uniform_model_perplexity_equals_vocab_size():
    config = tiny_config(vocab_size=11)
    ppl = perplexity(zero_weights(config), plain_seg([1, 2, 3, 4, 5]), "causal", 8)
    assert abs(ppl - 11.0) < 1e-9


def test_single_window_matches_manual_sum(tiny_weights):
    seg = plain_seg([1, 5, 3, 7, 9])
    ppl = perplexity(tiny_weights, seg, "causal", 8)
    out = forward(tiny_weights, seg.ids, naive_causal_mask(5).astype(bool))
    nll = -sum(
        float(naive_log_softmax(out.logits[t])[seg.ids[t + 1]]) for t in range(4)
    )
    assert abs(ppl - np.exp(nll / 4)) < 1e-9


def test_windows_are_non_overlapping(tiny_weights):
    seg = plain_seg([1, 2, 3, 4, 5, 6, 7, 8])
    ppl = perplexity(tiny_weights, seg, "causal", 4)
    # manual: two independent windows of 4, three targets each
    total, count = 0.0, 0
    for lo in (0, 4):
        ids = seg.ids[lo : lo + 4]
        out = forward(tiny_weights, ids, naive_causal_mask(4).astype(bool))
        for t in range(3):
            total -= float(naive_log_softmax(out.logits[t])[ids[t + 1]])
            count += 1
    assert abs(ppl - np.exp(total / count)) < 1e-9


def test_inserted_anchor_targets_excluded(ac_vocab, ac_model):
    seg = annotate("the amber lamp holds the stone .", ac_vocab, AC)
    assert seg.ids[-1] == ac_vocab.anchor_id
    ppl_excl = perplexity(
        ac_model, seg, "ansan", 64, inserted_anchor_id=ac_vocab.anchor_id
    )
    ppl_incl = perplexity(ac_model, seg, "ansan", 64)
    assert ppl_excl != ppl_incl  # the anchor target really was dropped

    mask = naive_anchor_mask(seg.is_anchor, seg.seq_index).astype(bool)
    out = forward(ac_model, seg.ids, mask)
    nll, n = 0.0, 0
    for t in range(len(seg) - 1):
        if seg.ids[t + 1] == ac_vocab.anchor_id:
            continue
        nll -= float(naive_log_softmax(out.logits[t])[seg.ids[t + 1]])
        n += 1
    assert abs(ppl_excl - np.exp(nll / n)) < 1e-9


def test_perplexity_errors(tiny_weights):
    with pytest.raises(UndefinedMetricError):
        perplexity(tiny_weights, plain_seg([]), "causal", 8)
    with pytest.raises(ContractError):
        perplexity(tiny_weights, plain_seg([1, 2]), "causal", 10_000)


@pytest.mark.parametrize("mask_mode", ["anchor", "ANSAN"])
def test_perplexity_rejects_unknown_mask_mode(tiny_weights, mask_mode):
    # a misspelt mode must not fall back to causal masks
    with pytest.raises(ContractError, match="'causal', 'ansan'"):
        perplexity(tiny_weights, plain_seg([1, 2, 3]), mask_mode, 8)


# -- multiple choice ---------------------------------------------------------------


def rigged_model(config, favored):
    w = zero_weights(config)
    w.arrays["embedding"][:] = 1.0
    w.arrays["final_gain"][:] = 1.0
    w.arrays["head"][:, favored] = 5.0
    return w


def test_rigged_model_accuracy(ac_vocab):
    config = ModelConfig(
        vocab_size=len(ac_vocab), n_layers=1, n_heads=2, d_model=8, d_ff=16,
        context_len=128,
    )
    favored_tok = ac_vocab.id_to_token[10]
    weights = rigged_model(config, 10)
    win = MCItem("the amber lamp holds", (favored_tok, "stone"), 0)
    lose = MCItem("the amber lamp holds", ("stone", favored_tok), 0)
    rep_win = run_mc_task(weights, ac_vocab, [win], 0, AC, True, False)
    rep_lose = run_mc_task(weights, ac_vocab, [lose], 0, AC, True, False)
    assert rep_win.accuracy == 1.0
    assert rep_lose.accuracy == 0.0


def test_zero_shot_no_ansan_reduction_is_zero(ac_vocab, ac_model):
    items, _ = make_task(4, seed=1)
    report = run_mc_task(ac_model, ac_vocab, items, 0, AC, False, False)
    assert report.cache_reduction == 0.0
    assert report.mask_mode == "causal"


def test_demo_cache_reuse_matches_recompute(ac_vocab, ac_model):
    items, pool = make_task(6, seed=2)
    cached = run_mc_task(
        ac_model, ac_vocab, items, 3, AC, True, True, demo_pool=pool, seed=5
    )
    recomputed = run_mc_task(
        ac_model, ac_vocab, items, 3, AC, True, False, demo_pool=pool, seed=5
    )
    assert cached.accuracy == recomputed.accuracy
    assert cached.cache_reduction > 0.0
    assert recomputed.cache_reduction == 0.0


def test_per_item_argmax_consistency(ac_vocab, ac_model):
    # stronger than accuracy equality: identical picks item by item
    from anchorlm.evaluate import _prepare_items, _score_cached, _score_noncache

    items, pool = make_task(5, seed=3)
    demo_texts = [p.context + " " + p.choices[p.gold] for p in pool[:2]]
    demo, prepared, _ = _prepare_items(items, demo_texts, ac_vocab, AC, 256)
    cached, _ = _score_cached(ac_model, demo, prepared)
    plain = _score_noncache(ac_model, prepared)
    for a, b in zip(cached, plain):
        if a:
            assert int(np.argmax(a)) == int(np.argmax(b))
            np.testing.assert_allclose(a, b, rtol=1e-6, atol=1e-9)


DEMOS = [
    "the amber lamp holds the stone .",
    "a birch sign marks the river . every cedar path leads to the cloud .",
    "the dusk lamp holds the flame .",
]
# name -> (policy, demonstrations); "ep-tail" ends its demo part mid-sequence
CHUNK_CASES = {
    "ac": (AC, DEMOS),
    "ep": (EP, DEMOS),
    "every-n=7": (AnchorPolicy(mode="every_n", n=7), DEMOS),
    "ep-tail": (EP, DEMOS + ["a glade sign marks"]),
}


def record_calls(monkeypatch):
    """Make the evaluator's `advance` (demonstration part) and
    `score_trees` (one per packed group of items) record their names and
    how many tokens, or items, they take, and count the model's forward
    calls."""
    calls, forwards = [], []

    def spy(fn):
        def call(weights, cache, taken, *rest, **kwargs):
            calls.append((fn.__name__, len(taken)))
            return fn(weights, cache, taken, *rest, **kwargs)

        return call

    def counted_forward(*args, **kwargs):
        forwards.append(len(args[1]))
        return forward(*args, **kwargs)

    monkeypatch.setattr(evaluate, "advance", spy(advance))
    monkeypatch.setattr(evaluate, "score_trees", spy(score_trees))
    for module in (infer, evaluate):
        monkeypatch.setattr(module, "forward", counted_forward)
    return calls, forwards


def item_tokens(prep, demo):
    """New tokens an item adds to a packed forward: its context, then
    every choice but its last token."""
    return len(prep.prompt) - len(demo) + sum(len(c) - 1 for c in prep.choice_ids)


@pytest.mark.parametrize("case", list(CHUNK_CASES))
def test_chunked_demo_prefill(ac_vocab, ac_model, monkeypatch, case, layer_queries):
    policy, demos = CHUNK_CASES[case]
    items, _ = make_task(4, seed=8)
    demo, prepared, _ = evaluate._prepare_items(items, demos, ac_vocab, policy, 256)
    demo_len = len(demo)
    flags = segment_flags(demo)
    anchors = np.flatnonzero(flags[:, 0])
    tail = demo_len - 1 - anchors[-1]
    assert (tail > 0) == (case in ("every-n=7", "ep-tail"))
    assert flags[-1, 1] >= 1  # two or more sequences in the demo part
    assert sum(item_tokens(p, demo) for p in prepared) <= evaluate.ITEM_TOKEN_BUDGET

    calls, forwards = record_calls(monkeypatch)
    cached, acct = evaluate._score_cached(ac_model, demo, prepared)
    # one prefill of the whole demonstration part, then one forward for
    # every item, which fit the budget together
    assert calls == [("advance", demo_len), ("score_trees", len(prepared))]
    assert len(forwards) == 2
    # the prefill reads no logits, and layer 0 runs only the rows the
    # reduction keeps: every anchor and the tail after the last one
    kept = len(anchors) + tail
    assert layer_queries()[0] == [kept, 0]

    plain = evaluate._score_noncache(ac_model, prepared)
    for a, b in zip(cached, plain):
        a, b = np.asarray(a), np.asarray(b)
        assert np.all(np.abs(a - b) <= SCORE_RTOL * np.maximum(1.0, np.abs(b)))
        assert int(np.argmax(a)) == int(np.argmax(b))

    assert acct.total_discards == demo_len - kept > 0
    # item contexts are scored in scratch slots and never become live
    assert acct.total_appends == acct.peak_live_count == demo_len


# 3, 5, 10, 3 and 3 new tokens: a 3-token context with 1-token choices,
# a 4-token context with a 2-token choice, a 9-token context likewise
BUDGET_ITEMS = [
    MCItem("the amber lamp", ("stone", "birch"), 0),
    MCItem("the amber lamp holds", ("stone", "the stone"), 1),
    MCItem("the amber lamp holds the stone . the birch", ("stone", "the stone"), 0),
    MCItem("a birch sign", ("lamp", "stone"), 1),
    MCItem("the lamp holds", ("stone", "zzz"), 0),
]
# budget -> items per packed forward
BUDGET_CASES = {
    "exact-fill": (8, [2, 1, 2]),  # 3 + 5 fill it; 10 is over it; 3 + 3
    "over-budget": (9, [2, 1, 2]),  # 3 + 5 + 10 do not fit; 10 runs alone
    "one-per-item": (1, [1, 1, 1, 1, 1]),  # every item is over it
}


@pytest.mark.parametrize("case", list(BUDGET_CASES))
def test_items_pack_greedily_under_the_budget(ac_vocab, ac_model, monkeypatch, case):
    budget, groups = BUDGET_CASES[case]
    demo, prepared, _ = evaluate._prepare_items(BUDGET_ITEMS, DEMOS, ac_vocab, AC, 256)
    assert [item_tokens(p, demo) for p in prepared] == [3, 5, 10, 3, 3]
    monkeypatch.setattr(evaluate, "ITEM_TOKEN_BUDGET", budget)
    calls, forwards = record_calls(monkeypatch)
    cached, acct = evaluate._score_cached(ac_model, demo, prepared)
    assert calls == [("advance", len(demo))] + [("score_trees", n) for n in groups]
    assert len(forwards) == 1 + len(groups)
    assert acct.total_appends == acct.peak_live_count == len(demo)
    plain = evaluate._score_noncache(ac_model, prepared)
    for a, b in zip(cached, plain):
        a, b = np.asarray(a), np.asarray(b)
        assert np.all(np.abs(a - b) <= SCORE_RTOL * np.maximum(1.0, np.abs(b)))
        assert int(np.argmax(a)) == int(np.argmax(b))


def test_cache_reduction_does_not_depend_on_item_count(ac_vocab, ac_model):
    items, pool = make_task(8, seed=4)
    reports = [
        run_mc_task(ac_model, ac_vocab, items[:n], 3, AC, True, True, demo_pool=pool, seed=2)
        for n in (1, 8)
    ]
    assert reports[0].cache_reduction == reports[1].cache_reduction > 0.0
    assert reports[0].peak_cache == reports[1].peak_cache


@pytest.mark.parametrize("case", list(CHUNK_CASES))
def test_demo_part_built_once_matches_build_mc_prompt(ac_vocab, case):
    policy, demos = CHUNK_CASES[case]
    items, _ = make_task(5, seed=9)
    demo, prepared, skipped = evaluate._prepare_items(items, demos, ac_vocab, policy, 256)
    assert skipped == 0
    fresh = _demo_part(demos, ac_vocab, policy)
    assert demo == fresh
    for item, prep in zip(items, prepared):
        assert prep.prompt == _prompt(fresh, demos, item.context, ac_vocab, policy)


@pytest.mark.parametrize("field", ["ids", "is_anchor", "seq_index"])
def test_prompt_must_start_with_the_demo_part(ac_vocab, monkeypatch, field):
    demo_text = " ".join(DEMOS)

    def annotate_stream_apart(text, vocab, policy):
        seg = annotate(text, vocab, policy)
        if text != demo_text:  # the whole stream, not the demonstrations alone
            values = getattr(seg, field)
            values[0] = not values[0] if field == "is_anchor" else values[0] + 1
        return seg

    monkeypatch.setattr(evaluate, "annotate", annotate_stream_apart)
    items, _ = make_task(2, seed=8)
    with pytest.raises(ContractError, match="demonstration part"):
        evaluate._prepare_items(items, DEMOS, ac_vocab, EP, 256)


@pytest.mark.parametrize("unfit", [
    MCItem("the amber lamp", ("birch", "stone " * 256), 0),  # too long with its longest choice
    MCItem("", ("birch", "stone"), 0),  # no context to score after the demonstrations
], ids=["too-long", "no-context"])
def test_items_that_do_not_fit_are_skipped(ac_vocab, ac_model, unfit):
    demos = ["the amber lamp holds the stone ."]
    items = [BUDGET_ITEMS[0], unfit, BUDGET_ITEMS[3]]
    demo, prepared, skipped = evaluate._prepare_items(items, demos, ac_vocab, AC, 256)
    assert skipped == 1
    part = _demo_part(demos, ac_vocab, AC)
    alone = [
        [
            score_continuation(
                ac_model, _prompt(part, demos, item.context, ac_vocab, AC),
                ac_vocab.encode_text(choice),
            )
            for choice in item.choices
        ]
        for item in (items[0], items[2])
    ]
    cached, _ = evaluate._score_cached(ac_model, demo, prepared)
    plain = evaluate._score_noncache(ac_model, prepared)
    assert len(cached) == len(plain) == 2
    for a, b in zip(cached + plain, alone + alone):
        a, b = np.asarray(a), np.asarray(b)
        assert np.all(np.abs(a - b) <= SCORE_RTOL * np.maximum(1.0, np.abs(b)))

    # gold is the first fitting item's pick and not the second's: 1 of 2
    picks = [int(np.argmax(scores)) for scores in alone]
    golds = [picks[0], 1 - picks[1], 0]
    items = [dataclasses.replace(item, gold=g) for item, g in zip(items, golds)]
    pool = [MCItem("the amber lamp holds the", ("stone .",), 0)]  # demo text demos[0]
    for reuse_demo_cache in (True, False):
        report = run_mc_task(
            ac_model, ac_vocab, items, 1, AC, True, reuse_demo_cache, demo_pool=pool
        )
        assert (report.n_items, report.n_skipped, report.accuracy) == (3, 1, 0.5)


def test_causal_demo_part_is_one_forward(ac_vocab, ac_model, monkeypatch):
    items, _ = make_task(2, seed=8)
    demo, prepared, _ = evaluate._prepare_items(items, DEMOS, ac_vocab, AC, 256)
    demo, prepared = evaluate._without_anchors(demo, prepared)
    calls, forwards = record_calls(monkeypatch)
    _, acct = evaluate._score_cached(ac_model, demo, prepared)
    assert calls == [("advance", len(demo)), ("score_trees", len(items))]
    assert len(forwards) == 2
    assert acct.total_discards == 0 and acct.total_appends == len(demo)


@pytest.mark.parametrize("use_ansan", [True, False], ids=["ansan", "causal"])
def test_last_layer_runs_only_the_rows_scoring_reads(ac_vocab, ac_model, use_ansan,
                                                    layer_queries):
    # the demonstration prefill reads no logits, so its last layer runs no
    # row. Under anchor masks the reduction after it keeps only the
    # anchors (the demonstration part here ends in one), so the layer
    # below runs those rows, and computes keys/values for the tokens they
    # read; under causal masks every demonstration row is kept. No item
    # context closes a sequence, so each packed group runs every new row
    # below its last layer, where its trees' trunk-last and branch rows run
    items, _ = make_task(4, seed=8)
    demo, prepared, _ = evaluate._prepare_items(items, DEMOS, ac_vocab, AC, 256)
    if not use_ansan:
        demo, prepared = evaluate._without_anchors(demo, prepared)
    evaluate._score_cached(ac_model, demo, prepared)
    demo_rows = [int(segment_flags(demo)[:, 0].sum()) if use_ansan else len(demo), 0]
    tokens = sum(len(p.prompt) - len(demo) + sum(len(c) - 1 for c in p.choice_ids)
                 for p in prepared)
    read = sum(1 + sum(len(c) - 1 for c in p.choice_ids) for p in prepared)
    assert ac_model.config.n_layers == 2
    assert layer_queries() == [demo_rows, [tokens, read]]


def test_item_skipped_when_choice_overflows(ac_vocab):
    config = ModelConfig(
        vocab_size=len(ac_vocab), n_layers=1, n_heads=2, d_model=8, d_ff=16,
        context_len=8,
    )
    weights = init_weights(config, seed=0, anchor_id=ac_vocab.anchor_id)
    items = [
        MCItem("amber lamp", ("stone", "river"), 0),
        MCItem("amber lamp holds", ("stone " * 10, "river"), 0),  # overflows
    ]
    report = run_mc_task(weights, ac_vocab, items, 0, AC, True, False)
    assert report.n_items == 2
    assert report.n_skipped == 1


@pytest.mark.parametrize("reuse_demo_cache", [False, True], ids=["noncache", "cached"])
def test_choice_without_tokens_is_contract_error(ac_vocab, ac_model, reuse_demo_cache):
    # an empty continuation would sum to a log-probability of 0.0 and win
    item = MCItem("a b c .", ("a", "   ", "b"), 0)
    with pytest.raises(ContractError, match="no tokens"):
        run_mc_task(ac_model, ac_vocab, [item], 0, AC, True, reuse_demo_cache)


def test_demo_pool_required(ac_vocab, ac_model):
    items, _ = make_task(2, seed=1)
    with pytest.raises(ContractError):
        run_mc_task(ac_model, ac_vocab, items, 5, AC, True, True, demo_pool=None)


def test_timing_with_no_item_that_fits_is_undefined(ac_vocab, ac_model):
    # with nothing scored, both timed calls are empty and their ratio is noise
    item = MCItem("amber lamp holds the stone . " * 60, ("stone", "river"), 0)
    assert run_mc_task(ac_model, ac_vocab, [item], 0, AC, True, True).n_skipped == 1
    with pytest.raises(UndefinedMetricError, match="no item fits the context"):
        run_mc_task(ac_model, ac_vocab, [item], 0, AC, True, True, measure_timing=True)


def test_timing_produces_positive_ratio(ac_vocab, ac_model):
    items, pool = make_task(2, seed=4)
    report = run_mc_task(
        ac_model, ac_vocab, items, 2, AC, True, True, demo_pool=pool,
        measure_timing=True, accel_baseline="noncache",
    )
    assert report.acceleration_ratio is not None and report.acceleration_ratio > 0
    assert report.accel_baseline == "noncache"
    full = run_mc_task(
        ac_model, ac_vocab, items, 2, AC, True, True, demo_pool=pool,
        measure_timing=True, accel_baseline="fullcache",
    )
    assert full.accel_baseline == "fullcache"


# -- prompt assembly ------------------------------------------------------------------


def test_build_mc_prompt_ac_layout(ac_vocab):
    demos = ["the amber lamp holds the stone .", "a birch sign marks the river ."]
    demo = _demo_part(demos, ac_vocab, AC)
    seg, demo_len = _prompt(demo, demos, "every cedar path leads to", ac_vocab, AC), len(demo)
    # one anchor per demonstration, none in the context part
    anchors = [i for i, a in enumerate(seg.is_anchor) if a]
    assert len(anchors) == 2
    assert all(seg.ids[i] == ac_vocab.anchor_id for i in anchors)
    assert anchors[-1] == demo_len - 1
    assert seg.seq_index[-1] == 2
    seg.validate()


def test_build_mc_prompt_ep_layout(tmp_path):
    path = tmp_path / "c.txt"
    path.write_text("one two . three four . five six", encoding="utf-8")
    vocab = build_vocab([path], EP, 32)
    demos = ["one two .", "three four ."]
    demo = _demo_part(demos, vocab, EP)
    seg, demo_len = _prompt(demo, demos, "five six", vocab, EP), len(demo)
    assert demo_len == 6
    assert seg.is_anchor[2] and seg.is_anchor[5]
    assert not any(seg.is_anchor[6:])


def test_build_mc_prompt_every_n(ac_vocab):
    policy = AnchorPolicy(mode="every_n", n=3)
    demos = ["amber lamp holds stone"]
    demo = _demo_part(demos, ac_vocab, policy)
    seg, demo_len = _prompt(demo, demos, "birch sign marks", ac_vocab, policy), len(demo)
    inserted = [i for i, a in enumerate(seg.is_anchor) if a]
    assert all(seg.ids[i] == ac_vocab.anchor_id for i in inserted)
    # the demo part ends on its content plus a directly trailing anchor
    assert demo_len == 5
    seg.validate()


WORDS = ["the", "amber", "lamp", "holds", "stone", "birch", "zzz", ".", "!", "?", ","]
NON_AC_POLICIES = [
    EP,
    AnchorPolicy(mode="every_n", n=1),
    AnchorPolicy(mode="every_n", n=3),
    AnchorPolicy(mode="every_n", n=7),
    AnchorPolicy(mode="random_p", p=0.1, seed=3),
    AnchorPolicy(mode="random_p", p=0.5, seed=11),
]


def texts(min_size):
    """Space-joined words and punctuation, terminated or not."""
    return st.lists(st.sampled_from(WORDS), min_size=min_size, max_size=9).map(" ".join)


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(st.sampled_from(NON_AC_POLICIES), st.lists(texts(1), max_size=3), texts(1))
def test_demo_part_is_the_demos_annotated_alone(ac_vocab, policy, demos, context):
    part = _demo_part(demos, ac_vocab, policy)
    seg, demo_len = _prompt(part, demos, context, ac_vocab, policy), len(part)
    demo = annotate(" ".join(demos), ac_vocab, policy)
    assert seg.ids[:demo_len] == demo.ids
    assert seg.is_anchor[:demo_len] == demo.is_anchor
    assert seg.seq_index[:demo_len] == demo.seq_index
    # the rest is the context's tokens, with no inserted anchor at its start
    inserted = ac_vocab.anchor_id if policy.inserts_anchor_token else None
    rest = seg.slice(demo_len, len(seg))
    assert len(rest.strip_inserted(inserted)) == len(tokenize(context))
    assert not (len(rest) and rest.is_anchor[0] and rest.ids[0] == inserted)


# -- tree scoring: an item's context and choices in one forward ----------------------

TREE_POLICIES = [AC, EP, AnchorPolicy(mode="every_n", n=3)]
CHOICE_WORDS = ["the", "amber", "lamp", "stone", "birch", "zzz", "."]
# 2-6 distinct choices of 1-4 tokens each
choice_lists = st.lists(
    st.lists(st.sampled_from(CHOICE_WORDS), min_size=1, max_size=4).map(" ".join),
    min_size=2, max_size=6, unique=True,
)
# 1-5 items scored as the trees of one forest; under ep and every-n=3
# contexts can hold anchors
forest_items = (
    st.sampled_from(TREE_POLICIES), st.booleans(), st.lists(texts(1), max_size=3),
    st.lists(st.tuples(texts(1), choice_lists), min_size=1, max_size=5),
)


def item_forest(vocab, weights, policy, use_ansan, demos, items):
    """Items as `_score_cached` scores them: the prepared items, the
    demonstration cache, and one tree per item; with no anchor unless
    use_ansan."""
    demo, prepared, _ = evaluate._prepare_items(
        [MCItem(context, tuple(choices), 0) for context, choices in items],
        demos, vocab, policy, 256,
    )
    if not use_ansan:
        demo, prepared = evaluate._without_anchors(demo, prepared)
    cache = AnchorKVCache()
    if len(demo):
        advance(weights, cache, demo.ids, segment_flags(demo), reduce=True, logits=False)
    trees = [
        (p.prompt.ids[len(demo) :], segment_flags(p.prompt, len(demo)), p.choice_ids)
        for p in prepared
    ]
    return prepared, cache, trees


@settings(max_examples=100, derandomize=True, database=None, deadline=None)
@given(*forest_items)
@example(EP, True, ["the lamp ."], [("amber . the lamp", ["stone", "the birch"])] * 2)
def test_tree_scores_match_noncache(ac_vocab, ac_model, policy, use_ansan, demos, items):
    prepared, cache, trees = item_forest(ac_vocab, ac_model, policy, use_ansan, demos, items)
    assert len(prepared) == len(items)
    scores = score_trees(ac_model, cache, trees)
    plain = evaluate._score_noncache(ac_model, prepared)
    assert len(scores) == len(items)
    for a, b in zip(scores, plain):
        a, b = np.asarray(a), np.asarray(b)
        assert np.all(np.abs(a - b) <= SCORE_RTOL * np.maximum(1.0, np.abs(b)))
        assert int(np.argmax(a)) == int(np.argmax(b))


@settings(max_examples=100, derandomize=True, database=None, deadline=None)
@given(*forest_items)
@example(EP, True, ["the lamp ."], [("amber . the lamp", ["stone", "the birch"])] * 2)
def test_tree_mask_is_each_branch_alone(ac_vocab, ac_model, policy, use_ansan, demos, items):
    prepared, cache, trees = item_forest(ac_vocab, ac_model, policy, use_ansan, demos, items)
    key_flags, start = cache.flag_array().copy(), cache.next_positions(1)[0]
    with mock.patch.object(infer, "forward", wraps=infer.forward) as spy:
        score_trees(ac_model, cache, trees)
    (_, tokens, rows, _, positions), _ = spy.call_args
    n_keys, offset = len(key_flags), 0
    for prep, (ids, flags, choice_ids) in zip(prepared, trees):
        # this tree's rows, branch by branch, against the chain each makes
        # alone: zero on the columns of every other branch and tree
        cont = (False, next_seq_index(prep.prompt))
        n = len(ids)
        lo = offset + n + np.cumsum([0] + [len(c) - 1 for c in choice_ids])
        for cids, b_lo, b_hi in zip(choice_ids, lo, lo[1:]):
            own = np.r_[offset : offset + n, b_lo:b_hi]
            alone = mask_rows([*flags, *[cont] * (b_hi - b_lo)], key_flags)
            expected = np.zeros_like(rows[own])
            expected[:, np.r_[:n_keys, n_keys + own]] = alone
            assert np.array_equal(rows[own], expected)
            assert [tokens[i] for i in own] == [*ids, *cids[:-1]]
            assert positions[own].tolist() == list(range(start, start + len(own)))
        offset = lo[-1]
    assert offset == len(tokens) == len(rows)


@settings(max_examples=100, derandomize=True, database=None, deadline=None)
@given(*forest_items)
def test_tree_scoring_commits_nothing(ac_vocab, ac_model, policy, use_ansan, demos, items):
    _, cache, trees = item_forest(ac_vocab, ac_model, policy, use_ansan, demos, items)
    n, positions, flags = len(cache), cache.live_positions(), cache.flag_array().copy()
    stats = dataclasses.replace(cache.stats)
    kv = [(k.copy(), v.copy()) for k, v in cache.stacked()]  # none before a first write
    score_trees(ac_model, cache, trees)
    assert len(cache) == n and cache.live_positions() == positions
    assert np.array_equal(cache.flag_array(), flags)
    assert cache.stats == stats
    for (k, v), (before_k, before_v) in zip(cache.stacked(), kv):
        assert np.array_equal(k, before_k) and np.array_equal(v, before_v)


# -- ablation / report -----------------------------------------------------------------


def test_ablation_three_arms(ac_vocab, ac_model):
    items, pool = make_task(3, seed=6)
    arms = {
        "every-demonstration": (ac_model, AC),
        "every-10-tokens": (ac_model, AnchorPolicy(mode="every_n", n=10)),
        "random-prob-0.1": (ac_model, AnchorPolicy(mode="random_p", p=0.1, seed=1)),
    }
    report = ablation_anchor_positions(arms, ac_vocab, items, 2, demo_pool=pool, seed=7)
    assert len(report.rows) == 3
    assert report.item_order_digest == item_order_digest(items)
    text = report.to_text()
    assert text.count("\n") == len(report.rows) + 2


def test_metrics_report_stable_text():
    rep = MetricsReport(
        task="mc", policy="ac", mask_mode="ansan", shots=5, n_items=10,
        accuracy=0.5, cache_reduction=0.25, peak_cache=7,
    )
    text = rep.to_text()
    assert text == rep.to_text()
    lines = text.splitlines()
    assert lines[0] == "task = mc"
    assert "accuracy = 0.5" in lines
    assert not any(line.startswith("wall_") for line in lines)


def test_metrics_report_validation():
    rep = MetricsReport(task="t", policy="p", mask_mode="m", shots=0, accuracy=1.5)
    with pytest.raises(ContractError):
        rep.validate()


def test_items_file_round_trip(tmp_path):
    items, _ = make_task(4, seed=9)
    path = tmp_path / "task.jsonl"
    save_mc_items(path, items)
    loaded = load_mc_items(path)
    assert loaded == items


def test_items_file_errors(tmp_path):
    with pytest.raises(InputError):
        load_mc_items(tmp_path / "missing.jsonl")
    bad = tmp_path / "bad.jsonl"
    bad.write_text('{"context": "x", "choices": ["a"], "gold": 3}\n', encoding="utf-8")
    with pytest.raises(InputError):
        load_mc_items(bad)
    bad.write_text('{"context": "x", "choices": ["a", ""], "gold": 0}\n', encoding="utf-8")
    with pytest.raises(InputError, match="no tokens"):
        load_mc_items(bad)


VALID_RECORD = '{"context": "x", "choices": ["a", "b"], "gold": 1}\n'


@pytest.mark.parametrize("content, message", [
    (VALID_RECORD + '{"context": "x", "choices": ["a"]\n', r"bad task record at .*:2"),
    ('{"context": "x", "choices": ["a", "b"], "gold": true}\n', r"\(not bool\) gold"),
    ('{"context": "x", "choices": ["a", 3], "gold": 0}\n', "list of string choices"),
    ("\n   \n\n", "contains no items"),
], ids=["malformed-json", "bool-gold", "non-string-choice", "only-blank-lines"])
def test_malformed_items_file_is_input_error(tmp_path, content, message):
    bad = tmp_path / "bad.jsonl"
    bad.write_text(content, encoding="utf-8")
    with pytest.raises(InputError, match=message):
        load_mc_items(bad)


def test_synth_task_gold_is_partner():
    items, pool = make_task(10, seed=0)
    for item in items + pool:
        subject = next(w for w in item.context.split() if w in
                       ("amber", "birch", "cedar", "dusk", "ember", "fjord", "glade",
                        "harbor", "iris", "juniper", "kestrel", "lagoon", "meadow",
                        "nimbus", "orchid", "pebble"))
        assert item.choices[item.gold].split()[0] == partner(subject)
