import numpy as np
import pytest

import anchorlm.autodiff as autodiff
import anchorlm.evaluate as evaluate
from anchorlm.cache import AnchorKVCache
from anchorlm.corpus import SegmentedText
from anchorlm.errors import ContractError
from anchorlm.infer import GenerationConfig, generate, score_continuation
from anchorlm.masks import TokenFlags, mask_rows
from anchorlm.model import init_weights
from conftest import random_segmented, tiny_config


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


# -- score_continuation ---------------------------------------------------------


def ctx(ids):
    return SegmentedText(ids=list(ids), is_anchor=[False] * len(ids), seq_index=[0] * len(ids))


def test_empty_continuation_scores_zero(tiny_weights):
    assert score_continuation(tiny_weights, ctx([1, 2]), [], use_ansan=True) == 0.0


def test_uniform_model_continuation_score():
    config = tiny_config()
    weights = init_weights(config, seed=0)
    for arr in weights.arrays.values():
        arr[:] = 0.0
    got = score_continuation(weights, ctx([1, 2]), [3, 4, 5], use_ansan=False)
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
    scores = [
        score_continuation(weights, ctx([1, 2, 3]), c, use_ansan=False) for c in choices
    ]
    assert int(np.argmax(scores)) == 1


def test_overflow_rejected():
    config = tiny_config(context_len=5)
    weights = init_weights(config, seed=0)
    with pytest.raises(ContractError):
        score_continuation(weights, ctx([1, 2, 3]), [4, 5, 6], use_ansan=False)


def test_score_matches_generate_path(tiny_weights):
    # greedy generation maximizes per-step logprob; scoring the generated
    # token must beat scoring any other single token
    prefix = anchored_prefix()
    res = generate(tiny_weights, prefix, gen_cfg(max_new_tokens=1))
    best = res.ids[0]
    s_best = score_continuation(tiny_weights, prefix, [best], use_ansan=True)
    for other in range(tiny_weights.config.vocab_size):
        s = score_continuation(tiny_weights, prefix, [other], use_ansan=True)
        assert s <= s_best + 1e-12


def test_continuation_rows_causal_and_ansan():
    live = [TokenFlags(True, 0), TokenFlags(False, 1)]
    new = [TokenFlags(False, 1), TokenFlags(False, 1)]
    ansan = mask_rows(new, live, ansan=True)
    causal = mask_rows(new, live, ansan=False)
    assert ansan.tolist() == [[1, 1, 1, 0], [1, 1, 1, 1]]
    assert causal.tolist() == [[1, 1, 1, 0], [1, 1, 1, 1]]
    # a later-sequence query blocks the live non-anchor under ansan
    new2 = [TokenFlags(False, 2)]
    assert mask_rows(new2, live, ansan=True).tolist() == [[1, 0, 1]]


def test_score_continuation_random_masks_agree(tiny_weights):
    # under a no-anchor context, ansan and causal scoring coincide
    rng = np.random.default_rng(0)
    for _ in range(5):
        seg = random_segmented(rng, max_len=8)
        plain = ctx([i % 11 for i in seg.ids])
        cont = [int(rng.integers(0, 11)) for _ in range(3)]
        a = score_continuation(tiny_weights, plain, cont, use_ansan=True)
        b = score_continuation(tiny_weights, plain, cont, use_ansan=False)
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
    prepared = [evaluate._PreparedItem(prompt, 3, [[1], [2, 3], [5, 6, 7]], 0)]
    cached, _ = evaluate._score_cached(tiny_weights, prepared, use_ansan)
    noncached = evaluate._score_noncache(tiny_weights, prepared, use_ansan)
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
    score = score_continuation(tiny_weights, anchored_prefix(), [1, 2, 3], use_ansan)
    assert np.isfinite(score)
