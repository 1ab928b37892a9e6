import numpy as np
import pytest

from anchorlm.corpus import AnchorPolicy, SegmentedText, annotate, build_vocab, pack_training_blocks
from anchorlm.errors import ConfigError, ContractError, NumericError
from anchorlm.model import init_weights
from anchorlm.train import (
    AdamW,
    TrainConfig,
    batch_indices,
    clip_global_norm,
    compare_from_scratch,
    train,
)
from conftest import tiny_config


def make_blocks(tmp_path, n_docs=24, policy=AnchorPolicy(mode="ep")):
    text = "the cat sat on the mat . the dog ran off . " * 3
    path = tmp_path / "corpus.txt"
    path.write_text("\n".join(text for _ in range(n_docs)), encoding="utf-8")
    vocab = build_vocab([path], policy, 64)
    docs = [annotate(text, vocab, policy) for _ in range(n_docs)]
    return vocab, pack_training_blocks(docs, 24)


def small_cfg(**kw):
    base = dict(mask_mode="ansan", batch_size=4, steps=3, learning_rate=1e-3,
                warmup_steps=2, seed=1)
    base.update(kw)
    return TrainConfig(**base)


def test_zero_learning_rate_leaves_weights_bitwise(tmp_path):
    _, blocks = make_blocks(tmp_path)
    config = tiny_config(vocab_size=64)
    initial = init_weights(config, seed=5)
    report = train(small_cfg(steps=1, learning_rate=0.0), config, blocks, initial=initial)
    for a, b in zip(initial.arrays.values(), report.final_weights.arrays.values()):
        assert np.array_equal(a, b)


def test_warmup_first_step_rate(tmp_path):
    _, blocks = make_blocks(tmp_path)
    cfg = small_cfg(steps=2, learning_rate=1e-3, warmup_steps=20)
    report = train(cfg, tiny_config(vocab_size=64), blocks)
    assert report.records[0].lr == pytest.approx(1e-3 / 20)
    assert report.records[1].lr == pytest.approx(2e-3 / 20)


def test_adamw_contracts_quadratic():
    cfg = small_cfg(steps=1, learning_rate=0.05, warmup_steps=5, weight_decay=0.0)
    w = {"w": np.array([3.0, -2.0, 1.5])}
    opt = AdamW(w, cfg)
    norms = []
    for step in range(1, 201):
        grads = {"w": w["w"].copy()}  # gradient of 0.5 * ||w||^2
        opt.step(w, grads, step)
        norms.append(float(np.linalg.norm(w["w"])))
    assert norms[-1] < 1e-2  # contracts toward 0
    # strictly decreasing after warmup for the whole descent phase; once the
    # norm reaches the step-size scale, momentum makes Adam dither there
    for a, b in zip(norms[5:], norms[6:]):
        if a < 4 * cfg.learning_rate:
            break
        assert b < a


def test_loss_sequence_deterministic(tmp_path):
    _, blocks = make_blocks(tmp_path)
    config = tiny_config(vocab_size=64)
    r1 = train(small_cfg(steps=5), config, blocks)
    r2 = train(small_cfg(steps=5), config, blocks)
    assert r1.losses() == r2.losses()


def test_different_seed_changes_schedule(tmp_path):
    a = batch_indices(seed=1, n_blocks=50, batch_size=4, step=1)
    b = batch_indices(seed=2, n_blocks=50, batch_size=4, step=1)
    assert not np.array_equal(a, b)


def test_batch_indices_stateless_resume():
    for step in range(1, 30):
        once = batch_indices(seed=9, n_blocks=13, batch_size=4, step=step)
        again = batch_indices(seed=9, n_blocks=13, batch_size=4, step=step)
        assert np.array_equal(once, again)


def test_resume_matches_continuous(tmp_path):
    _, blocks = make_blocks(tmp_path)
    config = tiny_config(vocab_size=64)
    full = train(small_cfg(steps=6), config, blocks)
    first = train(small_cfg(steps=3), config, blocks)
    second = train(
        small_cfg(steps=3),
        config,
        blocks,
        initial=first.final_weights,
        opt_state=first.opt_state,
        start_step=3,
    )
    assert first.losses() + second.losses() == full.losses()
    assert [r.step for r in second.records] == [4, 5, 6]


def test_training_reduces_loss(tmp_path):
    _, blocks = make_blocks(tmp_path, n_docs=40)
    config = tiny_config(vocab_size=64, context_len=24)
    report = train(small_cfg(steps=30, warmup_steps=5, learning_rate=3e-3), config, blocks)
    assert report.records[-1].loss < report.records[0].loss
    assert report.records[-1].loss < np.log(64)
    assert report.tokens_seen > 0


def test_divergence_aborts(tmp_path):
    _, blocks = make_blocks(tmp_path)
    config = tiny_config(vocab_size=64)
    bad = init_weights(config, seed=0)
    bad.arrays["embedding"][:] = np.inf
    with np.errstate(all="ignore"), pytest.raises(NumericError):
        train(small_cfg(steps=1), config, blocks, initial=bad)


def test_empty_and_short_blocks_rejected(tmp_path):
    config = tiny_config(vocab_size=64)
    with pytest.raises(ContractError):
        train(small_cfg(), config, [])
    one = SegmentedText(ids=[3], is_anchor=[False], seq_index=[0])
    with pytest.raises(ContractError):
        train(small_cfg(), config, [one])


def test_epoch_budget_codes_for_full_passes(tmp_path):
    _, blocks = make_blocks(tmp_path, n_docs=8)
    report = train(
        small_cfg(steps=None, epochs=2, batch_size=4), tiny_config(vocab_size=64), blocks
    )
    assert len(report.records) == 2 * (8 // 4)


def test_clip_global_norm():
    grads = {"a": np.array([3.0, 4.0])}
    total = clip_global_norm(grads, max_norm=1.0)
    assert total == pytest.approx(5.0)
    assert np.linalg.norm(grads["a"]) == pytest.approx(1.0)


def test_config_validation():
    with pytest.raises(ConfigError):
        TrainConfig(steps=1, epochs=1)
    with pytest.raises(ConfigError):
        TrainConfig()  # neither steps nor epochs
    with pytest.raises(ConfigError):
        TrainConfig(steps=1, adam_beta1=1.5)
    with pytest.raises(ConfigError):
        TrainConfig(steps=1, mask_mode="diagonal")
    TrainConfig(steps=1, weight_decay=0.0, grad_clip=0.0)  # no decay, no clipping


@pytest.mark.parametrize("name, value", [("steps", 0), ("steps", -2), ("epochs", 0)])
def test_nonpositive_budget_is_config_error(tmp_path, name, value):
    with pytest.raises(ConfigError, match=name):
        TrainConfig(**{name: value})
    path = tmp_path / "train.cfg"
    path.write_text(f"{name} = {value}\n", encoding="utf-8")
    with pytest.raises(ConfigError, match=name):
        TrainConfig.from_file(path)


@pytest.mark.parametrize("name, value", [
    ("learning_rate", float("nan")), ("learning_rate", float("inf")), ("warmup_steps", -5),
    ("checkpoint_every", -1), ("weight_decay", float("nan")), ("weight_decay", float("inf")),
    ("weight_decay", -0.1), ("grad_clip", float("nan")), ("grad_clip", float("inf")),
    ("grad_clip", -1.0), ("adam_eps", float("nan")), ("adam_eps", float("inf")),
    ("adam_eps", 0.0), ("adam_eps", -1e-8),
])
def test_out_of_range_config_is_config_error(tmp_path, name, value):
    with pytest.raises(ConfigError, match=name):
        TrainConfig(steps=1, **{name: value})
    path = tmp_path / "train.cfg"
    path.write_text(f"steps = 1\n{name} = {value}\n", encoding="utf-8")
    with pytest.raises(ConfigError, match=name):
        TrainConfig.from_file(path)


@pytest.mark.parametrize("content, message", [
    ("steps = 1\nseed 3\n", "bad config line"), ("steps = 1\nsteep = 3\n", "unknown"),
    ("steps = 1\nlearning_rate = none\n", "learning_rate"),
    ("steps = 1\nbatch_size =\n", "batch_size"), ("steps = 1\npolicy = None\n", "policy"),
    ("learning_rate = 0.1\nsteps = 1\nlearning_rate = 0.001\n", "learning_rate is given twice"),
], ids=["no-equals", "unknown-key", "float-none", "int-empty", "str-none", "key-twice"])
def test_malformed_config_file_is_config_error(tmp_path, content, message):
    path = tmp_path / "train.cfg"
    path.write_text(content, encoding="utf-8")
    with pytest.raises(ConfigError, match=message):
        TrainConfig.from_file(path)


def test_config_file_round_trip(tmp_path):
    cfg = TrainConfig(steps=7, learning_rate=2e-5, mask_mode="causal", seed=3)
    path = tmp_path / "train.cfg"
    cfg.to_file(path)
    loaded = TrainConfig.from_file(path)
    assert loaded == cfg
    overridden = TrainConfig.from_file(path, seed=9)
    assert overridden.seed == 9 and overridden.steps == 7


def test_report_lines_format(tmp_path):
    _, blocks = make_blocks(tmp_path)
    report = train(small_cfg(steps=2), tiny_config(vocab_size=64), blocks)
    lines = report.to_lines()
    assert any(line.startswith("# weight_decay") for line in lines)
    assert "# step loss lr" in lines
    data = [line for line in lines if not line.startswith("#")]
    assert len(data) == 2
    assert data[0].split()[0] == "1"
    assert all(len(line.split()) == 3 for line in data)  # the wall times are kept apart


def test_compare_from_scratch_arms(tmp_path):
    vocab, blocks = make_blocks(tmp_path, n_docs=30)
    config = tiny_config(vocab_size=64, context_len=24)
    eval_text = blocks[0]
    cfg = small_cfg(steps=8, learning_rate=3e-3)
    report = compare_from_scratch(config, blocks, eval_text, cfg, eval_context_len=16)
    assert report.init_digests[0] == report.init_digests[1]
    assert report.schedule_digests[0] == report.schedule_digests[1]
    assert np.isfinite(report.causal_perplexity) and report.causal_perplexity > 0
    assert np.isfinite(report.ansan_perplexity) and report.ansan_perplexity > 0
    text = report.to_text()
    assert "causal" in text and "ansan" in text
    assert "32.81" in text and "36.57" in text  # recorded as non-targets

    # the causal arm is reproducible run to run
    report2 = compare_from_scratch(config, blocks, eval_text, cfg, eval_context_len=16)
    assert report.causal.losses() == report2.causal.losses()
