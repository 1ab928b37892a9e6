"""Acceptance suite: one test per exit criterion, each printing a
PASS line with its elapsed time (visible with `pytest -s`)."""

import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from anchorlm.cache import AnchorKVCache
from anchorlm.corpus import (
    AnchorPolicy,
    SegmentedText,
    annotate,
    build_vocab,
    pack_training_blocks,
)
from anchorlm.evaluate import (
    MCItem,
    REFERENCE_FULL_SCALE,
    _demo_part,
    _prompt,
    run_mc_task,
)
from anchorlm.infer import GenerationConfig, advance, generate
from anchorlm.masks import mask_rows
from anchorlm.model import ModelConfig, forward, init_weights, loss_and_grads
from anchorlm.synth import make_corpus, make_task
from anchorlm.train import TrainConfig, compare_from_scratch, train
from conftest import anchor_rule, random_segmented
from oracles import finite_difference_grads, naive_anchor_mask, naive_attention


def report_pass(n, started, detail=""):
    print(f"PASS criterion {n} ({time.time() - started:.1f}s) {detail}")


@pytest.fixture(scope="module")
def mb_corpus(tmp_path_factory):
    """~1 MB synthetic corpus prepared once for criteria 7 and 8."""
    tmp = tmp_path_factory.mktemp("mbcorpus")
    docs = make_corpus(3800, sentences_per_doc=8, seed=0)
    path = tmp / "corpus.txt"
    path.write_text("\n".join(docs), encoding="utf-8")
    assert path.stat().st_size > 900_000  # "~1 MB"
    policy = AnchorPolicy(mode="ep")
    vocab = build_vocab([path], policy, 256)
    blocks = pack_training_blocks([annotate(d, vocab, policy) for d in docs], 64)
    return vocab, blocks


def test_criterion_1_mask_oracle_equivalence():
    started = time.time()
    rng = np.random.default_rng(1001)
    for _ in range(1000):
        seg = random_segmented(rng, max_len=64)
        produced = np.asarray(anchor_rule(seg))
        assert np.array_equal(produced, naive_anchor_mask(seg.is_anchor, seg.seq_index))
        flags = list(zip(seg.is_anchor, seg.seq_index))
        for i in range(len(seg)):
            row = mask_rows([flags[i]], flags[:i])[0]
            assert np.array_equal(row, produced[i, : i + 1])
            assert not produced[i, i + 1 :].any()
    report_pass(1, started, "1000 random inputs, bit-exact")


def test_criterion_2_attention_oracle_equivalence():
    started = time.time()
    rng = np.random.default_rng(2002)
    for trial in range(50):
        vocab_size = int(rng.integers(7, 14))
        config = ModelConfig(
            vocab_size=vocab_size,
            n_layers=int(rng.integers(1, 3)),
            n_heads=2,
            d_model=int(rng.choice([8, 16])),
            d_ff=int(rng.choice([12, 24])),
            context_len=16,
        )
        weights = init_weights(config, seed=trial)
        seg = random_segmented(rng, max_len=8)
        ids = [int(i) % vocab_size for i in seg.ids]
        got = forward(weights, ids, anchor_rule(seg)).logits
        dims = {
            "n_layers": config.n_layers, "n_heads": config.n_heads,
            "d_model": config.d_model, "norm_eps": config.norm_eps,
            "rope_base": config.rope_base,
        }
        want = naive_attention(dims, weights.arrays, ids,
                               naive_anchor_mask(seg.is_anchor, seg.seq_index),
                               list(range(len(ids))))
        np.testing.assert_allclose(got, want, rtol=1e-6)
    report_pass(2, started, "50 random models, rtol 1e-6")


def test_criterion_3_gradient_correctness():
    started = time.time()
    config = ModelConfig(
        vocab_size=7, n_layers=2, n_heads=2, d_model=8, d_ff=16, context_len=8
    )
    weights = init_weights(config, seed=33)
    n_params = weights.n_params()
    assert n_params <= 10_000
    seg = SegmentedText(
        ids=[1, 4, 2, 6, 3, 5],
        is_anchor=[False, True, False, False, True, False],
        seq_index=[0, 0, 1, 1, 1, 2],
    )
    mask = anchor_rule(seg)
    _, grads = loss_and_grads(weights, seg, mask)
    analytic = grads

    def loss_value():
        return loss_and_grads(weights, seg, mask)[0]

    fd = finite_difference_grads(loss_value, weights.arrays, step=1e-4)
    worst = 0.0
    for name in analytic:
        denom = np.maximum(np.maximum(np.abs(fd[name]), np.abs(analytic[name])), 1e-3)
        worst = max(worst, float(np.max(np.abs(fd[name] - analytic[name]) / denom)))
    assert worst < 1e-4
    report_pass(3, started, f"{n_params} params, worst rel err {worst:.2e}")


def test_criterion_4_reduction_equivalence():
    started = time.time()
    rng = np.random.default_rng(4004)
    anchor_id = 4
    for trial in range(100):
        config = ModelConfig(
            vocab_size=13, n_layers=2, n_heads=2, d_model=16, d_ff=24, context_len=96
        )
        weights = init_weights(config, seed=trial, anchor_id=anchor_id)
        seg = random_segmented(rng, max_len=20)
        ids = [anchor_id if a else 5 + (i % 8) for i, a in zip(seg.ids, seg.is_anchor)]
        prefix = SegmentedText(ids=ids, is_anchor=seg.is_anchor, seq_index=seg.seq_index)
        runs = {}
        for reduce_on in (True, False):
            runs[reduce_on] = generate(
                weights,
                prefix,
                GenerationConfig(
                    max_new_tokens=16, anchor_token_id=anchor_id, eos_id=None,
                    reduction_enabled=reduce_on, collect_logits=True,
                ),
            )
        assert runs[True].ids == runs[False].ids
        for a, b in zip(runs[True].sampled_logits, runs[False].sampled_logits):
            scale = max(np.abs(b).max(), 1e-12)
            assert np.max(np.abs(a - b)) / scale < 1e-5
    report_pass(4, started, "100 trials, ids identical, logits rtol 1e-5")


def test_criterion_5_cache_reduction_metric(tmp_path):
    started = time.time()
    corpus = tmp_path / "c.txt"
    corpus.write_text("\n".join(make_corpus(40, seed=5)), encoding="utf-8")
    policy = AnchorPolicy(mode="ac")
    vocab = build_vocab([corpus], policy, 256)
    weights = init_weights(
        ModelConfig(vocab_size=len(vocab), n_layers=2, n_heads=2, d_model=16,
                    d_ff=32, context_len=512),
        seed=5, anchor_id=vocab.anchor_id,
    )

    demos = make_corpus(5, sentences_per_doc=3, seed=6)
    demo = _demo_part(demos, vocab, policy)
    prompt = _prompt(demo, demos, "every cedar path leads to", vocab, policy)
    cache = AnchorKVCache()
    advance(weights, cache, prompt.ids, list(zip(prompt.is_anchor, prompt.seq_index)))
    cache.reduction()

    n_total = len(prompt)
    n_anchors = sum(prompt.is_anchor)
    last_anchor = max(i for i, a in enumerate(prompt.is_anchor) if a)
    n_tail = n_total - 1 - last_anchor  # entries strictly after the last anchor
    analytic = (n_total - n_anchors - n_tail) / n_total
    assert cache.reduction_metric() == analytic
    print(f"  context: {REFERENCE_FULL_SCALE}")
    report_pass(5, started, f"measured C={cache.reduction_metric():.4f} == analytic")


def test_criterion_6_acceleration(tmp_path):
    started = time.time()
    corpus = tmp_path / "c.txt"
    long_docs = make_corpus(8, sentences_per_doc=20, seed=7)
    corpus.write_text("\n".join(long_docs), encoding="utf-8")
    policy = AnchorPolicy(mode="ac")
    vocab = build_vocab([corpus], policy, 512)
    weights = init_weights(
        ModelConfig(vocab_size=len(vocab), n_layers=2, n_heads=4, d_model=64,
                    d_ff=256, context_len=2048),
        seed=6, anchor_id=vocab.anchor_id,
    )
    demo_pool = [MCItem(doc, ("grain",), 0) for doc in long_docs[:6]]
    items, _ = make_task(5, n_choices=2, seed=8)

    demo_texts = [p.context + " " + p.choices[0] for p in demo_pool[:5]]
    demo = _demo_part(demo_texts, vocab, policy)
    _prompt(demo, demo_texts, items[0].context, vocab, policy)
    assert len(demo) >= 512  # the reuse prefix really is long

    report = run_mc_task(
        weights, vocab, items, shots=5, policy=policy, use_ansan=True,
        reuse_demo_cache=True, demo_pool=demo_pool, seed=9,
        measure_timing=True, accel_baseline="noncache",
    )
    assert report.acceleration_ratio is not None
    assert report.acceleration_ratio > 1.0
    report_pass(6, started, f"T={report.acceleration_ratio:.2f}x over non-caching "
                            f"(full-scale reference: ~1.7x avg, up to 3.5x)")


def test_criterion_7_training_sanity(mb_corpus):
    started = time.time()
    vocab, blocks = mb_corpus
    config = ModelConfig(vocab_size=len(vocab), n_layers=2, n_heads=4, d_model=64,
                         d_ff=256, context_len=64)
    cfg = TrainConfig(mask_mode="ansan", batch_size=32, steps=500,
                      learning_rate=3e-4, warmup_steps=20, seed=0)
    first = train(cfg, config, blocks)
    losses = np.array(first.losses())
    target = np.log(len(vocab)) - 0.5
    assert losses[-1] < target

    moving = np.convolve(losses, np.ones(50) / 50, mode="valid")
    assert np.all(np.diff(moving) <= 0)  # monotone-decreasing 50-step average

    second = train(cfg, config, blocks)
    assert first.losses() == second.losses()  # bitwise-equal loss sequences
    report_pass(7, started, f"final loss {losses[-1]:.3f} < {target:.3f}, "
                            "MA monotone, deterministic")


def test_criterion_8_from_scratch_comparison(mb_corpus):
    started = time.time()
    vocab, blocks = mb_corpus
    config = ModelConfig(vocab_size=len(vocab), n_layers=2, n_heads=4, d_model=64,
                         d_ff=256, context_len=64)
    cfg = TrainConfig(mask_mode="ansan", batch_size=16, steps=40,
                      learning_rate=3e-4, warmup_steps=10, seed=1)
    eval_text = blocks[0]
    for b in blocks[1:4]:
        eval_text = SegmentedText(
            ids=eval_text.ids + b.ids,
            is_anchor=eval_text.is_anchor + b.is_anchor,
            seq_index=eval_text.seq_index
            + [s + eval_text.seq_index[-1] + 1 for s in b.seq_index],
        )
    report = compare_from_scratch(
        config, blocks[4:404], eval_text, cfg, eval_context_len=64
    )
    assert report.init_digests[0] == report.init_digests[1]
    assert report.schedule_digests[0] == report.schedule_digests[1]
    assert np.isfinite(report.causal_perplexity) and report.causal_perplexity > 0
    assert np.isfinite(report.ansan_perplexity) and report.ansan_perplexity > 0
    text = report.to_text()
    assert "causal" in text and "ansan" in text
    assert "32.81" in text and "36.57" in text  # non-target reference numbers
    report_pass(8, started, f"ppl causal {report.causal_perplexity:.2f} / "
                            f"ansan {report.ansan_perplexity:.2f}")


def _cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "anchorlm.cli", *args],
        capture_output=True, text=True,
    )


def _pipeline(root: Path) -> dict[str, bytes]:
    """synth -> prepare -> train -> generate on/off -> eval ppl; returns
    the stable output bytes keyed by artifact name."""
    steps = [
        ("synth", ["synth", "--docs", "120", "--items", "6", "--seed", "3",
                   "--out", str(root / "synth")]),
        ("prepare", ["prepare", "--corpus", str(root / "synth" / "corpus.txt"),
                     "--policy", "ac", "--vocab-size", "128", "--context-len", "48",
                     "--out", str(root / "data")]),
        ("train", ["train", "--data", str(root / "data"), "--mask-mode", "ansan",
                   "--steps", "100", "--batch-size", "8", "--seed", "4",
                   "--n-layers", "1", "--n-heads", "2", "--d-model", "32",
                   "--out", str(root / "train")]),
        ("gen_on", ["generate", "--ckpt", str(root / "train" / "ckpt.bin"),
                    "--vocab", str(root / "data" / "vocab.txt"),
                    "--prompt", "the amber lamp holds the stone . a birch sign marks",
                    "--policy", "ac", "--reduce", "on", "--max-new", "10",
                    "--out", str(root / "gen_on")]),
        ("gen_off", ["generate", "--ckpt", str(root / "train" / "ckpt.bin"),
                     "--vocab", str(root / "data" / "vocab.txt"),
                     "--prompt", "the amber lamp holds the stone . a birch sign marks",
                     "--policy", "ac", "--reduce", "off", "--max-new", "10",
                     "--out", str(root / "gen_off")]),
        ("eval", ["eval", "--task", "ppl", "--ckpt", str(root / "train" / "ckpt.bin"),
                  "--vocab", str(root / "data" / "vocab.txt"),
                  "--policy", "ac", "--mask-mode", "ansan",
                  "--text", str(root / "synth" / "corpus.txt"),
                  "--eval-context-len", "48", "--out", str(root / "eval")]),
    ]
    for name, argv in steps:
        proc = _cli(*argv)
        assert proc.returncode == 0, f"{name} failed: {proc.stderr}"

    on_text = (root / "gen_on" / "generation.txt").read_text().splitlines()
    off_text = (root / "gen_off" / "generation.txt").read_text().splitlines()
    assert on_text[0] == off_text[0]  # --reduce on/off equality

    return {
        "vocab": (root / "data" / "vocab.txt").read_bytes(),
        "blocks": (root / "data" / "blocks.jsonl").read_bytes(),
        "ckpt": (root / "train" / "ckpt.bin").read_bytes(),
        "losses": (root / "train" / "losses.log").read_bytes(),
        "generation": (root / "gen_on" / "generation.txt").read_bytes(),
        "metrics": (root / "eval" / "metrics.txt").read_bytes(),
    }


def test_criterion_9_cli_end_to_end(tmp_path):
    started = time.time()
    first = _pipeline(tmp_path / "run1")
    second = _pipeline(tmp_path / "run2")
    for name in first:
        assert first[name] == second[name], f"{name} not byte-stable"
    report_pass(9, started, "pipeline x2, all reports byte-identical")
