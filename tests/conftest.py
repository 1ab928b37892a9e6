"""Shared fixtures, random-input builders and measuring helpers for the
test suite."""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from anchorlm import model
from anchorlm.corpus import SegmentedText
from anchorlm.masks import MaskRule, mask_rows, segment_flags
from anchorlm.model import ModelConfig, init_weights

# Cached and non-cached scores sum the same log-probabilities in a
# different order, and a forward over fewer rows may take another BLAS
# kernel: allow 2**12 float64 ulps relative (the benchmark's tolerance).
SCORE_RTOL = 2.0**12 * np.finfo(np.float64).eps


def random_segmented(rng: np.random.Generator, max_len: int = 64) -> SegmentedText:
    """Random SegmentedText satisfying the type invariants: sequences are
    contiguous runs and only a run's final token may be an anchor."""
    length = int(rng.integers(1, max_len + 1))
    ids: list[int] = []
    anchors: list[bool] = []
    seqs: list[int] = []
    seq = 0
    pos = 0
    while pos < length:
        run = min(int(rng.integers(1, 7)), length - pos)
        has_anchor = bool(rng.random() < 0.7)
        for i in range(run):
            ids.append(int(rng.integers(0, 50)))
            anchors.append(has_anchor and i == run - 1)
            seqs.append(seq)
        seq += 1
        pos += run
    seg = SegmentedText(ids=ids, is_anchor=anchors, seq_index=seqs)
    seg.validate()
    return seg


def anchor_rule(seg: SegmentedText) -> MaskRule:
    """The anchor mask rule over one segment, as training builds it."""
    return mask_rows(segment_flags(seg))


def causal_rule(n: int) -> MaskRule:
    """The causal mask rule over n tokens, as causal training builds it;
    the flags have no anchor."""
    return mask_rows(np.zeros((n, 2), dtype=np.int64))


def traced_peak(fn) -> int:
    """Peak bytes that tracemalloc traces while fn() runs (numpy reports
    its array buffers to it)."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def tiny_config(vocab_size: int = 11, context_len: int = 64) -> ModelConfig:
    return ModelConfig(
        vocab_size=vocab_size,
        n_layers=2,
        n_heads=2,
        d_model=16,
        d_ff=32,
        context_len=context_len,
    )


@pytest.fixture(scope="session")
def tiny_weights():
    return init_weights(tiny_config(), seed=7)


@pytest.fixture
def layer_queries(monkeypatch):
    """Spy on the model; calling the fixture's value gives per forward, in
    call order, the query rows each layer ran, bottom first, with 0 for a
    layer that ran no attention."""
    forwards: list[list[int]] = []
    graph, attention = model._forward_graph, model.attention

    def graph_spy(params, config, *args, **kwargs):
        forwards.append([0] * config.n_layers)
        return graph(params, config, *args, **kwargs)

    def attention_spy(q, k, v, keep):
        rows = forwards[-1]
        rows[rows.index(0)] = q.shape[-2]  # the layers that run rows are the lowest
        return attention(q, k, v, keep)

    monkeypatch.setattr(model, "_forward_graph", graph_spy)
    monkeypatch.setattr(model, "attention", attention_spy)
    return lambda: forwards
