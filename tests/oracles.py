"""Brute-force references used only by tests.

Everything here is written from first principles with explicit loops and
plain arithmetic; nothing is imported from the production mask, model or
cache modules, so agreement between the two sides is meaningful.
"""

from __future__ import annotations

import math

import numpy as np


def naive_anchor_mask(flags: list[bool], seqs: list[int]) -> np.ndarray:
    """Direct four-case transcription of the anchor masking rule."""
    n = len(flags)
    m = np.zeros((n, n), dtype=np.uint8)
    for i in range(n):
        k = seqs[i]
        for j in range(n):
            if (not flags[i]) and (not flags[j]) and seqs[j] <= k - 1:
                m[i][j] = 0
            elif flags[i] and seqs[j] <= k - 1:
                m[i][j] = 0
            elif i >= j:
                m[i][j] = 1
            else:
                m[i][j] = 0
    return m


def naive_causal_mask(n: int) -> np.ndarray:
    """Lower-triangular 0/1 mask: query i keeps keys 0..i."""
    m = np.zeros((n, n), dtype=np.uint8)
    for i in range(n):
        for j in range(i + 1):
            m[i][j] = 1
    return m


def naive_reduction(entries: list[tuple[int, bool]]) -> set[int]:
    """Retained positions for (position, is_anchor) entries: keep anchors
    and everything at or after the last anchor; no anchor keeps all."""
    anchor_positions = [pos for pos, is_anchor in entries if is_anchor]
    if not anchor_positions:
        return {pos for pos, _ in entries}
    last = anchor_positions[-1]
    return {pos for pos, is_anchor in entries if is_anchor or pos >= last}


def naive_split_sentences(text: str) -> list[str]:
    """Character loop: a sentence ends at '.', '!' or '?' followed by
    whitespace or end-of-text; the whitespace after it is skipped, and
    blank pieces are dropped."""
    sentences: list[str] = []
    start = 0
    i = 0
    n = len(text)
    while i < n:
        if text[i] in ".!?" and (i + 1 == n or text[i + 1].isspace()):
            sentences.append(text[start : i + 1])
            i += 1
            while i < n and text[i].isspace():
                i += 1
            start = i
        else:
            i += 1
    if start < n:
        sentences.append(text[start:])
    return [s for s in sentences if s.strip()]


def naive_log_softmax(row: np.ndarray) -> np.ndarray:
    """Log-softmax of one 1-D row of logits."""
    shifted = row - row.max()
    return shifted - np.log(np.exp(shifted).sum())


def _rms_normalize(vec: np.ndarray, gain: np.ndarray, eps: float) -> np.ndarray:
    ms = 0.0
    for x in vec:
        ms += x * x
    ms /= len(vec)
    out = np.empty_like(vec)
    for d in range(len(vec)):
        out[d] = vec[d] / math.sqrt(ms + eps) * gain[d]
    return out


def _rotate_vec(vec: np.ndarray, position: int, base: float) -> np.ndarray:
    hd = len(vec)
    half = hd // 2
    out = np.empty_like(vec)
    for i in range(half):
        angle = position * base ** (-2.0 * i / hd)
        c, s = math.cos(angle), math.sin(angle)
        out[i] = vec[i] * c - vec[i + half] * s
        out[i + half] = vec[i] * s + vec[i + half] * c
    return out


def _gelu_scalar(x: float) -> float:
    c = math.sqrt(2.0 / math.pi)
    return 0.5 * x * (1.0 + math.tanh(c * (x + 0.044715 * x * x * x)))


def naive_init(config, seed: int, anchor_id: int | None = None) -> dict[str, np.ndarray]:
    """Parameters built in the documented draw order from one generator:
    embedding, then per layer attn_gain, wq, wk, wv, wo, ffn_gain, w1, w2,
    then final_gain and head. Gains are ones and take no draws; every
    other array is the next block of normal(0, 0.02) draws. With anchor_id,
    the anchor's embedding row becomes the mean of all other rows."""
    rng = np.random.default_rng(seed)
    d, ff, vocab = config.d_model, config.d_ff, config.vocab_size

    def normal(rows: int, cols: int) -> np.ndarray:
        return rng.normal(0.0, 0.02, size=(rows, cols))

    arrays = {"embedding": normal(vocab, d)}
    for li in range(config.n_layers):
        arrays[f"layer{li}.attn_gain"] = np.ones(d)
        arrays[f"layer{li}.wq"] = normal(d, d)
        arrays[f"layer{li}.wk"] = normal(d, d)
        arrays[f"layer{li}.wv"] = normal(d, d)
        arrays[f"layer{li}.wo"] = normal(d, d)
        arrays[f"layer{li}.ffn_gain"] = np.ones(d)
        arrays[f"layer{li}.w1"] = normal(d, ff)
        arrays[f"layer{li}.w2"] = normal(ff, d)
    arrays["final_gain"] = np.ones(d)
    arrays["head"] = normal(d, vocab)
    if anchor_id is not None:
        total = np.zeros(d)
        for row in range(vocab):
            if row != anchor_id:
                total = total + arrays["embedding"][row]
        arrays["embedding"][anchor_id] = total / (vocab - 1)
    return arrays


def naive_attention(
    dims: dict[str, float],
    arrays: dict[str, np.ndarray],
    ids: list[int],
    mask: np.ndarray,
    positions: list[int],
) -> np.ndarray:
    """Loop-based recomputation of the full forward pass (no caching).

    dims: n_layers, n_heads, d_model, norm_eps, rope_base.
    arrays: raw float64 matrices named embedding, final_gain, head, and
    layer{i}.{attn_gain,wq,wk,wv,wo,ffn_gain,w1,w2}.
    """
    n_layers = int(dims["n_layers"])
    n_heads = int(dims["n_heads"])
    d_model = int(dims["d_model"])
    eps = float(dims["norm_eps"])
    base = float(dims["rope_base"])
    hd = d_model // n_heads
    T = len(ids)
    mask = np.atleast_2d(mask)

    h = np.array([arrays["embedding"][tok].copy() for tok in ids])
    for li in range(n_layers):
        wq = arrays[f"layer{li}.wq"]
        wk = arrays[f"layer{li}.wk"]
        wv = arrays[f"layer{li}.wv"]
        wo = arrays[f"layer{li}.wo"]
        gain = arrays[f"layer{li}.attn_gain"]

        q = np.zeros((T, n_heads, hd))
        k = np.zeros((T, n_heads, hd))
        v = np.zeros((T, n_heads, hd))
        for t in range(T):
            normed = _rms_normalize(h[t], gain, eps)
            qt = normed @ wq
            kt = normed @ wk
            vt = normed @ wv
            for head in range(n_heads):
                lo = head * hd
                q[t, head] = _rotate_vec(qt[lo : lo + hd], positions[t], base)
                k[t, head] = _rotate_vec(kt[lo : lo + hd], positions[t], base)
                v[t, head] = vt[lo : lo + hd]

        ctx = np.zeros((T, d_model))
        for t in range(T):
            for head in range(n_heads):
                scores = []
                for j in range(T):
                    if mask[t][j]:
                        scores.append((j, float(q[t, head] @ k[j, head]) / math.sqrt(hd)))
                top = max(s for _, s in scores)
                weights = [(j, math.exp(s - top)) for j, s in scores]
                denom = sum(w for _, w in weights)
                acc = np.zeros(hd)
                for j, w in weights:
                    acc += (w / denom) * v[j, head]
                ctx[t, head * hd : (head + 1) * hd] = acc
        for t in range(T):
            h[t] = h[t] + ctx[t] @ wo

        w1 = arrays[f"layer{li}.w1"]
        w2 = arrays[f"layer{li}.w2"]
        fgain = arrays[f"layer{li}.ffn_gain"]
        for t in range(T):
            normed = _rms_normalize(h[t], fgain, eps)
            hidden = normed @ w1
            for d in range(len(hidden)):
                hidden[d] = _gelu_scalar(hidden[d])
            h[t] = h[t] + hidden @ w2

    logits = np.zeros((T, arrays["head"].shape[1]))
    for t in range(T):
        logits[t] = _rms_normalize(h[t], arrays["final_gain"], eps) @ arrays["head"]
    return logits


def finite_difference_grads(loss_fn, arrays: dict[str, np.ndarray], step: float = 1e-4):
    """Central-difference gradient of loss_fn() w.r.t. every array entry;
    arrays are perturbed in place and restored."""
    grads = {name: np.zeros_like(a) for name, a in arrays.items()}
    for name, a in arrays.items():
        flat = a.reshape(-1)
        g = grads[name].reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + step
            up = loss_fn()
            flat[i] = orig - step
            down = loss_fn()
            flat[i] = orig
            g[i] = (up - down) / (2.0 * step)
    return grads
