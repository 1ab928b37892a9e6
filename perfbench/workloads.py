"""The three benchmark workloads: set-up from a seed, then rounds.

Each workload has a main arm (the anchor path) and a reference arm (the
baseline the paper compares it with) and runs one round of each per
call to `round`, so both arms see the same inputs and the same machine
noise. Inputs come from the workload seed and the round index only.
See GLOSSARY.md for why each workload exists and what it measures.
"""

from __future__ import annotations

import math
import time
from collections import Counter
from dataclasses import dataclass, field, replace

import numpy as np

import anchorlm.evaluate as evaluate
import anchorlm.infer as infer
from anchorlm.corpus import ANCHOR_TOKEN, AnchorPolicy, Vocab, annotate, tokenize
from anchorlm.evaluate import MCItem
from anchorlm.model import ModelConfig, init_weights
from anchorlm.synth import make_corpus, make_task

from tracing import Patches, Tracer, bookkeeping_seconds, trainmod

# Criterion-4 tolerance for reduced vs full-cache logits.
LOGIT_RTOL = 1e-5
# Cached and non-cached scores sum the same log-probabilities in a
# different order; allow 2**12 float64 ulps relative to the score.
SCORE_RTOL = 2.0**12 * np.finfo(np.float64).eps

POLICY = AnchorPolicy(mode="ac")
SPECIALS = ("<pad>", "<bos>", "<eos>", "<unk>", ANCHOR_TOKEN)


@dataclass(frozen=True)
class Sizes:
    d_model: int = 64
    n_layers: int = 2
    n_heads: int = 4
    d_ff: int = 256
    context_len: int = 1024
    prefix_tokens: int = 512  # decode-long prompt
    new_tokens: int = 256  # decode-long generated tokens per call
    stream_docs: int = 12  # documents the decode prompts are cut from
    demo_docs: int = 8  # mc-fewshot demonstration pool (~148 tokens each)
    demo_sentences: int = 20
    shots: int = 5
    items_per_call: int = 32  # items scored against one reused demo cache
    block_tokens: int = 64  # train-ansan block length
    train_blocks: int = 64
    batch_size: int = 8
    learning_rate: float = 1e-3


TINY = Sizes(
    d_model=16, n_heads=2, d_ff=32, context_len=160, prefix_tokens=48, new_tokens=12,
    stream_docs=2, demo_docs=5, demo_sentences=3, shots=3, items_per_call=3,
    block_tokens=16, train_blocks=8, batch_size=2,
)


_CAL_RNG = np.random.default_rng(0)
_CAL_W = _CAL_RNG.normal(size=(64, 64))
_CAL_X = _CAL_RNG.normal(size=(1, 64))
_CAL_ROWS = [_CAL_RNG.normal(size=(2, 4, 16)) for _ in range(64)]
_CAL_FLAGS = [i % 7 == 0 for i in range(64)]


def calibrate() -> float:
    """Seconds for a fixed loop of small numpy ops and interpreter work,
    the same mix the library's hot paths run, but no anchorlm code: a
    change to the package cannot move it, a busy machine does."""
    t0 = time.perf_counter()
    for _ in range(25):
        y = _CAL_X @ _CAL_W
        y = np.exp(-(y * y)) / (1.0 + np.abs(y))
        np.stack(_CAL_ROWS, axis=2)
        bits = np.ones(len(_CAL_FLAGS) + 1, dtype=np.uint8)
        for j, flag in enumerate(_CAL_FLAGS):
            if flag:
                bits[j] = 0
    return time.perf_counter() - t0


def derive(seed: int, *keys: int) -> int:
    """A child seed for (seed, keys...) that fits the library's int seeds."""
    return int(np.random.default_rng([seed, *keys]).integers(2**31))


def build_vocab(texts: list[str]) -> Vocab:
    """In-memory vocab with anchorlm's layout: specials, then tokens by
    descending frequency (ties lexicographic)."""
    counts = Counter(tok for text in texts for tok in tokenize(text))
    ranked = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
    tokens = SPECIALS + tuple(t for t, _ in ranked if t not in SPECIALS)
    return Vocab(
        id_to_token=tokens,
        token_to_id={t: i for i, t in enumerate(tokens)},
        anchor_id=SPECIALS.index(ANCHOR_TOKEN),
    )


def model_config(sizes: Sizes, vocab: Vocab, context_len: int) -> ModelConfig:
    return ModelConfig(
        vocab_size=len(vocab), n_layers=sizes.n_layers, n_heads=sizes.n_heads,
        d_model=sizes.d_model, d_ff=sizes.d_ff, context_len=context_len,
    )


@dataclass
class Round:
    """What one round measured and checked."""

    lat_ms: dict[str, list[float]] = field(default_factory=lambda: {"main": [], "ref": []})
    work: dict[str, list[float]] = field(default_factory=lambda: {"main": [0.0, 0.0], "ref": [0.0, 0.0]})
    ttft_ms: dict[str, list[float]] = field(default_factory=lambda: {"main": [], "ref": []})
    # calibration seconds around each call of the arm (mean of before and after)
    cal_s: dict[str, list[float]] = field(default_factory=lambda: {"main": [], "ref": []})
    # arm -> [bookkeeping seconds, call seconds], traced rounds only
    bookkeeping: dict[str, list[float]] = field(default_factory=dict)
    counts: dict[str, object] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)

    def add(self, arm: str, lat_ms: float, units: float, seconds: float) -> None:
        self.lat_ms[arm].append(lat_ms)
        self.work[arm][0] += units
        self.work[arm][1] += seconds

    def call(self, arm: str, fn, *args, **kwargs):
        """Run one API call between two calibration loops; (result, t0, t1)."""
        self.attempted += 1
        before = calibrate()
        t0 = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            t1 = time.perf_counter()
            self.cal_s[arm].append(0.5 * (before + calibrate()))
        return result, t0, t1

    def fail(self, message: str, ops: int = 1) -> None:
        self.failed += ops
        self.errors.append(message)


class Workload:
    name = ""
    units = ("", "")  # work unit of the main and the reference arm
    tail_q = 95.0  # highest percentile with >= 10 samples beyond it per run
    # arm -> report names of its latency, rate and first-token metrics
    report_names: dict[str, tuple[str, str, str]] = {}
    ratio_name = ""  # main rate over reference rate, reported but not gated
    kv_bytes_per_entry = 0

    def install_hooks(self, patches: Patches) -> None:
        """Clock and capture wrappers the untraced measurement needs."""

    def save(self):
        return None

    def load(self, state) -> None:
        pass

    def final_errors(self) -> list[str]:
        return []


class DecodeLong(Workload):
    """generate() after a long prompt, reduction on (main) and off (ref)."""

    name = "decode-long"
    units = ("tokens", "tokens")
    tail_q = 99.0
    report_names = {"main": ("itl_ms", "decode_tokens_per_s", "ttft_ms"),
                    "ref": ("itl_full_ms", "decode_full_tokens_per_s", "ttft_full_ms")}
    ratio_name = "decode_speedup"

    def __init__(self, seed: int, sizes: Sizes) -> None:
        self.seed, self.sizes = seed, sizes
        docs = make_corpus(sizes.stream_docs, sentences_per_doc=20, seed=derive(seed, 1))
        self.vocab = build_vocab(docs)
        self.stream = annotate(" ".join(docs), self.vocab, POLICY)
        if len(self.stream) <= sizes.prefix_tokens:
            raise ValueError("decode stream is shorter than the prompt")
        cfg = model_config(sizes, self.vocab, sizes.context_len)
        self.weights = init_weights(cfg, seed=derive(seed, 2), anchor_id=self.vocab.anchor_id)
        self.kv_bytes_per_entry = sizes.n_layers * 2 * sizes.d_model * 8
        self.clock: list[float] = []

    def install_hooks(self, patches: Patches) -> None:
        clock = self.clock

        def make(fn):
            def forward(*args, **kwargs):
                clock.append(time.perf_counter())
                return fn(*args, **kwargs)

            return forward

        if not patches.wrap(infer, "forward", make):
            raise RuntimeError("anchorlm.infer has no `forward` to time tokens by")

    def round(self, r: int, tracer: Tracer | None = None) -> Round:
        out = Round()
        rng = np.random.default_rng([self.seed, 3, r])
        start = int(rng.integers(len(self.stream) - self.sizes.prefix_tokens))
        prefix = self.stream.slice(start, start + self.sizes.prefix_tokens)
        base = infer.GenerationConfig(
            max_new_tokens=self.sizes.new_tokens, anchor_token_id=self.vocab.anchor_id,
            temperature=1.0, sample_seed=derive(self.seed, 4, r), collect_logits=True,
        )
        arms = [("main", True), ("ref", False)]
        if r % 2:
            arms.reverse()
        results = {}
        for arm, reduce_on in arms:
            cfg = replace(base, reduction_enabled=reduce_on)
            self.clock.clear()
            before = tracer.snapshot() if tracer else None
            res, g0, g1 = out.call(arm, infer.generate, self.weights, prefix, cfg)
            if tracer:
                out.bookkeeping[arm] = [bookkeeping_seconds(before, tracer.snapshot()), g1 - g0]
            if len(self.clock) != len(res.ids):
                out.fail(f"{arm}: {len(self.clock)} forward calls for {len(res.ids)} tokens")
                continue
            # token k is ready when the call for token k+1 starts
            ready = self.clock[1:] + [g1]
            out.ttft_ms[arm].append(1e3 * (ready[0] - g0))
            for a, b in zip(ready, ready[1:]):
                out.lat_ms[arm].append(1e3 * (b - a))
            out.work[arm][0] += len(res.ids)
            out.work[arm][1] += g1 - g0
            results[arm] = res
            out.counts[f"{arm}.tokens"] = len(res.ids)
            out.counts[f"{arm}.anchors"] = res.ids.count(self.vocab.anchor_id)
            out.counts[f"{arm}.appends"] = res.stats.total_appends
            out.counts[f"{arm}.discards"] = res.stats.total_discards
            out.counts[f"{arm}.peak_live"] = res.stats.peak_live_count
            out.counts[f"{arm}.ids"] = tuple(res.ids)
        if len(results) == 2:
            on, off = results["main"], results["ref"]
            if on.ids != off.ids:
                out.fail("token ids differ between reduction on and off", ops=2)
            elif len(on.sampled_logits) != len(on.ids) or len(off.sampled_logits) != len(on.ids):
                out.fail("sampled logits missing", ops=2)
            else:
                worst = max(
                    float(np.max(np.abs(a - b))) / max(float(np.abs(b).max()), 1e-12)
                    for a, b in zip(on.sampled_logits, off.sampled_logits)
                )
                if not worst < LOGIT_RTOL:
                    out.fail(f"sampled logits differ by {worst:.3g} relative", ops=2)
        return out


class McFewshot(Workload):
    """5-shot multiple choice: one reduced demo cache reused over many
    items (main) against recomputing the whole prompt per item (ref)."""

    name = "mc-fewshot"
    units = ("items", "items")
    tail_q = 75.0
    report_names = {"main": ("mc_item_ms", "mc_items_per_s", ""),
                    "ref": ("mc_noncache_item_ms", "mc_noncache_items_per_s", "")}
    ratio_name = "mc_acceleration"

    def __init__(self, seed: int, sizes: Sizes) -> None:
        self.seed, self.sizes = seed, sizes
        docs = make_corpus(
            sizes.demo_docs, sentences_per_doc=sizes.demo_sentences, seed=derive(seed, 1)
        )
        self.vocab = build_vocab(docs)
        # Long demonstrations: each is one sequence closed by one anchor.
        self.demo_pool = [MCItem(doc, ("grain",), 0) for doc in docs]
        cfg = model_config(sizes, self.vocab, sizes.context_len)
        self.weights = init_weights(cfg, seed=derive(seed, 2), anchor_id=self.vocab.anchor_id)
        self.kv_bytes_per_entry = sizes.n_layers * 2 * sizes.d_model * 8
        self.scores: list[list[list[float]]] = []

    def install_hooks(self, patches: Patches) -> None:
        captured = self.scores

        def cached(fn):
            def score_cached(*args, **kwargs):
                scores, acct = fn(*args, **kwargs)
                captured.append(scores)
                return scores, acct

            return score_cached

        def noncache(fn):
            def score_noncache(*args, **kwargs):
                scores = fn(*args, **kwargs)
                captured.append(scores)
                return scores

            return score_noncache

        for name, make in (("_score_cached", cached), ("_score_noncache", noncache)):
            if not patches.wrap(evaluate, name, make):
                raise RuntimeError(f"anchorlm.evaluate has no `{name}` to read scores from")

    def _call(self, out: Round, arm: str, items: list[MCItem], demo_seed: int):
        self.scores.clear()
        report, t0, t1 = out.call(
            arm, evaluate.run_mc_task, self.weights, self.vocab, items, self.sizes.shots,
            POLICY, use_ansan=True, reuse_demo_cache=arm == "main",
            demo_pool=self.demo_pool, seed=demo_seed,
        )
        seconds = t1 - t0
        if report.n_skipped:
            out.fail(f"{report.n_skipped} items did not fit the context")
            return None, seconds
        if len(self.scores) != 1 or len(self.scores[0]) != len(items):
            out.fail("run_mc_task did not score every item once")
            return None, seconds
        return (report, self.scores[0]), seconds

    def round(self, r: int, tracer: Tracer | None = None) -> Round:
        out = Round()
        k = self.sizes.items_per_call
        items, _ = make_task(k, n_choices=3, seed=derive(self.seed, 3, r))
        demo_seed = derive(self.seed, 4, r)
        pick = r % k

        cached, seconds = self._call(out, "main", items, demo_seed)
        out.add("main", 1e3 * seconds / k, k, seconds)
        plain, seconds = self._call(out, "ref", [items[pick]], demo_seed)
        out.add("ref", 1e3 * seconds, 1, seconds)
        if cached is None or plain is None:
            return out

        report, scores = cached
        a = np.asarray(scores[pick])
        b = np.asarray(plain[1][0])
        if a.shape != b.shape or np.any(np.abs(a - b) > SCORE_RTOL * np.maximum(1.0, np.abs(b))):
            out.fail(f"item {pick}: cached scores {a.tolist()} != non-cached {b.tolist()}", ops=2)
        elif int(np.argmax(a)) != int(np.argmax(b)):
            out.fail(f"item {pick}: argmax differs between cached and non-cached", ops=2)
        out.counts["items"] = k + 1
        out.counts["peak_cache"] = report.peak_cache
        out.counts["cache_reduction"] = report.cache_reduction
        out.counts["accuracy"] = report.accuracy
        return out


class TrainAnsan(Workload):
    """train() one step per call on anchor-masked blocks (main) and on
    the same blocks with causal masks (ref), from a shared init."""

    name = "train-ansan"
    units = ("tokens", "tokens")
    tail_q = 90.0
    report_names = {"main": ("train_step_ms", "train_tokens_per_s", ""),
                    "ref": ("train_causal_step_ms", "train_causal_tokens_per_s", "")}
    ratio_name = "ansan_over_causal_rate"

    def __init__(self, seed: int, sizes: Sizes) -> None:
        self.seed, self.sizes = seed, sizes
        sentences = math.ceil(sizes.block_tokens / 6)  # >= 6 tokens per sentence
        docs = make_corpus(sizes.train_blocks, sentences_per_doc=sentences, seed=derive(seed, 1))
        self.vocab = build_vocab(docs)
        self.blocks = [annotate(d, self.vocab, POLICY).slice(0, sizes.block_tokens) for d in docs]
        if any(len(b) != sizes.block_tokens for b in self.blocks):
            raise ValueError("a training document is shorter than one block")
        self.config = model_config(sizes, self.vocab, sizes.block_tokens)
        init = init_weights(self.config, seed=derive(seed, 2), anchor_id=self.vocab.anchor_id)
        base = trainmod.TrainConfig(
            batch_size=sizes.batch_size, steps=1, learning_rate=sizes.learning_rate,
            warmup_steps=0, seed=derive(seed, 3), policy="ac",
        )
        self.train_cfg = {"main": replace(base, mask_mode="ansan"),
                          "ref": replace(base, mask_mode="causal")}
        # arm -> (weights, optimizer state, steps done)
        self.state = {arm: (init, None, 0) for arm in self.train_cfg}
        self.losses: dict[str, list[float]] = {arm: [] for arm in self.train_cfg}

    def save(self):
        return dict(self.state), {arm: len(v) for arm, v in self.losses.items()}

    def load(self, state) -> None:
        self.state = dict(state[0])
        for arm, n in state[1].items():
            del self.losses[arm][n:]

    def round(self, r: int, tracer: Tracer | None = None) -> Round:
        out = Round()
        arms = ["main", "ref"] if r % 2 == 0 else ["ref", "main"]
        for arm in arms:
            weights, opt_state, step = self.state[arm]
            # one step per call, resumed from the previous call's weights and
            # optimizer state: the same losses as one uninterrupted run
            report, t0, t1 = out.call(
                arm, trainmod.train, self.train_cfg[arm], self.config, self.blocks,
                initial=weights, opt_state=opt_state, start_step=step,
            )
            seconds = t1 - t0
            loss = report.records[-1].loss
            if not math.isfinite(loss):
                out.fail(f"{arm}: non-finite loss at step {step + 1}")
            out.add(arm, 1e3 * seconds, report.tokens_seen, seconds)
            self.state[arm] = (report.final_weights, report.opt_state, step + 1)
            self.losses[arm].append(loss)
            out.counts[f"{arm}.loss"] = loss
            out.counts[f"{arm}.tokens"] = report.tokens_seen
        return out

    def final_errors(self) -> list[str]:
        errors = []
        for arm, losses in self.losses.items():
            if len(losses) >= 2 and not losses[-1] < losses[0]:
                errors.append(f"{arm}: final loss {losses[-1]!r} not below first {losses[0]!r}")
        return errors


WORKLOADS = {w.name: w for w in (DecodeLong, McFewshot, TrainAnsan)}
