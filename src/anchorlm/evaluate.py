"""Perplexity, multiple-choice accuracy, cache-reduction and acceleration
metrics, and the anchor-position ablation harness.

Multiple-choice scoring follows the continuation log-likelihood recipe:
each choice is appended to the prompt and the summed log-probability of
its tokens decides the prediction (ties go to the lowest choice index).
With demonstration caching, the demonstrations are processed once and
their cache is reused across items and choices. The demonstration part
is prefilled in one `advance` that reads no logits, as `infer.generate`
prefills its prompt: under anchor masks the cache is reduced after it,
and the forward computes keys/values only for the rows the reduction
keeps, so a closed sequence's other tokens run only as far as their
anchor reads them. The demonstration part does not depend on the item,
so it is built once per task under every policy, and each prompt is
checked to start with it when the prompt is built. The items are then
scored in packed forwards, each over a clone of that cache: an item's
context is the trunk of a tree, each choice but its last token is a
branch that sees the trunk and itself, never another choice, and
consecutive items share one forward as a forest whose trees never see
each other (`infer.score_trees`, tree attention across prompts that
share a cached prefix, as in Hydragen, Juravsky et al., 2024). Nothing
an item adds is committed, so the cache statistics are the
demonstration cache's.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass, fields, replace
from functools import partial
from pathlib import Path

import numpy as np

from .cache import AnchorKVCache, CacheStats
from .corpus import AnchorPolicy, SegmentedText, Vocab, annotate, tokenize
from .errors import ContractError, InputError, UndefinedMetricError
from .infer import advance, log_softmax, next_seq_index, score_continuation, score_trees
from .masks import MASK_MODES, mask_rows, no_anchor, segment_flags
from .model import ModelWeights, forward

# New tokens (item contexts plus choice branches) per packed scoring
# forward. Over a reduced demonstration cache, a forest of this size
# attends in one tile over every (row, key) pair; a larger one reaches
# autodiff.TILE_MIN_PAIRS and attends in tiles of query rows over the
# keys each keeps, whose cost does not grow with the forest's square.
# BENCH_mc_items.json (`tools/curves.py mc-items`) records the
# items-phase time per budget.
# One forest of every item costs within a quarter of this budget's time
# (a little less at 32 items, more at 128), where before tiling it cost
# up to 4x; a budget of 256 is slower than this one at every item count.
ITEM_TOKEN_BUDGET = 128

REFERENCE_FULL_SCALE = (
    "full-scale reference (non-target): cache reduction ~0.90 ep / ~0.99 ac; "
    "acceleration ~1.7x avg, up to 3.5x on long prompts; accuracy drop <~1.5%"
)


# -- perplexity ----------------------------------------------------------------


def perplexity(
    weights: ModelWeights,
    text: SegmentedText,
    mask_mode: str,
    eval_context_len: int,
    inserted_anchor_id: int | None = None,
) -> float:
    """exp(mean next-token NLL) over non-overlapping windows, each one
    forward under the mask rule (`masks.mask_rows`) over the window's own
    flags for anchor masks, or over flags with no anchor for causal ones.

    Inserted anchor tokens stay in the stream as inputs but are excluded
    from the loss average; pass their id via inserted_anchor_id.
    """
    if mask_mode not in MASK_MODES:
        raise ContractError(f"mask_mode must be one of {MASK_MODES}")
    if eval_context_len > weights.config.context_len:
        raise ContractError("eval_context_len exceeds the model context length")
    if eval_context_len < 2:
        raise ContractError("eval_context_len must be >= 2")
    if len(text) == 0:
        raise UndefinedMetricError("perplexity is undefined on empty text")

    total_nll = 0.0
    count = 0
    for start in range(0, len(text), eval_context_len):
        window = text.slice(start, min(start + eval_context_len, len(text)))
        if len(window) < 2:
            continue
        flags = segment_flags(window if mask_mode == "ansan" else no_anchor(window))
        out = forward(weights, window.ids, mask_rows(flags), None, np.arange(len(window)))
        targets = np.asarray(window.ids[1:])
        keep = ~(np.asarray(window.is_anchor[1:], dtype=bool) & (targets == inserted_anchor_id))
        logp = log_softmax(out.logits[:-1])[keep, targets[keep]]
        for x in logp.tolist():  # summed in token order
            total_nll -= x
        count += len(logp)
    if count == 0:
        raise UndefinedMetricError("no scorable positions in text")
    return float(np.exp(total_nll / count))


# -- multiple-choice task ------------------------------------------------------


@dataclass(frozen=True)
class MCItem:
    context: str
    choices: tuple[str, ...]
    gold: int


def load_mc_items(path: str | Path) -> list[MCItem]:
    """Line-delimited records: {"context": str, "choices": [str], "gold": int}."""
    try:
        raw = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(f"cannot read task file {path}: {exc}") from exc
    items = []
    for ln, line in enumerate(raw.splitlines(), 1):
        if not line.strip():
            continue
        try:
            rec = json.loads(line)
            context, choices, gold = rec["context"], rec["choices"], rec["gold"]
        except (json.JSONDecodeError, KeyError, TypeError) as exc:
            raise InputError(f"bad task record at {path}:{ln}: {exc}") from exc
        if not (isinstance(context, str) and isinstance(choices, list)
                and all(isinstance(c, str) for c in choices) and type(gold) is int):
            raise InputError(f"bad task record at {path}:{ln}: needs a string context, "
                             "a list of string choices and an integer (not bool) gold")
        if not choices or not 0 <= gold < len(choices):
            raise InputError(f"bad choices/gold at {path}:{ln}")
        if not all(tokenize(c) for c in choices):
            raise InputError(f"a choice at {path}:{ln} has no tokens")
        items.append(MCItem(context, tuple(choices), gold))
    if not items:
        raise InputError(f"task file {path} contains no items")
    return items


def save_mc_items(path: str | Path, items: list[MCItem]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for it in items:
            fh.write(
                json.dumps(
                    {"context": it.context, "choices": list(it.choices), "gold": it.gold}
                )
                + "\n"
            )


@dataclass
class MetricsReport:
    """Self-describing metrics record; to_text() has a stable key order."""

    task: str
    policy: str
    mask_mode: str
    shots: int
    n_items: int = 0
    n_skipped: int = 0
    accuracy: float | None = None
    perplexity: float | None = None
    cache_reduction: float | None = None
    acceleration_ratio: float | None = None
    accel_baseline: str | None = None
    peak_cache: int | None = None
    reference_note: str | None = None
    wall_seconds_primary: float | None = None
    wall_seconds_baseline: float | None = None

    def validate(self) -> None:
        if self.accuracy is not None and not 0.0 <= self.accuracy <= 1.0:
            raise ContractError("accuracy out of range")
        if self.cache_reduction is not None and not 0.0 <= self.cache_reduction <= 1.0:
            raise ContractError("cache_reduction out of range")
        if self.acceleration_ratio is not None and self.acceleration_ratio <= 0:
            raise ContractError("acceleration_ratio must be positive")

    def to_text(self) -> str:
        """Every field that is set, in order; only a timed run sets the wall times."""
        self.validate()
        lines = []
        for f in fields(self):
            value = getattr(self, f.name)
            if value is None:
                continue
            text = repr(value) if isinstance(value, float) else value
            lines.append(f"{f.name} = {text}")
        return "\n".join(lines) + "\n"


def _demo_part(demo_texts: list[str], vocab: Vocab, policy: AnchorPolicy) -> SegmentedText:
    """The demonstration part, which does not depend on the item. Under
    the ac policy each demonstration is one sequence closed by one
    appended anchor token (the five-shot layout); the other policies
    annotate the demonstrations alone."""
    if policy.mode != "ac":
        return annotate(" ".join(demo_texts), vocab, policy)
    ids: list[int] = []
    anchors: list[bool] = []
    seqs: list[int] = []
    for seq, demo in enumerate(demo_texts):
        demo_ids = vocab.encode_text(demo) + [vocab.anchor_id]
        ids += demo_ids
        anchors += [False] * (len(demo_ids) - 1) + [True]
        seqs += [seq] * len(demo_ids)
    demo_part = SegmentedText(ids=ids, is_anchor=anchors, seq_index=seqs)
    demo_part.validate()
    return demo_part


def _prompt(
    demo: SegmentedText,
    demo_texts: list[str],
    context_text: str,
    vocab: Vocab,
    policy: AnchorPolicy,
) -> SegmentedText:
    """The demonstration part `demo` followed by the item context. Under
    ac the context opens the next sequence, and only its junction with
    the validated demonstrations is checked. The other policies annotate
    the whole stream, whose prefix must be `demo`: no token spans the
    joining space and every policy places anchors left to right."""
    if policy.mode == "ac":
        ctx_ids = vocab.encode_text(context_text)
        seg = SegmentedText(
            ids=demo.ids + ctx_ids,
            is_anchor=demo.is_anchor + [False] * len(ctx_ids),
            seq_index=demo.seq_index + [next_seq_index(demo)] * len(ctx_ids),
        )
        seg.slice(max(len(demo) - 1, 0), len(seg)).validate()
        return seg
    seg = annotate(" ".join(demo_texts + [context_text]), vocab, policy)
    n = len(demo)
    if (seg.ids[:n], seg.is_anchor[:n], seg.seq_index[:n]) != (
        demo.ids, demo.is_anchor, demo.seq_index
    ):
        raise ContractError("the prompt does not start with the demonstration part")
    return seg


@dataclass
class _PreparedItem:
    prompt: SegmentedText  # the demonstration part, then the item context
    choice_ids: list[list[int]]
    gold: int


def _prepare_items(
    items: list[MCItem],
    demo_texts: list[str],
    vocab: Vocab,
    policy: AnchorPolicy,
    context_len: int,
) -> tuple[SegmentedText, list[_PreparedItem], int]:
    """The task's demonstration part, built once, and the items that have
    a context and fit context_len with their longest choice; returns
    (demonstration part, prepared items, number skipped)."""
    demo = _demo_part(demo_texts, vocab, policy)
    prepared: list[_PreparedItem] = []
    for item in items:
        prompt = _prompt(demo, demo_texts, item.context, vocab, policy)
        choice_ids = [vocab.encode_text(c) for c in item.choices]
        # an empty continuation would score 0.0 and beat every real choice
        if not all(choice_ids):
            raise ContractError(f"a choice of item {item.context!r} has no tokens")
        longest = max(len(c) for c in choice_ids)
        if len(prompt) > len(demo) and len(prompt) + longest <= context_len:
            prepared.append(_PreparedItem(prompt, choice_ids, item.gold))
    return demo, prepared, len(items) - len(prepared)


def _without_anchors(demo: SegmentedText, prepared: list[_PreparedItem]) -> tuple:
    """The demonstration part and the items with no anchor, for causal masks."""
    return no_anchor(demo), [replace(p, prompt=no_anchor(p.prompt)) for p in prepared]


def _score_noncache(weights: ModelWeights, prepared: list[_PreparedItem]) -> list[list[float]]:
    """Recompute the full prompt for every choice; no cache reuse."""
    return [
        [score_continuation(weights, prep.prompt, cids) for cids in prep.choice_ids]
        for prep in prepared
    ]


def _score_cached(
    weights: ModelWeights, demo: SegmentedText, prepared: list[_PreparedItem]
) -> tuple[list[list[float]], CacheStats]:
    """Process the demonstration part once and reuse its cache across
    items; score packed groups of items, contexts and choices, in one
    forward each.

    The demonstration part is one `advance` that reads no logits. It
    reduces the cache after the forward, and keeps only the rows the
    reduction keeps: the anchors and any tail after the last one. With no
    anchor (causal masks) that is every row, and the reduction discards
    nothing. Every prompt starts with `demo`; `_prompt` checked that when
    it built them.

    Consecutive items are then packed greedily into groups of at most
    ITEM_TOKEN_BUDGET new tokens (contexts plus branch tokens); an item
    larger than that is a group alone. Each group is one `score_trees`
    forward over a clone of the demonstration cache, so nothing an item
    adds is ever live and the statistics are the demonstration cache's."""
    if not prepared:
        return [], CacheStats()

    demo_cache = AnchorKVCache()
    if len(demo) > 0:
        advance(weights, demo_cache, demo.ids, segment_flags(demo), reduce=True, logits=False)

    groups: list[list[_PreparedItem]] = []
    size = 0
    for prep in prepared:
        tokens = len(prep.prompt) - len(demo) + sum(len(c) - 1 for c in prep.choice_ids)
        if not groups or size + tokens > ITEM_TOKEN_BUDGET:
            groups.append([])
            size = 0
        groups[-1].append(prep)
        size += tokens

    scores: list[list[float]] = []
    for group in groups:
        trees = [
            (p.prompt.ids[len(demo) :], segment_flags(p.prompt, len(demo)), p.choice_ids)
            for p in group
        ]
        scores += score_trees(weights, demo_cache.clone(), trees)
    return scores, demo_cache.stats


def run_mc_task(
    weights: ModelWeights,
    vocab: Vocab,
    items: list[MCItem],
    shots: int,
    policy: AnchorPolicy,
    use_ansan: bool,
    reuse_demo_cache: bool,
    demo_pool: list[MCItem] | None = None,
    seed: int = 0,
    measure_timing: bool = False,
    accel_baseline: str = "noncache",
) -> MetricsReport:
    """Score every item, pick argmax choices, and report accuracy plus
    cache and (optionally) acceleration metrics. Causal masks score the
    items with no anchor, as the fullcache timing baseline does. Timing
    with no item that fits the context raises UndefinedMetricError."""
    if not items:
        raise InputError("multiple-choice task needs at least one item")
    if accel_baseline not in ("noncache", "fullcache"):
        raise ContractError(f"unknown acceleration baseline: {accel_baseline}")

    demo_texts: list[str] = []
    if shots > 0:
        if not demo_pool or len(demo_pool) < shots:
            raise ContractError(f"demo pool must hold at least {shots} items")
        rng = np.random.default_rng(seed)
        chosen = rng.choice(len(demo_pool), size=shots, replace=False)
        demo_texts = [
            demo_pool[i].context + " " + demo_pool[i].choices[demo_pool[i].gold]
            for i in chosen
        ]

    demo, prepared, skipped = _prepare_items(
        items, demo_texts, vocab, policy, weights.config.context_len
    )
    scored = (demo, prepared) if use_ansan else _without_anchors(demo, prepared)

    if reuse_demo_cache:
        scores, stats = _score_cached(weights, *scored)
    else:
        scores = _score_noncache(weights, scored[1])
        stats = CacheStats()
    correct = sum(int(np.argmax(s)) == p.gold for p, s in zip(prepared, scores))

    report = MetricsReport(
        task="mc",
        policy=policy.describe(),
        mask_mode="ansan" if use_ansan else "causal",
        shots=shots,
        n_items=len(items),
        n_skipped=skipped,
        accuracy=correct / len(prepared) if prepared else None,
        cache_reduction=(
            stats.total_discards / stats.total_appends if stats.total_appends else 0.0
        ),
        peak_cache=stats.peak_live_count if reuse_demo_cache else None,
        reference_note=REFERENCE_FULL_SCALE,
    )

    if measure_timing:
        if not prepared:
            raise UndefinedMetricError("no item fits the context")
        run_anchor = partial(_score_cached, weights, demo, prepared)
        if accel_baseline == "noncache":
            run_baseline = partial(_score_noncache, weights, prepared)
        else:
            run_baseline = partial(_score_cached, weights, *_without_anchors(demo, prepared))

        anchor_time = min(_timed(run_anchor) for _ in range(3))
        baseline_time = min(_timed(run_baseline) for _ in range(3))
        report.acceleration_ratio = baseline_time / anchor_time
        report.accel_baseline = accel_baseline
        report.wall_seconds_primary = anchor_time
        report.wall_seconds_baseline = baseline_time

    report.validate()
    return report


def _timed(fn) -> float:
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


# -- ablation ------------------------------------------------------------------


@dataclass
class AblationReport:
    rows: dict[str, MetricsReport]
    item_order_digest: str

    def to_text(self) -> str:
        lines = [f"# item_order_digest = {self.item_order_digest[:16]}"]
        lines.append("arm accuracy cache_reduction n_skipped")
        for name, rep in self.rows.items():
            lines.append(
                f"{name} {rep.accuracy!r} {rep.cache_reduction!r} {rep.n_skipped}"
            )
        return "\n".join(lines) + "\n"


def item_order_digest(items: list[MCItem]) -> str:
    h = hashlib.sha256()
    for it in items:
        h.update(it.context.encode("utf-8"))
        h.update(b"\x00")
    return h.hexdigest()


def ablation_anchor_positions(
    arms: dict[str, tuple[ModelWeights, AnchorPolicy]],
    vocab: Vocab,
    items: list[MCItem],
    shots: int,
    demo_pool: list[MCItem] | None = None,
    seed: int = 0,
) -> AblationReport:
    """Run the same task under each policy arm with matched seeds, anchor
    masks and a reused, reduced demonstration cache."""
    rows: dict[str, MetricsReport] = {}
    for name, (weights, policy) in arms.items():
        rows[name] = run_mc_task(
            weights, vocab, items, shots, policy, use_ansan=True, reuse_demo_cache=True,
            demo_pool=demo_pool, seed=seed,
        )
    return AblationReport(rows=rows, item_order_digest=item_order_digest(items))
