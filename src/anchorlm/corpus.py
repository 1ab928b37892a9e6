"""Corpus ingestion: tokenization, sentence segmentation, anchor annotation.

Text is tokenized at word/punctuation granularity and segmented into
sequences (sentence-level spans). Each sequence may end in one anchor
token, the position into which the model is trained to compress the
sequence's information. Four anchor policies are supported:

  ep        sentence-final '.' tokens are the anchors (natural tokens)
  ac        a dedicated anchor token is appended after every sentence
  every_n   an anchor token is inserted after every n content tokens
  random_p  an anchor token is inserted after each content token with
            probability p (seeded)
"""

from __future__ import annotations

import json
import re
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import ConfigError, ContractError, InputError

PAD_TOKEN = "<pad>"
BOS_TOKEN = "<bos>"
EOS_TOKEN = "<eos>"
UNK_TOKEN = "<unk>"
ANCHOR_TOKEN = "<AC>"

_TOKEN_RE = re.compile(r"\w+|[^\w\s]", re.UNICODE)
_SENTENCE_BREAK_RE = re.compile(r"(?<=[.!?])\s+")
_ENDPOINT = "."


class EmptyCorpusError(InputError):
    """The corpus contains no tokens at all."""


def tokenize(text: str) -> list[str]:
    """Split text into word and single-character punctuation tokens."""
    return _TOKEN_RE.findall(text)


def split_sentences(text: str) -> list[str]:
    """Split text at '.', '!' or '?' followed by whitespace or end-of-text.

    Whitespace between sentences is dropped; whitespace inside a sentence
    is preserved. Text with no terminator comes back as one sentence.
    """
    return [s for s in _SENTENCE_BREAK_RE.split(text) if s.strip()]


@dataclass(frozen=True)
class AnchorPolicy:
    """Which tokens act as anchors; see the module docstring."""

    mode: str  # "ep" | "ac" | "every_n" | "random_p"
    n: int | None = None
    p: float | None = None
    seed: int = 0

    def __post_init__(self) -> None:
        if self.mode not in ("ep", "ac", "every_n", "random_p"):
            raise ConfigError(f"unknown anchor policy mode: {self.mode!r}")
        if self.mode == "every_n" and (self.n is None or self.n < 1):
            raise ConfigError("every_n policy requires n >= 1")
        if self.mode == "random_p" and (self.p is None or not 0.0 < self.p < 1.0):
            raise ConfigError("random_p policy requires 0 < p < 1")

    @property
    def inserts_anchor_token(self) -> bool:
        """True for policies that add a dedicated anchor token to the stream."""
        return self.mode in ("ac", "every_n", "random_p")

    def describe(self) -> str:
        if self.mode == "every_n":
            return f"every_n(n={self.n})"
        if self.mode == "random_p":
            return f"random_p(p={self.p},seed={self.seed})"
        return self.mode

    @classmethod
    def parse(cls, spec: str, seed: int = 0) -> "AnchorPolicy":
        """Parse CLI policy strings: 'ep', 'ac', 'every-n=10', 'random-p=0.1';
        anything else, a non-numeric argument included, raises ConfigError."""
        text = spec.strip().lower()
        name, _, value = text.partition("=")
        name = name.replace("-", "_")
        if text in ("ep", "ac"):
            return cls(mode=text)
        try:
            if name == "every_n":
                return cls(mode="every_n", n=int(value))
            if name == "random_p":
                return cls(mode="random_p", p=float(value), seed=seed)
        except ValueError as exc:
            raise ConfigError(f"cannot parse anchor policy {spec!r}: {exc}") from exc
        raise ConfigError(f"cannot parse anchor policy: {spec!r}")


@dataclass(frozen=True)
class Vocab:
    """Token/id mapping with fixed special ids at the front.

    Specials occupy ids 0..3 (pad, bos, eos, unk); in AC-family mode the
    anchor token takes id 4 and corpus tokens follow.
    """

    id_to_token: tuple[str, ...]
    token_to_id: dict[str, int] = field(repr=False)
    anchor_id: int | None

    pad_id: int = 0
    bos_id: int = 1
    eos_id: int = 2
    unk_id: int = 3

    def __len__(self) -> int:
        return len(self.id_to_token)

    def encode(self, token: str) -> int:
        return self.token_to_id.get(token, self.unk_id)

    def encode_text(self, text: str) -> list[int]:
        return [self.encode(t) for t in tokenize(text)]

    def decode(self, ids: list[int], strip_anchors: bool = False) -> str:
        kept = [i for i in ids if not (strip_anchors and i == self.anchor_id)]
        return " ".join(self.id_to_token[i] for i in kept)

    @property
    def endpoint_id(self) -> int:
        return self.encode(_ENDPOINT)

    def anchor_token_id(self, policy: AnchorPolicy) -> int:
        """The id whose generation marks an anchor under this policy."""
        if policy.mode == "ep":
            return self.endpoint_id
        if self.anchor_id is None:
            raise ConfigError("vocab was not built for an AC-family policy")
        return self.anchor_id

    def save(self, path: str | Path) -> None:
        Path(path).write_text("\n".join(self.id_to_token) + "\n", encoding="utf-8")

    @classmethod
    def load(cls, path: str | Path) -> "Vocab":
        try:
            lines = Path(path).read_text(encoding="utf-8").splitlines()
        except (OSError, UnicodeDecodeError) as exc:
            raise InputError(f"cannot read vocab file {path}: {exc}") from exc
        expected = [PAD_TOKEN, BOS_TOKEN, EOS_TOKEN, UNK_TOKEN]
        if lines[: len(expected)] != expected:
            raise InputError(f"vocab file {path} lacks the fixed special-token header")
        anchor_id = 4 if len(lines) > 4 and lines[4] == ANCHOR_TOKEN else None
        return cls(
            id_to_token=tuple(lines),
            token_to_id={t: i for i, t in enumerate(lines)},
            anchor_id=anchor_id,
        )


def build_vocab(
    corpus_paths: list[str | Path], policy: AnchorPolicy, max_size: int
) -> Vocab:
    """Build a frequency-capped word vocab; ties break lexicographically.

    max_size counts corpus-derived tokens only; specials come on top.
    """
    counts: Counter[str] = Counter()
    for path in corpus_paths:
        try:
            text = Path(path).read_text(encoding="utf-8")
        except (OSError, UnicodeDecodeError) as exc:
            raise InputError(f"cannot read corpus file {path}: {exc}") from exc
        counts.update(tokenize(text))
    if not counts:
        raise EmptyCorpusError(f"no tokens found in corpus: {corpus_paths}")

    specials = [PAD_TOKEN, BOS_TOKEN, EOS_TOKEN, UNK_TOKEN]
    if policy.inserts_anchor_token:
        specials.append(ANCHOR_TOKEN)
    ranked = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
    tokens = specials + [t for t, _ in ranked[:max_size] if t not in specials]
    return Vocab(
        id_to_token=tuple(tokens),
        token_to_id={t: i for i, t in enumerate(tokens)},
        anchor_id=len(specials) - 1 if policy.inserts_anchor_token else None,
    )


@dataclass
class SegmentedText:
    """Token ids with parallel anchor flags and sequence indices.

    Invariants: equal lengths; seq_index non-decreasing in steps of 1;
    within a sequence only the final token may be an anchor.
    """

    ids: list[int]
    is_anchor: list[bool]
    seq_index: list[int]

    def __len__(self) -> int:
        return len(self.ids)

    def validate(self) -> None:
        if not (len(self.ids) == len(self.is_anchor) == len(self.seq_index)):
            raise ContractError("segmented text lists must have equal length")
        for t in range(1, len(self.ids)):
            step = self.seq_index[t] - self.seq_index[t - 1]
            if step not in (0, 1):
                raise ContractError("seq_index must be non-decreasing in steps of 1")
            if self.is_anchor[t - 1] and step != 1:
                raise ContractError("an anchor must be the last token of its sequence")

    def slice(self, start: int, stop: int) -> "SegmentedText":
        """Sub-range with seq_index re-based to start at 0."""
        seqs = self.seq_index[start:stop]
        base = seqs[0] if seqs else 0
        return SegmentedText(
            ids=self.ids[start:stop],
            is_anchor=self.is_anchor[start:stop],
            seq_index=[s - base for s in seqs],
        )

    def strip_inserted(self, anchor_id: int | None) -> list[int]:
        """Token ids with inserted anchor tokens removed."""
        if anchor_id is None:
            return list(self.ids)
        return [i for i, a in zip(self.ids, self.is_anchor) if not (a and i == anchor_id)]


class _SegBuilder:
    def __init__(self) -> None:
        self.ids: list[int] = []
        self.is_anchor: list[bool] = []
        self.seq: list[int] = []
        self.cur_seq = 0

    def token(self, tid: int) -> None:
        self.ids.append(tid)
        self.is_anchor.append(False)
        self.seq.append(self.cur_seq)

    def anchor(self, tid: int) -> None:
        self.ids.append(tid)
        self.is_anchor.append(True)
        self.seq.append(self.cur_seq)
        self.cur_seq += 1

    def end_sequence(self) -> None:
        """Close the current sequence without an anchor."""
        if self.seq and self.seq[-1] == self.cur_seq:
            self.cur_seq += 1

    def build(self) -> SegmentedText:
        seg = SegmentedText(ids=self.ids, is_anchor=self.is_anchor, seq_index=self.seq)
        seg.validate()
        return seg


def annotate(text: str, vocab: Vocab, policy: AnchorPolicy) -> SegmentedText:
    """Tokenize text and mark anchors / sequence boundaries per policy."""
    if policy.inserts_anchor_token and vocab.anchor_id is None:
        raise ConfigError(f"policy {policy.describe()} needs a vocab with an anchor token")
    b = _SegBuilder()

    if policy.mode in ("ep", "ac"):
        for sentence in split_sentences(text):
            tokens = tokenize(sentence)
            if policy.mode == "ep":
                for tok in tokens[:-1]:
                    b.token(vocab.encode(tok))
                # Only a sentence-final '.' is an anchor; '!' and '?' close
                # the sequence but leave it uncompressed.
                if tokens[-1] == _ENDPOINT:
                    b.anchor(vocab.encode(tokens[-1]))
                else:
                    b.token(vocab.encode(tokens[-1]))
                    b.end_sequence()
            else:
                for tok in tokens:
                    b.token(vocab.encode(tok))
                b.anchor(vocab.anchor_id)
        return b.build()

    content = [vocab.encode(t) for t in tokenize(text)]
    if policy.mode == "every_n":
        for i, tid in enumerate(content):
            b.token(tid)
            if (i + 1) % policy.n == 0:
                b.anchor(vocab.anchor_id)
    else:  # random_p
        rng = np.random.default_rng(policy.seed)
        for tid in content:
            b.token(tid)
            if rng.random() < policy.p:
                b.anchor(vocab.anchor_id)
    return b.build()


def pack_training_blocks(
    texts: list[SegmentedText], context_len: int
) -> list[SegmentedText]:
    """Right-truncate each document to the context length.

    One block per nonempty document; seq_index restarts per block.
    """
    if context_len < 2:
        raise ContractError("context_len must be >= 2")
    blocks = []
    for seg in texts:
        if len(seg) == 0:
            continue
        blocks.append(seg.slice(0, min(len(seg), context_len)))
    return blocks


def save_blocks(path: str | Path, blocks: list[SegmentedText]) -> None:
    """Line-delimited block file: {"ids": [...], "anchor": [...], "seq": [...]}."""
    with open(path, "w", encoding="utf-8") as fh:
        for seg in blocks:
            fh.write(
                json.dumps(
                    {
                        "ids": seg.ids,
                        "anchor": [int(a) for a in seg.is_anchor],
                        "seq": seg.seq_index,
                    }
                )
                + "\n"
            )


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def load_blocks(path: str | Path) -> list[SegmentedText]:
    """Inverse of save_blocks. Ids must be ints >= 0, anchors 0 or 1 and
    seqs ints in a valid layout, every block needs at least 2 tokens (one
    next-token target) and the file at least one block; anything else
    raises InputError."""
    try:
        raw = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(f"cannot read block file {path}: {exc}") from exc
    blocks = []
    for ln, line in enumerate(raw.splitlines(), 1):
        if not line.strip():
            continue
        try:
            rec = json.loads(line)
            ids, anchors, seqs = list(rec["ids"]), list(rec["anchor"]), list(rec["seq"])
            if not all(_is_int(i) and i >= 0 for i in ids):
                raise InputError("ids must be non-negative integers")
            if not all(_is_int(a) and a in (0, 1) for a in anchors):
                raise InputError("anchor flags must be 0 or 1")
            if not all(_is_int(q) for q in seqs):
                raise InputError("seq indices must be integers")
            seg = SegmentedText(ids=ids, is_anchor=[bool(a) for a in anchors], seq_index=seqs)
            seg.validate()
            if len(seg) < 2:
                raise InputError("a block needs at least 2 tokens")
        except (json.JSONDecodeError, KeyError, TypeError, InputError, ContractError) as exc:
            raise InputError(f"bad block record at {path}:{ln}: {exc}") from exc
        blocks.append(seg)
    if not blocks:
        raise InputError(f"block file {path} holds no block")
    return blocks
