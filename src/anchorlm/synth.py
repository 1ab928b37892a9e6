"""Synthetic pattern-completion corpus and multiple-choice task.

Documents pair each subject word with a fixed partner object ("the amber
lamp holds the stone .") so a tiny model can learn the associations;
task items ask for the partner and distractors are other objects. This
keeps desk-scale accuracy numbers meaningful without external datasets.
"""

from __future__ import annotations

import numpy as np

from .evaluate import MCItem

_SUBJECTS = (
    "amber", "birch", "cedar", "dusk", "ember", "fjord", "glade", "harbor",
    "iris", "juniper", "kestrel", "lagoon", "meadow", "nimbus", "orchid", "pebble",
)
_OBJECTS = (
    "stone", "river", "cloud", "flame", "moss", "sand", "frost", "reed",
    "spark", "shell", "fern", "dew", "ridge", "tide", "bloom", "grain",
)
MAX_CHOICES = len(_OBJECTS)  # every choice is a distinct object
_FRAMES = (
    "the {s} lamp holds the {o} .",
    "a {s} sign marks the {o} .",
    "every {s} path leads to the {o} .",
)
_FILLER = (
    "the day was long and quiet .",
    "a small bird crossed the field .",
    "rain fell on the old roof .",
    "nothing moved near the gate .",
)


def partner(subject: str) -> str:
    return _OBJECTS[_SUBJECTS.index(subject)]


def make_corpus(n_docs: int, sentences_per_doc: int = 8, seed: int = 0) -> list[str]:
    """Documents (one per line downstream) mixing association sentences
    with filler; associations are deterministic, phrasing is seeded."""
    rng = np.random.default_rng(seed)
    docs = []
    for _ in range(n_docs):
        sentences = []
        for _ in range(sentences_per_doc):
            if rng.random() < 0.2:
                sentences.append(_FILLER[rng.integers(len(_FILLER))])
            else:
                s = _SUBJECTS[rng.integers(len(_SUBJECTS))]
                frame = _FRAMES[rng.integers(len(_FRAMES))]
                sentences.append(frame.format(s=s, o=partner(s)))
        docs.append(" ".join(sentences))
    return docs


def make_task(
    n_items: int, n_choices: int = 3, seed: int = 0
) -> tuple[list[MCItem], list[MCItem]]:
    """(items, demonstration pool) of pattern-completion questions."""
    if not 2 <= n_choices <= MAX_CHOICES:
        raise ValueError("n_choices out of range")
    rng = np.random.default_rng(seed)
    records = []
    for _ in range(n_items * 2):
        si = int(rng.integers(len(_SUBJECTS)))
        subject = _SUBJECTS[si]
        frame = _FRAMES[int(rng.integers(len(_FRAMES)))]
        head, tail = frame.format(s=subject, o="\x00").split("\x00")
        distractors = [o for o in _OBJECTS if o != partner(subject)]
        picks = rng.choice(len(distractors), size=n_choices - 1, replace=False)
        choices = [distractors[int(p)] for p in picks]
        gold = int(rng.integers(n_choices))
        choices.insert(gold, partner(subject))
        records.append(
            MCItem(
                context=head.strip(),
                choices=tuple(f"{c}{tail.rstrip()}" for c in choices),
                gold=gold,
            )
        )
    return records[:n_items], records[n_items:]
