"""The attention mask rule: anchor-based, and causal over flags with no anchor.

Anchor-based masking keeps causal attention inside the current sequence
but, across sequences, routes everything through anchors. For query i in
sequence k and key j (j <= i):

  * blocked when neither token is an anchor and j lies in a sequence
    before k (non-anchor history is reachable only via its anchor);
  * blocked when i is an anchor and j lies in a sequence before k
    (an anchor aggregates its own sequence only);
  * allowed otherwise.

Flags are (is_anchor, seq_index) rows in position order. One vectorized
rule, `mask_rows`, gives every mask, for training, perplexity and
inference alike. Over one sequence with no anchor (`no_anchor`) it is
the causal rule, so causal masks are flags, not a mode. It is read by
rows, as FlexAttention's `mask_mod` (Dong et al., 2024) is evaluated
only where attention is computed: `mask_rows(...)[rows]` builds the bool
rows of those queries from the flags alone, so a forward that runs a few
query rows over many keys never builds the rest.
"""

from __future__ import annotations

import numpy as np

from .corpus import SegmentedText

MASK_MODES = ("causal", "ansan")


def _flag_rows(flags: np.ndarray) -> np.ndarray:
    return np.asarray(flags, dtype=np.int64).reshape(-1, 2)


def segment_flags(seg: SegmentedText, start: int = 0) -> np.ndarray:
    """(is_anchor, seq_index) rows of a segment's tokens from start on,
    (len - start, 2); seq_index values are the segment's own, not
    re-based (unlike `SegmentedText.slice`)."""
    return _flag_rows(np.column_stack((seg.is_anchor[start:], seg.seq_index[start:])))


def no_anchor(seg: SegmentedText) -> SegmentedText:
    """The same ids as one sequence with no anchor, whose flags give causal masks."""
    return SegmentedText(ids=seg.ids, is_anchor=[False] * len(seg), seq_index=[0] * len(seg))


class MaskRule:
    """Mask rows for T new tokens over K earlier keys followed by the new
    tokens themselves, shape (T, K + T), built only when read.

    `rule[rows]` gives the bool rows of any query indices (an int, an
    index array or a slice), as indexing the dense matrix would; and
    `np.asarray(rule)` builds that whole matrix. The earlier keys precede
    every new token, so only the anchor rule (module docstring) can block
    them and their columns need no causal compare; the new-token block is
    also causal. The flags are held as given, not copied: a rule over a
    cache's live flags reads them until the cache next changes."""

    def __init__(self, new: np.ndarray, keys: np.ndarray) -> None:
        self.new, self.keys = new, keys
        self.shape = (len(new), len(keys) + len(new))

    def __getitem__(self, rows) -> np.ndarray:
        q, i = self.new[rows], np.arange(len(self.new))
        causal = i <= i[rows][..., None]
        # visible: a key not in an earlier sequence, or an anchor key seen
        # by a non-anchor query
        seq, plain = q[..., 1, None], q[..., 0, None] == 0
        visible = lambda keys: (keys[:, 1] >= seq) | np.logical_and(keys[:, 0], plain)
        return np.concatenate((visible(self.keys), causal & visible(self.new)), axis=-1)

    def __array__(self, dtype=None, copy=None) -> np.ndarray:
        return self[:].astype(np.uint8 if dtype is None else dtype)


def mask_rows(new_flags: np.ndarray, key_flags: np.ndarray = ()) -> MaskRule:
    """The mask rule for new tokens with these flags over earlier keys
    with these, as (is_anchor, seq_index) rows in position order."""
    return MaskRule(_flag_rows(new_flags), _flag_rows(key_flags))
