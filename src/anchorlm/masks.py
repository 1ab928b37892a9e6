"""Attention mask construction: causal and anchor-based.

Anchor-based masking keeps causal attention inside the current sequence
but, across sequences, routes everything through anchors. For query i in
sequence k and key j (j <= i):

  * blocked when neither token is an anchor and j lies in a sequence
    before k (non-anchor history is reachable only via its anchor);
  * blocked when i is an anchor and j lies in a sequence before k
    (an anchor aggregates its own sequence only);
  * allowed otherwise.

Masks are dense 0/1 matrices; at this scale exact testability beats
sparse storage. One vectorized rule, `mask_rows`, builds every mask:
full L x L matrices for training and rows over the live cache entries
for cached decoding and scoring.
"""

from __future__ import annotations

from typing import NamedTuple, Sequence

import numpy as np

from .corpus import SegmentedText

MASK_MODES = ("causal", "ansan")


class TokenFlags(NamedTuple):
    """Anchor flag and sequence index of one token, as masking sees it.

    A sequence of TokenFlags converts to an (N, 2) integer array of
    (is_anchor, seq_index) rows, the layout the cache stores flags in.
    """

    is_anchor: bool
    seq_index: int


def _flag_rows(flags: Sequence[TokenFlags] | np.ndarray) -> np.ndarray:
    return np.asarray(flags, dtype=np.int64).reshape(-1, 2)


def segment_flags(seg: SegmentedText, start: int = 0) -> np.ndarray:
    """(is_anchor, seq_index) rows of a segment's tokens from start on,
    (len - start, 2); seq_index values are the segment's own, not
    re-based (unlike `SegmentedText.slice`)."""
    return _flag_rows(np.column_stack((seg.is_anchor[start:], seg.seq_index[start:])))


def causal_mask(length: int) -> np.ndarray:
    """Lower-triangular mask: bit[i][j] = 1 iff i >= j."""
    return np.tril(np.ones((length, length), dtype=np.uint8))


def mask_rows(
    new_flags: Sequence[TokenFlags] | np.ndarray,
    key_flags: Sequence[TokenFlags] | np.ndarray = (),
    ansan: bool = True,
) -> np.ndarray:
    """Mask rows for T new tokens over K earlier keys followed by the new
    tokens themselves, shape (T, K + T).

    Flags are (is_anchor, seq_index) rows in position order. The earlier
    keys precede every new token, so only the anchor rule (module
    docstring) can block them; the new-token block is also causal.
    With ansan False the rows are plain causal.
    """
    new = _flag_rows(new_flags)
    keys = np.concatenate([_flag_rows(key_flags), new])
    n_new, n_keys = len(new), len(keys)
    allowed = np.arange(n_keys) <= np.arange(n_keys - n_new, n_keys)[:, None]
    if ansan:
        # visible: a key not in an earlier sequence, or an anchor key
        # seen by a non-anchor query
        same_or_later_seq = keys[:, 1] >= new[:, 1, None]
        anchor_for_plain_query = (keys[:, 0] != 0) & (new[:, 0, None] == 0)
        allowed &= same_or_later_seq | anchor_for_plain_query
    return allowed.astype(np.uint8)


def anchor_mask(seg: SegmentedText) -> np.ndarray:
    """Anchor-based mask over one segmented block (see module docstring)."""
    return mask_rows(segment_flags(seg))
