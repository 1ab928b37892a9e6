"""Anchor-aware keys/values cache with the reduction rule.

Reduction keeps every anchor and everything at or after the last
anchor's position; all other live entries are discarded. Positions are
absolute and never reused, so rotary encodings stay valid after discards.

Entries live in preallocated arrays, a contiguous take on the
PagedAttention layout (Kwon et al., 2023): keys and values each in one
(n_layers, n_heads, capacity, head_dim) array, with per-slot positions
and (is_anchor, seq_index) flag rows beside them. The first len(cache)
slots are live, in position order; capacity grows geometrically.
`kept_by_reduction` states the reduction rule once, for `reduction` and
for `infer.advance`, which computes keys/values only for the new tokens
a reduction right after it keeps.

There is one way in and one way to shrink. The free slots after the
live ones are where new keys/values are written: `stacked(T)` hands a
forward views over the live slots plus T free ones, the forward fills
the free ones and attends over the whole view in place, and
`extend_from_forward` commits them by moving the live count, giving
them the next positions. A forward alone never changes a live slot.
`_keep` compacts the live slots to a subset, for `reduction` and for
the `entries` setter. The cache is inference-only: no gradient flows
through it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ContractError, UndefinedMetricError
from .model import ModelConfig

_MIN_CAPACITY = 16


@dataclass
class CacheStats:
    peak_live_count: int = 0
    total_appends: int = 0
    total_discards: int = 0


def kept_by_reduction(flags: np.ndarray) -> np.ndarray | None:
    """The reduction rule over entries in position order, given as
    (is_anchor, seq_index) rows: the indices of every anchor and of every
    entry from the last anchor on, increasing; None when no entry is an
    anchor, and reduction keeps them all."""
    is_anchor = np.asarray(flags, dtype=np.int64).reshape(-1, 2)[:, 0]
    anchors = np.flatnonzero(is_anchor)
    if len(anchors) == 0:
        return None
    return np.concatenate((anchors[:-1], np.arange(anchors[-1], len(is_anchor))))


class AnchorKVCache:
    """Ordered live cache entries plus lifetime occupancy statistics."""

    def __init__(self) -> None:
        self.stats = CacheStats()
        self._live = 0
        self._positions = np.empty(0, dtype=np.int64)
        self._flags = np.empty((0, 2), dtype=np.int64)
        self._keys = np.empty((0, 0, 0, 0))
        self._values = np.empty((0, 0, 0, 0))

    def __len__(self) -> int:
        return self._live

    def _reserve(self, extra: int, dims: tuple[int, ...] | None = None) -> None:
        """Grow capacity, geometrically, to at least live + extra slots.
        dims (n_layers, n_heads, head_dim), when given, shape the grown
        arrays; a cache never written has no shape of its own."""
        n = self._live
        if n + extra <= len(self._positions):
            return
        capacity = max(n + extra, 2 * len(self._positions), _MIN_CAPACITY)
        shape = self._keys.shape
        n_layers, n_heads, head_dim = dims or (shape[0], shape[1], shape[3])
        if not n_layers * n_heads * head_dim:
            raise ContractError("a cache never written needs the model config to shape its slots")
        keys = np.empty((n_layers, n_heads, capacity, head_dim))
        values = np.empty_like(keys)
        positions = np.empty(capacity, dtype=np.int64)
        flags = np.empty((capacity, 2), dtype=np.int64)
        if n:
            keys[:, :, :n] = self._keys[:, :, :n]
            values[:, :, :n] = self._values[:, :, :n]
            positions[:n] = self._positions[:n]
            flags[:n] = self._flags[:n]
        self._keys, self._values, self._positions, self._flags = keys, values, positions, flags

    def extend_from_forward(self, flags: np.ndarray) -> None:
        """Make live the free slots after the live ones, one per
        (is_anchor, seq_index) row of flags, whose keys and values
        a forward over `stacked(len(flags))` wrote. They take the next
        positions; nothing is copied but the positions and flags."""
        n, end = self._live, self._live + len(flags)
        if end > len(self._positions):
            raise ContractError(
                f"{len(flags)} entries committed, but only "
                f"{len(self._positions) - n} free slots are reserved"
            )
        self._positions[n:end] = self.next_positions(len(flags))
        self._flags[n:end] = flags
        self._live = end
        self.stats.total_appends += end - n
        self.stats.peak_live_count = max(self.stats.peak_live_count, end)

    def reduction(self) -> None:
        """Discard non-anchor entries before the last anchor, compacting the
        live slots in place; the newest entry is always kept."""
        n = self._live
        keep = kept_by_reduction(self._flags[:n])
        if keep is None or len(keep) == n:
            return
        self.stats.total_discards += n - len(keep)
        self._keep(keep)

    def _keep(self, slots: np.ndarray) -> None:
        """Compact the live slots to these, given in increasing order."""
        for arr in (self._keys, self._values):
            arr[:, :, : len(slots)] = arr[:, :, slots]
        self._positions[: len(slots)] = self._positions[slots]
        self._flags[: len(slots)] = self._flags[slots]
        self._live = len(slots)

    def flag_array(self) -> np.ndarray:
        """Live (is_anchor, seq_index) rows, shape (live, 2); a view."""
        return self._flags[: self._live]

    def live_positions(self) -> list[int]:
        return self._positions[: self._live].tolist()

    def next_positions(self, count: int) -> np.ndarray:
        """Positions of count tokens after the newest live entry (from 0)."""
        start = int(self._positions[self._live - 1]) + 1 if self._live else 0
        return np.arange(start, start + count)

    def reduction_metric(self) -> float:
        """Fraction of all entries ever appended that have been discarded."""
        if self.stats.total_appends == 0:
            raise UndefinedMetricError("cache reduction is undefined before any append")
        return self.stats.total_discards / self.stats.total_appends

    def stacked(
        self, extra: int = 0, config: ModelConfig | None = None
    ) -> list[tuple[np.ndarray, np.ndarray]]:
        """Per-layer (K, V) of shape (n_heads, live + extra, head_dim):
        views of the live slots followed by `extra` free slots, valid
        until the cache is next modified. The free slots are scratch: a
        forward writes the new tokens' keys/values there, and only
        `extend_from_forward` makes them live. Capacity grows as needed;
        a cache never written takes its shape from config."""
        self._reserve(extra, config and (config.n_layers, config.n_heads, config.head_dim))
        end = self._live + extra
        return list(zip(self._keys[:, :, :end], self._values[:, :, :end]))

    def clone(self) -> "AnchorKVCache":
        """Independent copy of the live entries; the clone starts with
        fresh statistics for its own appends."""
        c = AnchorKVCache()
        n = c._live = self._live
        c._keys = self._keys[:, :, :n].copy()
        c._values = self._values[:, :, :n].copy()
        c._positions = self._positions[:n].copy()
        c._flags = self._flags[:n].copy()
        c.stats.peak_live_count = n
        return c

    @property
    def entries(self) -> list[int]:
        """Indices of the live slots, oldest first."""
        return list(range(self._live))

    @entries.setter
    def entries(self, slots: Sequence[int]) -> None:
        """Keep only these live slots, in increasing order; statistics
        are left unchanged."""
        slots = np.asarray(slots, dtype=np.int64)
        if np.any(slots[1:] <= slots[:-1]) or np.any((slots < 0) | (slots >= self._live)):
            raise ContractError(
                f"live slots to keep must be increasing and below {self._live}: {slots.tolist()}"
            )
        self._keep(slots)
