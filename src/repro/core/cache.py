"""Generation-keyed LRU cache for materialized query answers.

Lazy materialization (PR 5) gave every mechanism a monotone
``ingest_generation`` counter: writes only touch sufficient statistics and
bump the counter; estimates rebuild on the next read.  That counter is
exactly the invalidation signal a read cache needs — an answer computed at
generation ``g`` is valid for as long as the mechanism stays at ``g``, and
the moment a write lands every cached entry becomes unreachable simply
because its key no longer matches.  No explicit invalidation hook, no
write-path coupling: the cache is only ever touched from read surfaces,
*after* :meth:`~repro.core.base.RangeQueryMechanism._require_fitted` has
settled the generation.

The LRU bound is what keeps the "invalidate by unreachability" trick
honest: stale generations age out of the ``maxsize`` window instead of
accumulating forever.  Answers are stored and returned defensively — array
values are copied on both ends — so a caller mutating a result can never
corrupt what later hits observe, and cached answers stay bit-identical to
recomputed ones (a copy preserves every bit).
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Any, Hashable, Tuple

import numpy as np

from repro.exceptions import ConfigurationError

__all__ = ["AnswerCache", "DEFAULT_ANSWER_CACHE_SIZE", "MISS"]

#: Default entry bound of a mechanism's answer cache.  Sized for dashboard
#: workloads (hundreds of distinct repeated queries between writes) while
#: keeping worst-case memory trivial.
DEFAULT_ANSWER_CACHE_SIZE = 256


class _Miss:
    """Sentinel distinguishing "not cached" from a cached falsy answer."""

    __slots__ = ()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return "<answer-cache miss>"


#: Returned by :meth:`AnswerCache.get` when the key is absent.
MISS = _Miss()


class AnswerCache:
    """Bounded LRU of ``(generation, query key) -> answer`` entries.

    Parameters
    ----------
    maxsize:
        Entry bound; ``0`` disables the cache entirely (every ``get`` is a
        bypass, ``put`` is a no-op) so callers never need their own
        enabled/disabled branching.
    """

    __slots__ = ("_entries", "_maxsize", "_hits", "_misses", "_evictions")

    def __init__(self, maxsize: int = DEFAULT_ANSWER_CACHE_SIZE) -> None:
        self._entries: "OrderedDict[Tuple[int, Hashable], Any]" = OrderedDict()
        self._maxsize = self._check_maxsize(maxsize)
        self._hits = 0
        self._misses = 0
        self._evictions = 0

    @staticmethod
    def _check_maxsize(maxsize: int) -> int:
        if not isinstance(maxsize, (int, np.integer)) or maxsize < 0:
            raise ConfigurationError(
                f"cache maxsize must be a non-negative integer, got {maxsize!r}"
            )
        return int(maxsize)

    # ------------------------------------------------------------------
    # Core protocol
    # ------------------------------------------------------------------
    def get(self, generation: int, key: Hashable) -> Any:
        """The cached answer for ``key`` at ``generation``, or :data:`MISS`.

        A hit refreshes the entry's LRU position.  Array answers come back
        as a fresh copy so the caller owns its result outright.
        """
        if self._maxsize == 0:
            return MISS
        full_key = (int(generation), key)
        try:
            value = self._entries[full_key]
        except KeyError:
            self._misses += 1
            return MISS
        self._entries.move_to_end(full_key)
        self._hits += 1
        if isinstance(value, np.ndarray):
            return value.copy()
        return value

    def put(self, generation: int, key: Hashable, value: Any) -> None:
        """Store an answer, evicting the least-recently-used entry past the
        bound.  Array values are copied in so later caller mutations of the
        returned (uncached) result cannot reach the stored answer."""
        if self._maxsize == 0:
            return
        if isinstance(value, np.ndarray):
            value = value.copy()
        full_key = (int(generation), key)
        self._entries[full_key] = value
        self._entries.move_to_end(full_key)
        while len(self._entries) > self._maxsize:
            self._entries.popitem(last=False)
            self._evictions += 1

    # ------------------------------------------------------------------
    # Management
    # ------------------------------------------------------------------
    def resize(self, maxsize: int) -> None:
        """Change the entry bound, evicting LRU entries that no longer fit.

        Resizing to ``0`` drops everything and disables the cache."""
        self._maxsize = self._check_maxsize(maxsize)
        while len(self._entries) > self._maxsize:
            self._entries.popitem(last=False)
            self._evictions += 1

    def clear(self) -> None:
        """Drop every entry (counters are preserved — they are monotone)."""
        self._entries.clear()

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def maxsize(self) -> int:
        return self._maxsize

    def stats(self) -> dict:
        """Monotone hit/miss/eviction counters plus the live size/bound."""
        return {
            "hits": int(self._hits),
            "misses": int(self._misses),
            "evictions": int(self._evictions),
            "size": len(self._entries),
            "maxsize": int(self._maxsize),
        }
