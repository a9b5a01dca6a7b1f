"""Coalesced query execution for the read-serving tier.

The batched answer paths (``answer_boxes``, ``answer_ranges``) cost a
fixed handful of numpy passes per batch — one run decomposition per axis
and one gather — so their per-query cost falls steeply with batch size.
HTTP traffic, though, arrives as many small concurrent requests — each
carrying a handful of queries — and answering them one request at a time
forfeits the batching win exactly where it matters most.

:class:`QueryCoalescer` recovers it: concurrent in-flight queries against
the *same* mechanism are micro-batched per event-loop drain.  Each caller
awaits its own future; a flush callback — scheduled at most once per drain
via ``loop.call_soon`` — groups the pending requests per ``(mechanism,
surface)`` and hands each group to
:meth:`~repro.core.base.RangeQueryMechanism.answer_requests`.  That looks
every request up in the answer cache under its own key (a hot panel that
shares a drain with a fresh one is still a hit), answers only the misses
with one stacked batched call, and caches each miss's slice under its own
key.

Coalescing is invisible in the results: every answer row of a batched
path is a function of that row's query alone — the same terms, summed in
the same order, whatever else shares the batch — so slicing a stacked
batch is bit-identical to answering each sub-batch, or each query,
separately.  If a batched call fails, the flush falls back to answering
each waiter individually so every caller receives the precise error its
own queries earn (and correct answers are still delivered to the
blameless waiters that were merely sharing the batch).
"""

from __future__ import annotations

import asyncio
from typing import List, Optional, Tuple

import numpy as np

from repro.core.base import RangeQueryMechanism, integer_queries
from repro.exceptions import ConfigurationError, InvalidQueryError

__all__ = ["QueryCoalescer"]


class QueryCoalescer:
    """Micro-batches concurrent batched-query calls per event-loop drain.

    Single event-loop use only (like the rest of the service tier): the
    pending list is touched without locks because enqueue and flush both
    run on the loop thread.
    """

    def __init__(self) -> None:
        # (mechanism, surface-method name, queries, future) per waiter, in
        # arrival order.
        self._pending: List[
            Tuple[RangeQueryMechanism, str, np.ndarray, asyncio.Future]
        ] = []
        self._flush_handle: Optional[asyncio.Handle] = None
        self._flushes = 0
        self._coalesced_queries = 0
        self._coalesced_calls = 0

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def stats(self) -> dict:
        """Flush/query/call counters: ``coalesced_queries /
        coalesced_calls`` is the effective batch size the coalescing won."""
        return {
            "flushes": int(self._flushes),
            "coalesced_queries": int(self._coalesced_queries),
            "coalesced_calls": int(self._coalesced_calls),
        }

    # ------------------------------------------------------------------
    # Query surfaces
    # ------------------------------------------------------------------
    async def answer_boxes(
        self, mechanism: RangeQueryMechanism, queries: np.ndarray
    ) -> np.ndarray:
        """Answer ``(n, 2d)`` box queries, sharing one ``answer_boxes``
        call with every other waiter of the same drain."""
        return await self._enqueue(mechanism, "answer_boxes", queries, columns=None)

    async def answer_ranges(
        self, mechanism: RangeQueryMechanism, queries: np.ndarray
    ) -> np.ndarray:
        """Answer ``(n, 2)`` range queries, sharing one ``answer_ranges``
        call with every other waiter of the same drain."""
        return await self._enqueue(mechanism, "answer_ranges", queries, columns=2)

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    async def _enqueue(
        self,
        mechanism: RangeQueryMechanism,
        surface: str,
        queries: np.ndarray,
        columns: Optional[int],
    ) -> np.ndarray:
        if not isinstance(mechanism, RangeQueryMechanism):
            raise ConfigurationError(
                f"coalescer answers against a RangeQueryMechanism, got "
                f"{type(mechanism).__name__}"
            )
        if getattr(mechanism, surface, None) is None:
            raise InvalidQueryError(
                f"{mechanism.name} has no {surface} surface"
            )
        queries = integer_queries(queries)
        if queries.ndim != 2 or (columns is not None and queries.shape[1] != columns):
            # Shape errors surface immediately — a malformed array must not
            # poison the concatenation other waiters share.
            width = columns if columns is not None else "2d"
            raise InvalidQueryError(f"queries must be an (n, {width}) array")
        queries = queries.astype(np.int64, copy=False)
        loop = asyncio.get_running_loop()
        future: asyncio.Future = loop.create_future()
        self._pending.append((mechanism, surface, queries, future))
        if self._flush_handle is None:
            # One flush per drain: every enqueue landing before the loop
            # reaches the callback rides the same batch.
            self._flush_handle = loop.call_soon(self._flush)
        return await future

    def _flush(self) -> None:
        self._flush_handle = None
        pending, self._pending = self._pending, []
        if not pending:
            return
        self._flushes += 1
        groups: dict = {}
        for entry in pending:
            groups.setdefault((id(entry[0]), entry[1]), []).append(entry)
        for (_, surface), waiters in groups.items():
            mechanism = waiters[0][0]
            if len(waiters) == 1:
                self._answer_individually(waiters)
                continue
            self._coalesced_queries += sum(int(entry[2].shape[0]) for entry in waiters)
            self._coalesced_calls += 1
            try:
                answers = mechanism.answer_requests(
                    surface, [entry[2] for entry in waiters]
                )
            except BaseException:  # noqa: BLE001 - refined per waiter below
                # One bad waiter must not fail the whole batch with an
                # error about rows it never submitted: re-answer each
                # request alone so every future gets its own outcome.
                self._answer_individually(waiters)
                continue
            for (_, _, _, future), answer in zip(waiters, answers):
                if not future.cancelled():
                    future.set_result(answer)

    @staticmethod
    def _answer_individually(waiters) -> None:
        for mechanism, surface, queries, future in waiters:
            if future.cancelled():
                continue
            try:
                future.set_result(getattr(mechanism, surface)(queries))
            except BaseException as error:  # noqa: BLE001 - delivered to waiter
                future.set_exception(error)
