"""Asynchronous ingestion tier over the sharded collector.

:class:`IngestionService` turns :class:`~repro.streaming.ShardedCollector`
into a concurrent service: any number of ``asyncio`` producers submit
report batches, each batch is placed on the collector's next round-robin
shard, and one worker task folds the batches, in placement order, into the
collector's one accumulated state.  The moving parts:

* **one ingest queue** — a bounded :class:`asyncio.Queue` of
  ``n_shards * queue_size`` batches in front of one worker.  Absorbing is
  synchronous on the event loop, so more queues or workers would buy no
  parallelism; one FIFO keeps every shard's batches in placement order,
  which is what keeps a fixed-seed run reproducible per shard;
* **backpressure** — ``submit`` awaits queue capacity, so producers slow
  down instead of buffering unboundedly when aggregation falls behind;
  ``try_submit`` refuses instead (the HTTP front's 503);
* **a read view** — :meth:`IngestionService.refresh_query_view` drains the
  queue, reduces and materializes once per change of the collector's
  ``ingest_generation``.

Accuracy is untouched by any of it: the service feeds the same
``partial_fit`` path as synchronous collection, so the reduced estimates
follow the one-shot distribution regardless of producer count or queue
size.

:func:`run_ingestion` is the synchronous convenience wrapper (CLI,
benchmarks): it spins up the service, fans a list of batches across ``P``
simulated producers, waits for the queue to drain and returns a throughput
report.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from repro.core.base import RangeQueryMechanism
from repro.core.cache import DEFAULT_ANSWER_CACHE_SIZE
from repro.exceptions import ConfigurationError, ServiceOverloadedError
from repro.streaming.sharded import ShardedCollector

__all__ = ["IngestionReport", "IngestionService", "run_ingestion"]

@dataclass
class _Job:
    """One queued unit of work: a batch pinned to a shard."""

    items: np.ndarray
    shard: int
    mode: Optional[str]


@dataclass
class IngestionReport:
    """Outcome of one :func:`run_ingestion` sweep."""

    n_batches: int
    n_users: int
    n_producers: int
    n_shards: int
    seconds: float

    @property
    def users_per_second(self) -> float:
        return self.n_users / self.seconds if self.seconds > 0 else float("inf")


class IngestionService:
    """Async multi-producer front door of a :class:`ShardedCollector`.

    Parameters
    ----------
    collector:
        The collector that owns the accumulated state, the shards' random
        streams and the round-robin cursor.  The service never bypasses
        it, so synchronous ``submit`` calls may be mixed in (e.g. replaying
        a backlog) as long as they happen on the event-loop thread.
    queue_size:
        Queue capacity per shard: the one ingest queue holds
        ``collector.n_shards * queue_size`` batches, and ``submit`` blocks
        (asynchronously) while it is full — the backpressure knob.
    query_cache_size:
        Entry bound of the answer cache installed on each materialized read
        view (``0`` disables caching — every query recomputes).

    Use as an async context manager::

        async with IngestionService(collector) as service:
            await asyncio.gather(*(produce(service) for _ in range(8)))
        mechanism = collector.reduce()

    (exiting the context drains the queue before stopping the worker).
    """

    def __init__(
        self,
        collector: ShardedCollector,
        queue_size: int = 8,
        query_cache_size: int = DEFAULT_ANSWER_CACHE_SIZE,
    ) -> None:
        if not isinstance(collector, ShardedCollector):
            raise ConfigurationError(
                f"IngestionService wraps a ShardedCollector, got {type(collector).__name__}"
            )
        if not isinstance(queue_size, (int, np.integer)) or queue_size < 1:
            raise ConfigurationError(
                f"queue_size must be a positive integer, got {queue_size!r}"
            )
        if not isinstance(query_cache_size, (int, np.integer)) or query_cache_size < 0:
            raise ConfigurationError(
                f"query_cache_size must be a non-negative integer, "
                f"got {query_cache_size!r}"
            )
        self._collector = collector
        self._capacity = collector.n_shards * int(queue_size)
        self._query_cache_size = int(query_cache_size)
        # Read-serving state: the latest reduced + materialized view of the
        # collected statistics, keyed by the collector's ingest generation
        # so a new batch forces a rebuild on the next read.
        self._query_view: Optional[RangeQueryMechanism] = None
        self._view_generation = 0
        self._query_views_built = 0
        # Counters folded in from retired views so the service's cache
        # hit/miss/eviction totals stay monotone across view rebuilds.
        self._retired_cache_counters = {"hits": 0, "misses": 0, "evictions": 0}
        self._queue: Optional[asyncio.Queue] = None
        self._worker_task: Optional[asyncio.Task] = None
        self._errors: List[BaseException] = []
        self._submitted_batches = 0
        self._submitted_users = 0
        self._absorbed_batches = 0
        self._absorbed_users = 0
        self._rejected_batches = 0
        self._rejected_users = 0
        self._queue_peak = 0
        # Blocking submitters parked on a full queue: the read view's drain
        # loop waits for them, so no batch is still travelling to the queue.
        self._pending_puts = 0

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def collector(self) -> ShardedCollector:
        return self._collector

    @property
    def started(self) -> bool:
        return self._queue is not None

    @property
    def view_generation(self) -> int:
        """The collector's ``ingest_generation`` when the current read view
        was built (``0`` before the first read)."""
        return self._view_generation

    def stats(self) -> dict:
        """Queue, ingest and read-view counters, one flat JSON-ready dict.

        The source of every ``/metrics`` ingestion family: submission,
        absorption and rejection totals, the queue's capacity, live depth
        and high-water mark, the read view's build count and generation,
        and its answer-cache counters.  Safe to call at any point of the
        lifecycle, including before :meth:`start` and while producers are
        running (counters are updated on the event-loop thread, so a
        snapshot is never torn).
        """
        view = self._query_view
        cache = (
            view.answer_cache_stats()
            if view is not None
            else {"hits": 0, "misses": 0, "evictions": 0, "size": 0,
                  "maxsize": self._query_cache_size}
        )
        retired = self._retired_cache_counters
        return {
            "started": self.started,
            "n_shards": self._collector.n_shards,
            "queue_capacity": self._capacity,
            "queue_depth": self._queue.qsize() if self._queue is not None else 0,
            "queue_peak": self._queue_peak,
            "submitted_batches": self._submitted_batches,
            "submitted_users": self._submitted_users,
            "absorbed_batches": self._absorbed_batches,
            "absorbed_users": self._absorbed_users,
            "rejected_batches": self._rejected_batches,
            "rejected_users": self._rejected_users,
            "views_built": self._query_views_built,
            "view_generation": self._view_generation,
            # Accumulated across view rebuilds so they stay monotone (a
            # generation bump retires the old view's cache, not its history).
            "cache_hits": cache["hits"] + retired["hits"],
            "cache_misses": cache["misses"] + retired["misses"],
            "cache_evictions": cache["evictions"] + retired["evictions"],
            "cache_size": cache["size"],
            "cache_capacity": cache["maxsize"],
        }

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> "IngestionService":
        """Create the ingest queue and spawn its worker task."""
        if self.started:
            raise ConfigurationError("ingestion service is already started")
        self._queue = asyncio.Queue(maxsize=self._capacity)
        self._worker_task = asyncio.create_task(self._worker(), name="repro-ingest")
        return self

    async def stop(self) -> None:
        """Cancel the worker (no draining).

        The worker task is only ever supposed to end via cancellation; any
        other exception that killed it (a bug in the queue plumbing, a
        corrupted job) is collected here and re-raised after cleanup, so a
        dead worker never looks like a clean stop (lint rule LDP-R004).
        """
        task, self._worker_task, self._queue = self._worker_task, None, None
        if task is None:
            return
        task.cancel()
        (result,) = await asyncio.gather(task, return_exceptions=True)
        if isinstance(result, BaseException) and not isinstance(
            result, asyncio.CancelledError
        ):
            self._errors.append(result)
            raise result

    async def join(self) -> None:
        """Wait until every queued batch has been aggregated.

        Re-raises the first worker error, if any batch failed.
        """
        self._require_started()
        await self._queue.join()
        self._raise_pending_error()

    async def __aenter__(self) -> "IngestionService":
        return await self.start()

    async def __aexit__(self, exc_type, exc, tb) -> None:
        try:
            if exc_type is None:
                await self.join()
        finally:
            await self.stop()

    # ------------------------------------------------------------------
    # Producing
    # ------------------------------------------------------------------
    async def submit(self, items: np.ndarray, mode: Optional[str] = None) -> int:
        """Enqueue one batch for the next round-robin shard, awaiting
        capacity.

        Returns the shard index the batch went to.  Many producers may call
        this concurrently; the round-robin cursor is read on the event-loop
        thread, so placement decisions are serialised.
        """
        self._require_started()
        self._raise_pending_error()
        # Validate first: a rejected batch must not spend a round-robin
        # decision.
        items = self._collector.validate_batch(items, mode=mode)
        shard = self._collector.next_shard()
        self._pending_puts += 1
        try:
            await self._queue.put(_Job(items=items, shard=shard, mode=mode))
        finally:
            self._pending_puts -= 1
        self._accepted(items)
        return shard

    def try_submit(self, items: np.ndarray, mode: Optional[str] = None) -> int:
        """Enqueue one batch for the next round-robin shard *without
        waiting* for capacity.

        The network front's variant of :meth:`submit`: where producers
        inside the process can simply be slowed down by an ``await``, a
        remote producer must instead be *told* to back off.  When the
        queue is full the batch is dropped, the ``rejected`` counters
        increment, and :class:`~repro.exceptions.ServiceOverloadedError`
        is raised — the HTTP layer maps it to ``503`` + ``Retry-After``.
        The round-robin decision stays spent: it is placement history, and
        a retry goes to the next shard.  Synchronous (no ``await``), so it
        can only be called from the event-loop thread.
        """
        self._require_started()
        self._raise_pending_error()
        items = self._collector.validate_batch(items, mode=mode)
        shard = self._collector.next_shard()
        try:
            self._queue.put_nowait(_Job(items=items, shard=shard, mode=mode))
        except asyncio.QueueFull:
            self._rejected_batches += 1
            self._rejected_users += int(items.shape[0])
            raise ServiceOverloadedError(
                f"ingest queue is full ({self._capacity} batches); retry later"
            ) from None
        self._accepted(items)
        return shard

    async def submit_points(
        self, points: np.ndarray, mode: Optional[str] = None
    ) -> int:
        """Enqueue one batch of ``(n, d)`` coordinate points.

        The async counterpart of
        :meth:`~repro.streaming.ShardedCollector.submit_points`: points are
        validated and flattened by
        :meth:`~repro.streaming.ShardedCollector.flatten_points` *before* a
        round-robin decision is spent, then follow the normal :meth:`submit`
        path (backpressure included).
        """
        return await self.submit(self._collector.flatten_points(points), mode=mode)

    def _accepted(self, items: np.ndarray) -> None:
        self._queue_peak = max(self._queue_peak, self._queue.qsize())
        self._submitted_batches += 1
        self._submitted_users += int(items.shape[0])

    # ------------------------------------------------------------------
    # Read serving
    # ------------------------------------------------------------------
    async def refresh_query_view(self) -> RangeQueryMechanism:
        """A reduced, materialized, answer-cached view of the live state.

        The read side of the service: returns the cached view as long as
        the collector's ``ingest_generation`` is unchanged and no accepted
        batch is still queued (a few integer compares per request);
        otherwise drains the ingest queue to a generation boundary,
        reduces, materializes the estimates off the per-query path and
        installs a fresh answer cache of ``query_cache_size`` entries.
        Reads therefore see every batch that was *accepted* (whose
        ``submit`` returned) before the read — the same freshness contract
        ``reduce()`` on a live collection offers — while repeated queries
        between writes stay O(1) cache hits.

        Raises :class:`~repro.exceptions.NotFittedError` while nothing has
        been absorbed yet.
        """
        self._require_started()
        if (
            self._query_view is not None
            and self._collector.ingest_generation == self._view_generation
            and self._queue.empty()
            and self._pending_puts == 0
        ):
            return self._query_view
        # Drain to a generation boundary before the synchronous reduce: a
        # queue.join() only returns once every in-flight absorb has called
        # task_done, so the worker cannot be mutating the statistics while
        # reduce() reads them.
        while True:
            await self._queue.join()
            if self._pending_puts == 0 and self._queue.empty():
                break
            await asyncio.sleep(0)
        self._raise_pending_error()
        generation = self._collector.ingest_generation
        view = self._collector.reduce()
        view.set_answer_cache_size(self._query_cache_size)
        view.materialize()
        if self._query_view is not None:
            retired = self._query_view.answer_cache_stats()
            for key in self._retired_cache_counters:
                self._retired_cache_counters[key] += int(retired[key])
        self._query_view = view
        self._view_generation = generation
        self._query_views_built += 1
        return view

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _require_started(self) -> None:
        if not self.started:
            raise ConfigurationError(
                "ingestion service is not running; use 'async with' or await start()"
            )

    def _raise_pending_error(self) -> None:
        if self._errors:
            raise self._errors[0]

    async def _worker(self) -> None:
        queue = self._queue
        while True:
            job = await queue.get()
            try:
                self._collector.submit(job.items, shard=job.shard, mode=job.mode)
                self._absorbed_batches += 1
                self._absorbed_users += int(job.items.shape[0])
            except Exception as error:  # noqa: BLE001 - reported via join()
                self._errors.append(error)
            finally:
                queue.task_done()


async def _produce(
    service: IngestionService,
    batches: Sequence[np.ndarray],
    mode: Optional[str],
) -> None:
    for batch in batches:
        await service.submit(batch, mode=mode)


def run_ingestion(
    collector: ShardedCollector,
    batches: Sequence[np.ndarray],
    n_producers: int = 1,
    queue_size: int = 8,
    mode: Optional[str] = None,
) -> IngestionReport:
    """Drive a full async ingestion of ``batches`` and report throughput.

    The batch list is dealt round-robin across ``n_producers`` concurrent
    producer coroutines (batch ``i`` to producer ``i mod P``), which all
    submit into the shared service under backpressure.  Blocks until every
    batch has been aggregated; afterwards ``collector.reduce()`` is ready.

    Must be called from synchronous code; inside a running event loop use
    :class:`IngestionService` directly.
    """
    if not isinstance(n_producers, (int, np.integer)) or n_producers < 1:
        raise ConfigurationError(
            f"n_producers must be a positive integer, got {n_producers!r}"
        )
    batches = list(batches)
    try:
        asyncio.get_running_loop()
    except RuntimeError:
        pass
    else:
        raise ConfigurationError(
            "run_ingestion cannot be called from a running event loop; "
            "use IngestionService directly"
        )

    async def _main() -> IngestionReport:
        start = time.perf_counter()
        async with IngestionService(collector, queue_size=queue_size) as service:
            await asyncio.gather(
                *(
                    _produce(service, batches[producer::n_producers], mode)
                    for producer in range(int(n_producers))
                )
            )
            await service.join()
        seconds = time.perf_counter() - start
        return IngestionReport(
            n_batches=len(batches),
            n_users=sum(int(np.asarray(batch).shape[0]) for batch in batches),
            n_producers=int(n_producers),
            n_shards=collector.n_shards,
            seconds=seconds,
        )

    return asyncio.run(_main())
