"""Asynchronous ingestion tier over the sharded collector.

:class:`IngestionService` turns :class:`~repro.streaming.ShardedCollector`
into a concurrent service: any number of ``asyncio`` producers submit
report batches, each batch goes to the collector's next round-robin shard,
and one worker task per shard drains that shard's queue in arrival order.
The moving parts:

* **per-shard worker queues** — each shard owns a bounded
  :class:`asyncio.Queue`; ordering *within a shard* is preserved, which is
  what keeps a fixed-seed run reproducible per shard;
* **backpressure** — ``submit`` awaits queue capacity, so producers slow
  down instead of buffering unboundedly when aggregation falls behind;
  ``try_submit`` refuses instead (the HTTP front's 503);
* **a read view** — :meth:`IngestionService.refresh_query_view` drains the
  queues, reduces and materializes once per generation change.

Accuracy is untouched by any of it: the service feeds the same
``partial_fit`` path as synchronous collection, so the reduced estimates
follow the one-shot distribution regardless of producer count or queue
sizes.

:func:`run_ingestion` is the synchronous convenience wrapper (CLI,
benchmarks): it spins up the service, fans a list of batches across ``P``
simulated producers, waits for the queues to drain and returns a throughput
report.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass, field
from typing import List, Optional, Sequence

import numpy as np

from repro.core.base import RangeQueryMechanism
from repro.core.cache import DEFAULT_ANSWER_CACHE_SIZE
from repro.exceptions import ConfigurationError, ServiceOverloadedError
from repro.streaming.sharded import ShardedCollector

__all__ = ["IngestionReport", "IngestionService", "ShardQueueStats", "run_ingestion"]


@dataclass
class _Job:
    """One queued unit of work: a batch pinned to a shard."""

    items: np.ndarray
    shard: int
    mode: Optional[str]


@dataclass
class ShardQueueStats:
    """Per-shard ingestion counters (updated on the event-loop thread)."""

    batches: int = 0
    users: int = 0
    queue_peak: int = 0
    #: Batches bounced by the non-blocking path because this shard's queue
    #: was full — the backpressure signal the HTTP front turns into 503s.
    rejected: int = 0


@dataclass
class IngestionReport:
    """Outcome of one :func:`run_ingestion` sweep."""

    n_batches: int
    n_users: int
    n_producers: int
    n_shards: int
    seconds: float
    shard_stats: List[ShardQueueStats] = field(default_factory=list)

    @property
    def users_per_second(self) -> float:
        return self.n_users / self.seconds if self.seconds > 0 else float("inf")


class IngestionService:
    """Async multi-producer front door of a :class:`ShardedCollector`.

    Parameters
    ----------
    collector:
        The sharded collector that owns the mechanisms, random streams and
        round-robin cursor.  The service never bypasses it, so synchronous
        ``submit`` calls may be mixed in (e.g. replaying a backlog) as long
        as they happen on the event-loop thread.
    queue_size:
        Capacity of each shard's queue; ``submit`` blocks (asynchronously)
        when the target shard is this far behind — the backpressure knob.
    query_cache_size:
        Entry bound of the answer cache installed on each materialized
        :meth:`query_view` (``0`` disables caching — every query recomputes).

    Use as an async context manager::

        async with IngestionService(collector) as service:
            await asyncio.gather(*(produce(service) for _ in range(8)))
        mechanism = collector.reduce()

    (exiting the context drains the queues before stopping the workers).
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
        self._queue_size = int(queue_size)
        self._query_cache_size = int(query_cache_size)
        # Read-serving state: the latest reduced + materialized view of the
        # sharded statistics, keyed by the collector's generation signature
        # so a new batch forces a rebuild on the next read.
        self._query_view: Optional[RangeQueryMechanism] = None
        self._query_view_signature: Optional[tuple] = None
        self._query_views_built = 0
        # Counters folded in from retired views so the service's cache
        # hit/miss/eviction totals stay monotone across view rebuilds.
        self._retired_cache_counters = {"hits": 0, "misses": 0, "evictions": 0}
        self._queues: Optional[List[asyncio.Queue]] = None
        self._workers: List[asyncio.Task] = []
        self._errors: List[BaseException] = []
        self._stats = [ShardQueueStats() for _ in range(collector.n_shards)]
        self._submitted_batches = 0
        self._submitted_users = 0
        self._rejected_users = 0
        # Blocking submitters parked on a full queue: the read view's drain
        # loop waits for them, so no batch is still travelling to a queue.
        self._pending_puts = 0

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def collector(self) -> ShardedCollector:
        return self._collector

    @property
    def started(self) -> bool:
        return self._queues is not None

    @property
    def shard_stats(self) -> List[ShardQueueStats]:
        """Per-shard counters (batches, users, queue high-water mark)."""
        return list(self._stats)

    @property
    def n_submitted_users(self) -> int:
        return self._submitted_users

    @property
    def n_submitted_batches(self) -> int:
        return self._submitted_batches

    def stats(self) -> dict:
        """Queue and ingest counters, one JSON-ready dictionary.

        The metrics-export surface of the service (ROADMAP "queue metrics
        export"): submission totals, per-shard absorption counters, live
        queue depths and high-water marks, and the lazy-materialization
        counters of every shard mechanism — ``ingest_generation`` (batches
        absorbed into the statistics), ``materializations_performed``
        (estimate rebuilds that actually ran) and
        ``materializations_deferred`` (rebuilds the lazy read-path saved
        compared to refreshing after every batch).  Safe to call at any
        point of the lifecycle, including before :meth:`start` and while
        producers are running (counters are updated on the event-loop
        thread; a concurrent snapshot may be one batch stale, never torn
        mid-shard).
        """
        per_shard = []
        for index, shard in enumerate(self._collector.shards):
            stat = self._stats[index]
            queue = self._queues[index] if self._queues is not None else None
            ingest = int(getattr(shard, "ingest_generation", 0))
            performed = int(getattr(shard, "materialization_count", 0))
            per_shard.append(
                {
                    "shard": index,
                    "batches": int(stat.batches),
                    "users": int(stat.users),
                    "rejected": int(stat.rejected),
                    "queue_depth": queue.qsize() if queue is not None else 0,
                    "queue_peak": int(stat.queue_peak),
                    "ingest_generation": ingest,
                    "materializations_performed": performed,
                    "materializations_deferred": max(0, ingest - performed),
                }
            )
        absorbed_batches = sum(entry["batches"] for entry in per_shard)
        absorbed_users = sum(entry["users"] for entry in per_shard)
        return {
            "started": self.started,
            "n_shards": self._collector.n_shards,
            "queue_size": int(self._queue_size),
            "submitted_batches": int(self._submitted_batches),
            "submitted_users": int(self._submitted_users),
            "absorbed_batches": absorbed_batches,
            "absorbed_users": absorbed_users,
            "queue_depths": [entry["queue_depth"] for entry in per_shard],
            "queue_peaks": [entry["queue_peak"] for entry in per_shard],
            "materializations_performed": sum(
                entry["materializations_performed"] for entry in per_shard
            ),
            "materializations_deferred": sum(
                entry["materializations_deferred"] for entry in per_shard
            ),
            "totals": {
                "submitted_batches": int(self._submitted_batches),
                "submitted_users": int(self._submitted_users),
                "absorbed_batches": absorbed_batches,
                "absorbed_users": absorbed_users,
                "rejected_batches": sum(entry["rejected"] for entry in per_shard),
                "rejected_users": int(self._rejected_users),
            },
            "query": self._query_stats(),
            "per_shard": per_shard,
        }

    def _query_stats(self) -> dict:
        """Read-serving counters: views built plus the answer-cache
        counters, accumulated across view rebuilds so they stay monotone
        (a generation bump retires the old view's cache; its hit/miss
        history must not vanish from the service's counters)."""
        view = self._query_view
        if view is not None:
            cache = view.answer_cache_stats()
            for key, value in self._retired_cache_counters.items():
                cache[key] += value
        else:
            cache = {
                "hits": 0,
                "misses": 0,
                "evictions": 0,
                "size": 0,
                "maxsize": int(self._query_cache_size),
            }
        return {
            "views_built": int(self._query_views_built),
            "view_generation": (
                int(getattr(view, "ingest_generation", 0)) if view is not None else 0
            ),
            "answer_cache": cache,
        }

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> "IngestionService":
        """Create the shard queues and spawn one worker task per shard."""
        if self.started:
            raise ConfigurationError("ingestion service is already started")
        self._queues = [
            asyncio.Queue(maxsize=self._queue_size)
            for _ in range(self._collector.n_shards)
        ]
        self._workers = [
            asyncio.create_task(self._worker(shard), name=f"repro-shard-{shard}")
            for shard in range(self._collector.n_shards)
        ]
        return self

    async def stop(self) -> None:
        """Cancel the workers (no draining).

        A worker task is only ever supposed to end via cancellation; any
        other exception that killed one (a bug in the queue plumbing, a
        corrupted job) is collected here and re-raised after cleanup —
        previously those results were gathered and silently discarded
        (lint rule LDP-R004), so a dead shard looked like a clean stop.
        """
        for task in self._workers:
            task.cancel()
        results = await asyncio.gather(*self._workers, return_exceptions=True)
        self._workers = []
        self._queues = None
        failures = [
            result
            for result in results
            if isinstance(result, BaseException)
            and not isinstance(result, asyncio.CancelledError)
        ]
        if failures:
            self._errors.extend(failures)
            raise failures[0]

    async def join(self) -> None:
        """Wait until every queued batch has been aggregated.

        Re-raises the first worker error, if any batch failed.
        """
        self._require_started()
        await asyncio.gather(*(queue.join() for queue in self._queues))
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
        """Enqueue one batch on the next round-robin shard, awaiting
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
        queue = self._queues[shard]
        self._pending_puts += 1
        try:
            await queue.put(_Job(items=items, shard=shard, mode=mode))
        finally:
            self._pending_puts -= 1
        stats = self._stats[shard]
        stats.queue_peak = max(stats.queue_peak, queue.qsize())
        self._submitted_batches += 1
        self._submitted_users += int(items.shape[0]) if items.ndim else 0
        return shard

    def try_submit(self, items: np.ndarray, mode: Optional[str] = None) -> int:
        """Enqueue one batch on the next round-robin shard *without
        waiting* for capacity.

        The network front's variant of :meth:`submit`: where producers
        inside the process can simply be slowed down by an ``await``, a
        remote producer must instead be *told* to back off.  When the
        shard's queue is full the batch is dropped, the shard's
        ``rejected`` counter increments, and
        :class:`~repro.exceptions.ServiceOverloadedError` is raised — the
        HTTP layer maps it to ``503`` + ``Retry-After``.  The round-robin
        decision stays spent: it is placement history, and a retry goes to
        the next shard.  Synchronous (no ``await``), so it can only be
        called from the event-loop thread.
        """
        self._require_started()
        self._raise_pending_error()
        items = self._collector.validate_batch(items, mode=mode)
        n_items = int(items.shape[0])
        shard = self._collector.next_shard()
        queue = self._queues[shard]
        try:
            queue.put_nowait(_Job(items=items, shard=shard, mode=mode))
        except asyncio.QueueFull:
            self._stats[shard].rejected += 1
            self._rejected_users += n_items
            raise ServiceOverloadedError(
                f"shard {shard} queue is full ({queue.maxsize} batches); "
                "retry later"
            ) from None
        stats = self._stats[shard]
        stats.queue_peak = max(stats.queue_peak, queue.qsize())
        self._submitted_batches += 1
        self._submitted_users += n_items
        return shard

    async def submit_points(
        self, points: np.ndarray, mode: Optional[str] = None
    ) -> int:
        """Enqueue one batch of ``(n, d)`` coordinate points.

        The async counterpart of
        :meth:`~repro.streaming.ShardedCollector.submit_points`: points are
        validated (column count against the grid mechanism's
        dimensionality, integer dtype, bounds) and flattened *before* a
        round-robin decision is spent, then follow the normal :meth:`submit`
        path (backpressure included).
        """
        flatten = getattr(self._collector.shards[0], "flatten_points", None)
        if flatten is None:
            raise ConfigurationError(
                "the collector's mechanism has no grid point surface; "
                "submit flattened items with submit() instead"
            )
        return await self.submit(flatten(points), mode=mode)

    # ------------------------------------------------------------------
    # Reduction
    # ------------------------------------------------------------------
    def reduce(self) -> RangeQueryMechanism:
        """Merge the shards into one queryable mechanism (queues must be
        drained first — call :meth:`join` or exit the context manager)."""
        return self._collector.reduce()

    # ------------------------------------------------------------------
    # Read serving
    # ------------------------------------------------------------------
    @property
    def query_view(self) -> Optional[RangeQueryMechanism]:
        """The latest built read view (``None`` before the first read)."""
        return self._query_view

    @property
    def query_views_built(self) -> int:
        """Reduced+materialized views built so far (cache-miss counter)."""
        return self._query_views_built

    async def refresh_query_view(self) -> RangeQueryMechanism:
        """A reduced, materialized, answer-cached view of the live shards.

        The read side of the service: returns the cached view as long as
        the collector's :meth:`~repro.streaming.ShardedCollector
        .generation_signature` is unchanged (O(shards) integer compares per
        request); otherwise drains the shard queues to a generation
        boundary, reduces, materializes the estimates off the per-query
        path and installs a fresh answer cache of ``query_cache_size``
        entries.  Reads therefore see every batch that was *absorbed* when
        the view was built — the same freshness contract ``reduce()`` on a
        live collection offers — while repeated queries between writes stay
        O(1) cache hits.

        Raises :class:`~repro.exceptions.NotFittedError` while no shard has
        absorbed anything yet.
        """
        self._require_started()
        signature = self._collector.generation_signature()
        if self._query_view is not None and signature == self._query_view_signature:
            return self._query_view
        # Drain to a generation boundary before the synchronous reduce: a
        # queue.join() only returns once every in-flight absorb has called
        # task_done, so no worker can be mutating a shard's statistics
        # while reduce() reads them.
        while True:
            await asyncio.gather(*(queue.join() for queue in self._queues))
            if self._pending_puts == 0 and all(
                queue.qsize() == 0 for queue in self._queues
            ):
                break
            await asyncio.sleep(0)
        self._raise_pending_error()
        signature = self._collector.generation_signature()
        view = self._collector.reduce()
        view.set_answer_cache_size(self._query_cache_size)
        view.materialize()
        if self._query_view is not None:
            retired = self._query_view.answer_cache_stats()
            for key in self._retired_cache_counters:
                self._retired_cache_counters[key] += int(retired[key])
        self._query_view = view
        self._query_view_signature = signature
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

    async def _worker(self, shard: int) -> None:
        queue = self._queues[shard]
        while True:
            job = await queue.get()
            try:
                self._collector.submit(job.items, shard=shard, mode=job.mode)
                stats = self._stats[shard]
                stats.batches += 1
                stats.users += int(job.items.shape[0])
            except asyncio.CancelledError:  # pragma: no cover - stop() path
                queue.task_done()
                raise
            except BaseException as error:  # noqa: BLE001 - reported via join()
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
            stats = service.shard_stats
        seconds = time.perf_counter() - start
        return IngestionReport(
            n_batches=len(batches),
            n_users=sum(int(np.asarray(batch).shape[0]) for batch in batches),
            n_producers=int(n_producers),
            n_shards=collector.n_shards,
            seconds=seconds,
            shard_stats=stats,
        )

    return asyncio.run(_main())
