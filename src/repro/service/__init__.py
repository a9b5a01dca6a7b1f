"""Asynchronous, concurrent ingestion for sharded LDP collection.

The paper's collection model is a fleet of millions of one-shot reporters;
a deployed pipeline also needs the *server side* of that fleet: many
producers submitting report batches concurrently, shards absorbing them
under backpressure, a routing policy spreading (or pinning) the load, and
state that survives a restart.  This package is that tier,
layered on :mod:`repro.streaming` (mergeable shards) and
:mod:`repro.persist` (durable shard state):

* :class:`IngestionService` — an ``asyncio`` service with one bounded
  queue + worker per shard; concurrent producers ``await submit(batch)``
  and slow down automatically when aggregation falls behind.
* Routers — :class:`RoundRobinRouter`, :class:`HashRouter` (hash-by-user,
  sticky placement), :class:`LeastLoadedRouter` (load-aware), pluggable
  into both the async service and the synchronous
  :class:`~repro.streaming.ShardedCollector` via ``router=``.
* :func:`run_ingestion` — synchronous driver used by the
  ``python -m repro serve-demo`` CLI and
  ``benchmarks/bench_ingestion_service.py``.

None of it changes the estimates' distribution: every path feeds the same
mergeable accumulators, so producer count, queue sizes and routing policy
are pure operational knobs.

Example
-------
>>> import asyncio
>>> import numpy as np
>>> from repro.service import IngestionService
>>> from repro.streaming import ShardedCollector
>>> async def main():
...     collector = ShardedCollector(
...         "hhc_4", epsilon=1.1, domain_size=1024,
...         n_shards=4, random_state=7, router="least-loaded",
...     )
...     items = np.random.default_rng(0).integers(0, 1024, 200_000)
...     async with IngestionService(collector, queue_size=4) as service:
...         await asyncio.gather(*(
...             service.submit(batch) for batch in np.array_split(items, 40)
...         ))
...     return collector.reduce().answer_range(100, 500)
>>> answer = asyncio.run(main())
"""

from repro.service.autoscale import AutoscalePolicy, LoadSignal, ShardAutoscaler
from repro.service.client import ServiceClient, ServiceResponse
from repro.service.http import HttpServerThread, ReproHttpServer
from repro.service.ingestion import (
    IngestionReport,
    IngestionService,
    ShardQueueStats,
    run_ingestion,
)
from repro.service.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    render_ingestion_stats,
)
from repro.service.query import QueryCoalescer
from repro.streaming.routing import (
    HashRouter,
    LeastLoadedRouter,
    RoundRobinRouter,
    ShardRouter,
    make_router,
    register_router,
)

__all__ = [
    "AutoscalePolicy",
    "Counter",
    "Gauge",
    "HashRouter",
    "Histogram",
    "HttpServerThread",
    "IngestionReport",
    "IngestionService",
    "LeastLoadedRouter",
    "LoadSignal",
    "MetricsRegistry",
    "QueryCoalescer",
    "ReproHttpServer",
    "RoundRobinRouter",
    "ServiceClient",
    "ServiceResponse",
    "ShardAutoscaler",
    "ShardQueueStats",
    "ShardRouter",
    "make_router",
    "register_router",
    "render_ingestion_stats",
    "run_ingestion",
]
