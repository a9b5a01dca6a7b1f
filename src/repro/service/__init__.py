"""Asynchronous, concurrent ingestion for sharded LDP collection.

The paper's collection model is a fleet of millions of one-shot reporters;
a deployed pipeline also needs the *server side* of that fleet: many
producers submitting report batches concurrently, one accumulated state
absorbing them under backpressure, and state that survives a restart.
This package is that tier, layered on :mod:`repro.streaming` (mergeable
accumulators) and :mod:`repro.persist` (durable collector state):

* :class:`IngestionService` — an ``asyncio`` service with one bounded
  ingest queue and one worker; concurrent producers ``await
  submit(batch)``, each batch is placed on the collector's next
  round-robin shard, and producers slow down automatically when
  aggregation falls behind.
* :class:`ReproHttpServer` / :class:`HttpServerThread` — the HTTP front
  (``python -m repro serve``), with :class:`ServiceClient` as its client.
* :func:`run_ingestion` — synchronous driver: fans a list of batches
  across producers into a :class:`~repro.streaming.ShardedCollector`
  (``benchmarks/bench_ingestion_service.py`` uses it); call the
  collector's ``reduce()`` afterwards for the merged mechanism.

None of it changes the estimates' distribution: every path feeds the same
mergeable accumulators, so producer count, shard count and queue size are
pure operational knobs.

Example
-------
>>> import asyncio
>>> import numpy as np
>>> from repro.service import IngestionService
>>> from repro.streaming import ShardedCollector
>>> async def main():
...     collector = ShardedCollector(
...         "hhc_4", epsilon=1.1, domain_size=1024, n_shards=4, random_state=7
...     )
...     items = np.random.default_rng(0).integers(0, 1024, 200_000)
...     async with IngestionService(collector, queue_size=4) as service:
...         await asyncio.gather(*(
...             service.submit(batch) for batch in np.array_split(items, 40)
...         ))
...     return collector.reduce().answer_range(100, 500)
>>> answer = asyncio.run(main())
"""

from repro.service.client import ServiceClient, ServiceResponse
from repro.service.http import HttpServerThread, ReproHttpServer
from repro.service.ingestion import IngestionReport, IngestionService, run_ingestion
from repro.service.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    render_ingestion_stats,
)
from repro.service.query import QueryCoalescer

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "HttpServerThread",
    "IngestionReport",
    "IngestionService",
    "MetricsRegistry",
    "QueryCoalescer",
    "ReproHttpServer",
    "ServiceClient",
    "ServiceResponse",
    "render_ingestion_stats",
    "run_ingestion",
]
