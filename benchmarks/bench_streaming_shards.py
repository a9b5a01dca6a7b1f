"""Streaming/sharded collection — shard-count scaling and batched queries.

Not a paper figure: this benchmark exercises the serving-side posture the
streaming subsystem adds on top of the paper's one-shot protocols.  It
checks two properties at benchmark scale:

* **shard-count invariance** — collecting the same population through a
  :class:`~repro.streaming.ShardedCollector` with K = 1, 2, 4, 8 shards and
  reducing yields workload errors statistically indistinguishable from a
  one-shot fit (merging sufficient statistics is exact, so K is a pure
  throughput knob);
* **batched B-adic evaluation** — answering a large workload on a
  non-consistency ``HH_B`` mechanism via the vectorised decomposition is
  far faster than the per-query Python loop it replaced (the acceptance
  bar is 5x; typical speedups are two orders of magnitude).

Run with ``pytest benchmarks/bench_streaming_shards.py --benchmark-only -s``.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.core.factory import mechanism_from_spec
from repro.data.synthetic import cauchy_probabilities, sample_items
from repro.data.workloads import random_range_queries
from repro.experiments.reporting import format_table
from repro.streaming import one_shot_vs_sharded

SPEC = "hhc_4"
EPSILON = 1.1
SHARD_COUNTS = (1, 2, 4, 8)


@pytest.mark.benchmark(group="streaming")
def test_shard_count_scaling(run_once, bench_config):
    """Reduced estimates stay one-shot-accurate for every shard count."""
    domain = 1 << 10
    seed = bench_config.seed
    items = sample_items(cauchy_probabilities(domain), bench_config.n_users, random_state=seed)
    workload = random_range_queries(
        domain,
        min(bench_config.max_queries_per_workload, 4000),
        random_state=seed,
        name="streaming-bench",
    )

    rows = run_once(
        one_shot_vs_sharded, SPEC, EPSILON, items, workload, SHARD_COUNTS, seed
    )
    print(f"\n=== Streaming | {SPEC} | D = {domain} | N = {bench_config.n_users} ===")
    print(format_table(["collection", "shards", "batches", "mse x1000", "seconds"], rows))

    errors = [row[3] for row in rows]
    baseline = errors[0]
    # Shard-count invariance: every sharded error within noise of one-shot.
    for error in errors[1:]:
        assert error < 3.0 * baseline + 1e-6
    assert min(errors[1:]) < 3.0 * baseline


@pytest.mark.benchmark(group="streaming")
def test_batched_badic_workload(run_once):
    """Vectorised non-consistency answer_ranges beats the per-query loop 5x,
    and each scalar answer_range is bit-identical to its batched row."""
    domain = 1 << 12
    rng = np.random.default_rng(7)
    items = rng.integers(0, domain, size=200_000)
    mechanism = mechanism_from_spec("hh_4", epsilon=EPSILON, domain_size=domain)
    mechanism.fit_items(items, random_state=11)
    queries = random_range_queries(domain, 10_000, random_state=13).queries

    batched = run_once(mechanism.answer_ranges, queries)
    start = time.perf_counter()
    batched_elapsed_start = start
    mechanism.answer_ranges(queries)
    batched_elapsed = time.perf_counter() - batched_elapsed_start

    start = time.perf_counter()
    looped = np.array([mechanism.answer_range(int(a), int(b)) for a, b in queries])
    loop_elapsed = time.perf_counter() - start

    np.testing.assert_array_equal(batched, looped)
    speedup = loop_elapsed / max(batched_elapsed, 1e-9)
    print(
        f"\n=== Batched B-adic | D = {domain} | {len(queries)} queries | "
        f"batched {batched_elapsed:.4f}s vs loop {loop_elapsed:.4f}s "
        f"({speedup:.0f}x) ==="
    )
    assert speedup >= 5.0
