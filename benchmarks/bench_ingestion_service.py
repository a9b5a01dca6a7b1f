"""Async ingestion service — throughput vs producer count.

Not a paper figure: this benchmark characterises the serving tier on top of
the streaming engine.  It answers two operational questions at benchmark
scale:

* **throughput vs producers** — how ingestion rate behaves as concurrent
  producers are added in front of a fixed pool of round-robin shards (the
  event loop serialises aggregation, so the point of more producers is
  saturating the shards under backpressure, not using more cores — the
  table shows whether the service sustains its single-producer rate as
  concurrency grows);
* **accuracy invariance** — every configuration's reduced estimates stay
  within noise of a one-shot fit (the service feeds the same mergeable
  accumulators, so concurrency must be invisible to accuracy).

Run with ``pytest benchmarks/bench_ingestion_service.py --benchmark-only -s``.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.core.factory import mechanism_from_spec
from repro.data.synthetic import cauchy_probabilities, sample_items
from repro.data.workloads import random_range_queries
from repro.experiments.reporting import format_table
from repro.service import run_ingestion
from repro.streaming import ShardedCollector

SPEC = "hhc_4"
EPSILON = 1.1
N_SHARDS = 4
PRODUCER_COUNTS = (1, 2, 4, 8)


def _population(bench_config, domain):
    seed = bench_config.seed
    items = sample_items(
        cauchy_probabilities(domain), bench_config.n_users, random_state=seed
    )
    workload = random_range_queries(
        domain,
        min(bench_config.max_queries_per_workload, 4000),
        random_state=seed,
        name="ingestion-bench",
    )
    truth = workload.true_answers(np.bincount(items, minlength=domain))
    return items, workload, truth


@pytest.mark.benchmark(group="ingestion")
def test_throughput_vs_producers(run_once, bench_config):
    """Multi-producer async ingestion sustains throughput and accuracy."""
    domain = 1 << 10
    items, workload, truth = _population(bench_config, domain)
    batches = np.array_split(items, 64)

    def sweep():
        rows = []
        for n_producers in PRODUCER_COUNTS:
            collector = ShardedCollector(
                SPEC,
                epsilon=EPSILON,
                domain_size=domain,
                n_shards=N_SHARDS,
                random_state=bench_config.seed + n_producers,
            )
            report = run_ingestion(
                collector, batches, n_producers=n_producers, queue_size=4
            )
            estimates = collector.reduce().answer_workload(workload)
            mse = float(np.mean((estimates - truth) ** 2))
            rows.append([n_producers, report.users_per_second / 1e6, mse * 1000.0])
        return rows

    rows = run_once(sweep)

    start = time.perf_counter()
    one_shot = mechanism_from_spec(SPEC, epsilon=EPSILON, domain_size=domain)
    one_shot.fit_items(items, random_state=bench_config.seed)
    one_shot_seconds = time.perf_counter() - start
    baseline = float(np.mean((one_shot.answer_workload(workload) - truth) ** 2))

    print(
        f"\n=== Ingestion | {SPEC} | D = {domain} | N = {bench_config.n_users} | "
        f"{len(batches)} batches across {N_SHARDS} shards ==="
    )
    print(
        format_table(
            ["producers", "Musers/s", "mse x1000"],
            rows + [["one-shot", items.size / one_shot_seconds / 1e6, baseline * 1000.0]],
        )
    )

    # Accuracy invariance: every producer count within noise of the
    # one-shot baseline.
    for row in rows:
        assert row[2] < 3.0 * baseline * 1000.0 + 1e-6, row
    # Concurrency sustains throughput: the best multi-producer rate is not
    # materially below the single-producer rate (producers only add
    # coordination; backpressure must not collapse it).
    rates = {row[0]: row[1] for row in rows}
    assert max(rates[p] for p in PRODUCER_COUNTS[1:]) > 0.5 * rates[1]
