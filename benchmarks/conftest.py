"""Shared configuration for the benchmark suite.

Every benchmark regenerates one table or figure of the paper's evaluation at
laptop scale and prints it in the paper's layout.  The scale can be raised
towards the paper's original parameters through environment variables:

``REPRO_BENCH_USERS``        population size N (default 2^17)
``REPRO_BENCH_REPETITIONS``  repetitions per cell (default 3; the paper uses 5)
``REPRO_BENCH_MAX_QUERIES``  per-workload query cap (default 6000)

Run with ``pytest benchmarks/ --benchmark-only -s`` to see the tables.
"""

from __future__ import annotations

import os

import pytest

from repro.experiments.config import ExperimentConfig


def _env_int(name: str, default: int) -> int:
    try:
        return int(os.environ.get(name, default))
    except ValueError:
        return default


@pytest.fixture(scope="session")
def bench_config() -> ExperimentConfig:
    """The experiment configuration shared by all benchmark modules."""
    return ExperimentConfig(
        n_users=_env_int("REPRO_BENCH_USERS", 1 << 17),
        repetitions=_env_int("REPRO_BENCH_REPETITIONS", 3),
        max_queries_per_workload=_env_int("REPRO_BENCH_MAX_QUERIES", 6000),
        seed=20190630,
    )


@pytest.fixture
def run_once(benchmark):
    """Run an experiment exactly once under pytest-benchmark timing.

    The experiment functions are deterministic given their seed and far too
    heavy for statistical repetition, so a single timed round is recorded.
    """

    def runner(func, *args, **kwargs):
        return benchmark.pedantic(func, args=args, kwargs=kwargs, rounds=1, iterations=1)

    return runner
