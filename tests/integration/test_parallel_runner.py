"""Integration tests: the runner's process pool never changes a result.

With ``workers > 1`` the ``(epsilon, spec, repetition)`` sweep runs on a
``ProcessPoolExecutor`` whose initializer ships ``(counts, workload,
true_answers)`` to each worker once.  Every repetition generator is spawned
in the parent in serial order, so the pool must reproduce the serial sweep
bit-for-bit: for every mechanism family, both fit modes, forwarded
constructor kwargs and any worker count.  A dying or raising worker must
surface as an error in the caller, never as a hang or a short result.
"""

import os

import numpy as np
import pytest
from concurrent.futures.process import BrokenProcessPool

from repro.data.workloads import RangeWorkload
from repro.exceptions import ConfigurationError
from repro.experiments import runner
from repro.experiments.runner import evaluate_mechanism, run_epsilon_grid

SEED = 20260807
DOMAIN = 16


@pytest.fixture
def counts():
    rng = np.random.default_rng(SEED)
    return rng.integers(0, 200, size=DOMAIN).astype(np.int64)


@pytest.fixture
def workload():
    queries = np.array([[0, 3], [2, 9], [5, 5], [0, 15]], dtype=np.int64)
    return RangeWorkload(domain_size=DOMAIN, queries=queries, name="pool-test")


def _evaluate(spec, counts, workload, workers, **kwargs):
    return evaluate_mechanism(
        spec,
        counts,
        workload,
        epsilon=1.0,
        repetitions=kwargs.pop("repetitions", 4),
        random_state=SEED,
        workers=workers,
        **kwargs,
    )


class TestPartition:
    @pytest.mark.parametrize(
        "n_rows, n_chunks",
        [(1, 1), (1, 4), (5, 2), (7, 3), (8, 8), (9, 4), (10, 1), (3, 10)],
    )
    def test_chunks_are_contiguous_balanced_and_ordered(self, n_rows, n_chunks):
        rows = list(range(n_rows))
        chunks = runner._partition(rows, n_chunks)
        # Concatenation restores the serial order: the pool's results are
        # re-assembled by chunk order alone.
        assert [row for chunk in chunks for row in chunk] == rows
        assert len(chunks) == min(n_chunks, n_rows)
        sizes = [len(chunk) for chunk in chunks]
        assert min(sizes) >= 1
        assert max(sizes) - min(sizes) <= 1

    def test_non_positive_chunk_request_yields_one_chunk(self):
        assert runner._partition([1, 2, 3], 0) == [[1, 2, 3]]


class TestSerialParity:
    @pytest.mark.parametrize(
        "spec",
        [
            "flat_oue", "flat_olh", "flat_hrr", "haar",
            "hh_2", "hh_4", "hhc_2", "hhc_4", "hhc_4_olh",
        ],
    )
    def test_evaluate_matches_serial_for_every_family(self, spec, counts, workload):
        serial = _evaluate(spec, counts, workload, workers=1)
        parallel = _evaluate(spec, counts, workload, workers=2)
        assert parallel.as_dict() == serial.as_dict()

    @pytest.mark.parametrize("spec", ["flat_oue", "hhc_4", "haar"])
    def test_per_user_mode_matches_serial(self, spec, counts, workload):
        serial = _evaluate(spec, counts, workload, workers=1, mode="per_user")
        parallel = _evaluate(spec, counts, workload, workers=2, mode="per_user")
        assert parallel.as_dict() == serial.as_dict()

    def test_mechanism_kwargs_reach_the_workers(self, counts, workload):
        kwargs = {"budget_strategy": "splitting"}
        serial = _evaluate("hhc_4", counts, workload, 1, mechanism_kwargs=kwargs)
        parallel = _evaluate("hhc_4", counts, workload, 2, mechanism_kwargs=kwargs)
        default = _evaluate("hhc_4", counts, workload, 2)
        assert parallel.as_dict() == serial.as_dict()
        # The kwargs changed the mechanism, so they were not dropped on the
        # way into the pool.
        assert parallel.mse_mean != default.mse_mean

    def test_more_workers_than_repetitions(self, counts, workload):
        serial = _evaluate("hhc_4", counts, workload, workers=1, repetitions=2)
        parallel = _evaluate("hhc_4", counts, workload, workers=5, repetitions=2)
        assert parallel.as_dict() == serial.as_dict()
        assert parallel.repetitions == 2

    @pytest.mark.parametrize("workers", [2, 3])
    def test_grid_matches_serial(self, workers, counts, workload):
        kwargs = dict(epsilons=[0.5, 2.0], repetitions=2, random_state=SEED)
        specs = ["flat_oue", "hhc_4", "haar"]
        serial = run_epsilon_grid(specs, counts, workload, **kwargs)
        parallel = run_epsilon_grid(specs, counts, workload, workers=workers, **kwargs)
        assert [cell.as_dict() for cell in parallel] == [
            cell.as_dict() for cell in serial
        ]

    def test_pool_leaves_the_parent_unshared(self, counts, workload):
        # The initializer runs in the workers only; the parent never holds a
        # stale (counts, workload, true_answers) tuple after a sweep.
        _evaluate("flat_oue", counts, workload, workers=2)
        assert runner._WORKER_SHARED is None


def _crash_chunk(chunk):
    """Stand-in worker body: die without cleanup, mid-task."""
    os._exit(1)


def _raise_in_chunk(chunk):
    """Stand-in worker body: fail with a library error."""
    raise ConfigurationError("worker rejected its chunk")


class TestWorkerFailure:
    def test_worker_crash_raises_broken_pool(self, counts, workload, monkeypatch):
        monkeypatch.setattr(runner, "_chunk_mses", _crash_chunk)
        with pytest.raises(BrokenProcessPool):
            run_epsilon_grid(
                ["flat_oue"], counts, workload, [1.0], repetitions=2,
                random_state=SEED, workers=2,
            )

    def test_worker_exception_reaches_the_caller(self, counts, workload, monkeypatch):
        monkeypatch.setattr(runner, "_chunk_mses", _raise_in_chunk)
        with pytest.raises(ConfigurationError, match="worker rejected its chunk"):
            _evaluate("flat_oue", counts, workload, workers=2)
