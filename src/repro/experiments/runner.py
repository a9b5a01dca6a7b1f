"""Generic experiment runner.

The paper's experiments all have the same shape: fix a dataset, fit one or
more mechanisms several times (5 repetitions), answer a query workload after
every fit and report the mean (and standard deviation) of the mean squared
error.  :func:`evaluate_mechanism` runs that inner loop for one mechanism;
:func:`run_epsilon_grid` sweeps the ``mechanism x epsilon`` grid that Tables
5 and 6 are made of.

Both entry points take a ``workers`` knob.  With ``workers > 1`` the
independent ``(epsilon, spec, repetition)`` cells fan out across a
:class:`~concurrent.futures.ProcessPoolExecutor`.  Every repetition's
generator is spawned *in the parent*, in exactly the order the serial path
spawns them, and shipped to the worker — so the parallel sweep is
bit-identical to the serial one for any seed and worker count (the tests
verify this).

The shared inputs of a sweep — the counts vector, the workload query matrix
and its exact answers — reach each worker once, through the pool
initializer, rather than being pickled into every task.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.analysis.metrics import mean_squared_error
from repro.core.factory import mechanism_from_spec
from repro.data.workloads import RangeWorkload
from repro.exceptions import ConfigurationError
from repro.privacy.randomness import RandomState, spawn_generators

__all__ = ["CellResult", "evaluate_mechanism", "run_epsilon_grid"]


@dataclass(frozen=True)
class CellResult:
    """One cell of a results table: a mechanism at one parameter setting."""

    mechanism: str
    epsilon: float
    domain_size: int
    n_users: int
    workload: str
    mse_mean: float
    mse_std: float
    repetitions: int

    @property
    def scaled_mse(self) -> float:
        """MSE multiplied by 1000, the presentation unit of Tables 5 and 6."""
        return self.mse_mean * 1000.0

    def as_dict(self) -> Dict[str, object]:
        """Plain dictionary form (used by the reporting helpers)."""
        return {
            "mechanism": self.mechanism,
            "epsilon": self.epsilon,
            "domain_size": self.domain_size,
            "n_users": self.n_users,
            "workload": self.workload,
            "mse_mean": self.mse_mean,
            "mse_std": self.mse_std,
            "repetitions": self.repetitions,
        }


def _repetition_mse(
    spec: str,
    counts: np.ndarray,
    workload: RangeWorkload,
    epsilon: float,
    rng: np.random.Generator,
    mode: str,
    mechanism_kwargs: Optional[dict],
    true_answers: np.ndarray,
) -> float:
    """One repetition of one cell: fit, answer, score.

    Module-level (rather than a closure) so it pickles into worker
    processes; the generator argument carries the exact child stream the
    serial path would have used.
    """
    mechanism = mechanism_from_spec(
        spec,
        epsilon=epsilon,
        domain_size=int(counts.shape[0]),
        **(mechanism_kwargs or {}),
    )
    mechanism.fit_counts(counts, random_state=rng, mode=mode)
    estimates = mechanism.answer_workload(workload)
    return mean_squared_error(true_answers, estimates)


#: Per-worker (counts, workload, true_answers) shipped once via the pool
#: initializer rather than pickled into every repetition task.
_WORKER_SHARED: Optional[tuple] = None


def _init_worker(shared: tuple) -> None:
    global _WORKER_SHARED
    _WORKER_SHARED = shared


def _chunk_mses(chunk: Sequence[tuple]) -> List[List[float]]:
    """Run a *chunk* of repetitions in one worker round trip.

    ``chunk`` rows are ``(spec, epsilon, rep_rngs, mode, mechanism_kwargs)``
    — one row per grid cell, carrying every repetition generator of that
    cell.  Chunking is what makes the pool pay off at small scales: a
    smoke-sized repetition takes ~1 ms, so submitting it as its own task
    drowns the compute in pickle/IPC round trips (the
    ``parallel_grid_speedup < 1`` regression).  One submission per worker
    amortises that overhead over the whole chunk while leaving results —
    and random streams, which were spawned in the parent in serial order —
    bit-identical to the serial sweep.
    """
    counts, workload, true_answers = _WORKER_SHARED
    return [
        [
            _repetition_mse(
                spec, counts, workload, epsilon, rng, mode, kwargs, true_answers
            )
            for rng in rep_rngs
        ]
        for spec, epsilon, rep_rngs, mode, kwargs in chunk
    ]


def _partition(rows: Sequence, n_chunks: int) -> List[List]:
    """Split ``rows`` into at most ``n_chunks`` contiguous, near-equal
    chunks (contiguity keeps result order trivially reconstructible)."""
    n_chunks = max(1, min(int(n_chunks), len(rows)))
    bounds = np.linspace(0, len(rows), n_chunks + 1).astype(int)
    return [list(rows[bounds[i] : bounds[i + 1]]) for i in range(n_chunks)]


def _pool_map(
    chunks: Sequence[List],
    counts: np.ndarray,
    workload: RangeWorkload,
    true_answers: np.ndarray,
) -> List[List[float]]:
    """Run each chunk in its own worker; per-cell errors in chunk order."""
    with ProcessPoolExecutor(
        max_workers=len(chunks),
        initializer=_init_worker,
        initargs=((counts, workload, true_answers),),
    ) as pool:
        futures = [pool.submit(_chunk_mses, chunk) for chunk in chunks]
        return [errors for future in futures for errors in future.result()]


def _summarise(
    spec: str,
    counts: np.ndarray,
    workload: RangeWorkload,
    epsilon: float,
    errors: Sequence[float],
) -> CellResult:
    errors_array = np.asarray(errors)
    return CellResult(
        mechanism=spec,
        epsilon=float(epsilon),
        domain_size=int(counts.shape[0]),
        n_users=int(counts.sum()),
        workload=workload.name,
        mse_mean=float(errors_array.mean()),
        mse_std=float(errors_array.std()),
        repetitions=len(errors),
    )


def evaluate_mechanism(
    spec: str,
    counts: np.ndarray,
    workload: RangeWorkload,
    epsilon: float,
    repetitions: int = 3,
    random_state: RandomState = None,
    mode: str = "aggregate",
    mechanism_kwargs: Optional[dict] = None,
    workers: int = 1,
) -> CellResult:
    """Fit one mechanism ``repetitions`` times and summarise its workload MSE.

    Parameters
    ----------
    spec:
        Mechanism specification string (see
        :func:`repro.core.factory.mechanism_from_spec`).
    counts:
        Exact per-item counts of the population (the fixed dataset).
    workload:
        The queries to evaluate after every fit.
    epsilon, repetitions, random_state, mode:
        Experiment knobs; every repetition gets an independent random stream
        derived from ``random_state``.
    workers:
        Process count for the repetition fan-out.  ``1`` (the default) runs
        serially in-process; any value produces bit-identical results.
    """
    counts = np.asarray(counts, dtype=np.int64)
    if repetitions < 1:
        raise ConfigurationError(f"repetitions must be >= 1, got {repetitions!r}")
    if workers < 1:
        raise ConfigurationError(f"workers must be >= 1, got {workers!r}")
    true_answers = workload.true_answers(counts)
    generators = spawn_generators(random_state, repetitions)
    kwargs = dict(mechanism_kwargs or {})
    if workers == 1:
        errors = [
            _repetition_mse(
                spec, counts, workload, epsilon, rng, mode, kwargs, true_answers
            )
            for rng in generators
        ]
    else:
        # One submission per worker, each carrying a slice of the
        # repetition generators — not one task per repetition, whose
        # pickle/IPC overhead would dominate small cells.
        chunks = _partition(
            [(spec, epsilon, [rng], mode, kwargs) for rng in generators],
            workers,
        )
        errors = [
            error
            for cell_errors in _pool_map(chunks, counts, workload, true_answers)
            for error in cell_errors
        ]
    return _summarise(spec, counts, workload, epsilon, errors)


def run_epsilon_grid(
    specs: Sequence[str],
    counts: np.ndarray,
    workload: RangeWorkload,
    epsilons: Sequence[float],
    repetitions: int = 3,
    random_state: RandomState = None,
    mode: str = "aggregate",
    workers: int = 1,
) -> List[CellResult]:
    """Evaluate every mechanism at every epsilon (the Table 5/6 grid).

    Results come back in row-major order (epsilon outer, mechanism inner),
    matching the layout of the paper's tables.

    ``specs`` and ``epsilons`` may be arbitrary iterables (including
    generators): both are materialised exactly once at entry, so a generator
    is never exhausted by the seed-count pass before the sweep loops run.

    With ``workers > 1`` every ``(epsilon, spec, repetition)`` cell is
    dispatched to a process pool.  Per-cell seed generators are spawned
    first (epsilon outer, mechanism inner — the serial order) and each
    cell's repetition streams are derived from its seed exactly as the
    serial path derives them, so the grid is bit-identical to ``workers=1``.
    """
    specs = list(specs)
    epsilons = list(epsilons)
    if repetitions < 1:
        raise ConfigurationError(f"repetitions must be >= 1, got {repetitions!r}")
    if workers < 1:
        raise ConfigurationError(f"workers must be >= 1, got {workers!r}")
    counts = np.asarray(counts, dtype=np.int64)
    seeds = spawn_generators(random_state, len(epsilons) * len(specs))
    pairs = [(epsilon, spec) for epsilon in epsilons for spec in specs]
    cells = [(epsilon, spec, seed) for (epsilon, spec), seed in zip(pairs, seeds)]
    if workers == 1:
        return [
            evaluate_mechanism(
                spec,
                counts,
                workload,
                epsilon=epsilon,
                repetitions=repetitions,
                random_state=seed,
                mode=mode,
            )
            for epsilon, spec, seed in cells
        ]

    true_answers = workload.true_answers(counts)
    # Spawned in the parent, in serial order, so each repetition receives
    # exactly the stream the serial path would have used; cells are then
    # packed into one contiguous chunk per worker, so the pool pays one
    # pickle/IPC round trip per worker instead of one per repetition.
    rows = [
        (spec, epsilon, spawn_generators(seed, repetitions), mode, None)
        for epsilon, spec, seed in cells
    ]
    cell_errors = _pool_map(_partition(rows, workers), counts, workload, true_answers)
    return [
        _summarise(spec, counts, workload, epsilon, errors)
        for (epsilon, spec, _seed), errors in zip(cells, cell_errors)
    ]
