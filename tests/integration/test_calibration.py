"""Seeded calibration: measured range-query error against the stated bounds.

Each cell fits one mechanism ``repetitions`` times on one fixed population,
in aggregate mode, each fit with its own seed, and answers a fixed set of
ranges (boxes, for a grid).  Per range the test asserts that

1. the answer is unbiased: the mean signed error is within ``Z`` standard
   errors of zero;
2. the empirical variance is at most the closed-form bound, within ``Z``
   standard errors of the sample variance;

and for ``haar`` and ``flat_hrr``, over the ranges, that the largest
empirical variance is at least ``1 / LOOSENESS`` of the bound, so a bound
that is vacuous on every range fails.  ``haar`` is checked against eq. (3)
(:func:`~repro.analysis.variance.haar_range_variance`, one bound for every
range, so the check is against its worst range) and ``flat_hrr`` against
Fact 1 (:meth:`~repro.core.flat.FlatMechanism.per_query_variance`, per
range).  ``hhc_4_hrr`` and ``grid2d_2_hrr`` are checked against the
planner's eq. (2) and grid bounds, which are written for OUE's ``V_F``:
HRR's per-estimate variance is ``V_F + 1/N``, so each is scaled by that
ratio.

This is the HRR slice of the calibration suite, the aggregate-mode HRR
mechanisms.  Their users' Hadamard indices are drawn one by one in a small
batch and sampled in count space past the oracle's threshold; the
``2^17``-user cells reach it (``flat_hrr`` and every ``hhc_4_hrr`` level;
the grid's coarsest level tuples, while its finer ones draw per user).
"""

import math

import numpy as np
import pytest

from repro.analysis.variance import frequency_oracle_variance, haar_range_variance
from repro.core.factory import mechanism_from_spec
from repro.data.synthetic import cauchy_probabilities, expected_counts
from repro.frequency_oracles.hadamard import HadamardRandomizedResponse

DOMAIN = 64
GRID_SIDE = 8
Z = 4.0
#: Ranges of length 1 to 62; the full domain is left out because Haar
#: answers it exactly (zero variance).
QUERIES = np.array([[0, 0], [5, 5], [31, 32], [10, 17], [0, 31], [3, 40], [20, 60], [1, 62]])
#: Boxes ``(x0, x1, y0, y1)`` of side 1 to 7, each bounded by its side.
BOXES = np.array([[0, 0, 0, 0], [3, 3, 6, 6], [2, 3, 5, 6], [1, 3, 4, 6], [0, 4, 2, 6], [1, 7, 0, 6]])
LOOSENESS = {"flat_hrr": 1.5, "haar": 4.0}
#: ``(spec, epsilon, users, repetitions)``.
CELLS = [
    ("haar", 0.6, 8192, 600),
    ("haar", 1.1, 8192, 600),
    ("flat_hrr", 0.6, 8192, 600),
    ("flat_hrr", 1.1, 8192, 600),
    ("flat_hrr", 1.1, 1 << 17, 400),
    ("hhc_4_hrr", 1.1, 1 << 17, 300),
    ("grid2d_2_hrr", 1.1, 1 << 17, 200),
]


def _hrr_over_oue(epsilon: float) -> float:
    """HRR's per-estimate variance over the ``V_F`` the planner uses."""
    return HadamardRandomizedResponse(epsilon, 2).theoretical_variance(1) / (
        frequency_oracle_variance(epsilon, 1)
    )


def _grid_case(n_users: int):
    counts = expected_counts(cauchy_probabilities(GRID_SIDE**2), n_users)
    grid = counts.reshape(GRID_SIDE, GRID_SIDE) / n_users
    truth = np.array([grid[x0 : x1 + 1, y0 : y1 + 1].sum() for x0, x1, y0, y1 in BOXES])
    return counts, GRID_SIDE, BOXES, truth


def _range_case(n_users: int):
    counts = expected_counts(cauchy_probabilities(DOMAIN), n_users)
    prefix = np.concatenate([[0], np.cumsum(counts)]) / n_users
    truth = prefix[QUERIES[:, 1] + 1] - prefix[QUERIES[:, 0]]
    return counts, DOMAIN, QUERIES, truth


def _bounds(spec: str, mechanism, epsilon: float, n_users: int) -> np.ndarray:
    if spec == "haar":
        return np.full(len(QUERIES), haar_range_variance(epsilon, n_users, DOMAIN))
    if spec.startswith("grid"):
        sides = np.maximum(BOXES[:, 1] - BOXES[:, 0], BOXES[:, 3] - BOXES[:, 2]) + 1
        return _hrr_over_oue(epsilon) * np.array(
            [mechanism.theoretical_variance_bound(int(side)) for side in sides]
        )
    lengths = QUERIES[:, 1] - QUERIES[:, 0] + 1
    if spec == "flat_hrr":
        return np.array([mechanism.per_query_variance(int(length)) for length in lengths])
    return _hrr_over_oue(epsilon) * np.array(
        [mechanism.per_query_variance_bound(int(length)) for length in lengths]
    )


@pytest.mark.parametrize(
    "spec, epsilon, n_users, repetitions",
    CELLS,
    ids=[f"{spec}-{epsilon}-{users}" for spec, epsilon, users, _ in CELLS],
)
def test_range_error_is_calibrated(spec, epsilon, n_users, repetitions):
    grid = spec.startswith("grid")
    counts, domain, queries, truth = (_grid_case if grid else _range_case)(n_users)
    errors = np.empty((repetitions, len(queries)))
    for seed in range(repetitions):
        mechanism = mechanism_from_spec(spec, epsilon=epsilon, domain_size=domain)
        mechanism.fit_counts(counts, random_state=seed)
        answers = mechanism.answer_boxes(queries) if grid else mechanism.answer_ranges(queries)
        errors[seed] = answers - truth
    bounds = _bounds(spec, mechanism, epsilon, n_users)

    variance = errors.var(axis=0, ddof=1)
    mean_se = np.sqrt(variance / repetitions)
    assert np.all(np.abs(errors.mean(axis=0)) <= Z * mean_se)

    squares = (errors - errors.mean(axis=0)) ** 2
    variance_se = squares.std(axis=0, ddof=1) / math.sqrt(repetitions)
    assert np.all(variance <= bounds + Z * variance_se), variance / bounds
    if spec in LOOSENESS:
        assert np.max(variance / bounds) >= 1.0 / LOOSENESS[spec], variance / bounds
