"""Seeded calibration: measured range-query error against the variance surface.

Each cell fits one mechanism ``repetitions`` times on one fixed population,
in aggregate mode, each fit with its own seed, and answers a fixed set of
ranges (boxes, for a grid).  Per range the test asserts that

1. the answer is unbiased: the mean signed error is within ``Z`` standard
   errors of zero;
2. the empirical variance is at most
   :meth:`~repro.core.base.RangeQueryMechanism.answer_variances`, averaged
   over the fits, within ``Z`` standard errors of the sample variance;
3. the empirical variance is at least ``LOWER`` times that surface, so a
   surface that overstates the error (e.g. one that ignores consistency)
   fails too.

The surface is each oracle's zero-frequency variance times the squared
weights of the answer's estimates, so it is exact for OUE and HRR and
these cells check it from both sides.

The HRR cells are the aggregate-mode HRR mechanisms.  Their users'
Hadamard indices are drawn one by one in a small batch and sampled in
count space past the oracle's threshold; the ``2^17``-user cells reach it
(``flat_hrr`` and every ``hhc_4_hrr`` level; the grid's coarsest level
tuples, while its finer ones draw per user).  The OUE cells cover the
B-adic weights without (``hh_4``) and with (``hhc_2``) consistency.
"""

import math

import numpy as np
import pytest

from repro.core.factory import mechanism_from_spec
from repro.data.synthetic import cauchy_probabilities, expected_counts

DOMAIN = 64
GRID_SIDE = 8
Z = 4.0
#: Smallest measured variance, as a share of the surface, any range may show.
LOWER = 0.5
#: Ranges of length 1 to 62; the full domain is left out because Haar and
#: ``hhc_*`` answer it exactly (zero variance).
QUERIES = np.array([[0, 0], [5, 5], [31, 32], [10, 17], [0, 31], [3, 40], [20, 60], [1, 62]])
#: Boxes ``(x0, x1, y0, y1)`` of side 1 to 7, each bounded by its side.
BOXES = np.array([[0, 0, 0, 0], [3, 3, 6, 6], [2, 3, 5, 6], [1, 3, 4, 6], [0, 4, 2, 6], [1, 7, 0, 6]])
#: ``(spec, epsilon, users, repetitions)``.
CELLS = [
    ("haar", 0.6, 8192, 600),
    ("haar", 1.1, 8192, 600),
    ("flat_hrr", 0.6, 8192, 600),
    ("flat_hrr", 1.1, 8192, 600),
    ("flat_hrr", 1.1, 1 << 17, 400),
    ("hhc_4_hrr", 1.1, 1 << 17, 300),
    ("grid2d_2_hrr", 1.1, 1 << 17, 200),
    ("hh_4", 1.1, 8192, 300),
    ("hhc_2", 1.1, 8192, 300),
]


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


@pytest.mark.parametrize(
    "spec, epsilon, n_users, repetitions",
    CELLS,
    ids=[f"{spec}-{epsilon}-{users}" for spec, epsilon, users, _ in CELLS],
)
def test_range_error_is_calibrated(spec, epsilon, n_users, repetitions):
    grid = spec.startswith("grid")
    counts, domain, queries, truth = (_grid_case if grid else _range_case)(n_users)
    errors = np.empty((repetitions, len(queries)))
    surface = np.zeros(len(queries))
    for seed in range(repetitions):
        mechanism = mechanism_from_spec(spec, epsilon=epsilon, domain_size=domain)
        mechanism.fit_counts(counts, random_state=seed)
        answers = mechanism.answer_boxes(queries) if grid else mechanism.answer_ranges(queries)
        errors[seed] = answers - truth
        surface += mechanism.answer_variances(queries) / repetitions

    variance = errors.var(axis=0, ddof=1)
    mean_se = np.sqrt(variance / repetitions)
    assert np.all(np.abs(errors.mean(axis=0)) <= Z * mean_se)

    squares = (errors - errors.mean(axis=0)) ** 2
    variance_se = squares.std(axis=0, ddof=1) / math.sqrt(repetitions)
    assert np.all(variance <= surface + Z * variance_se), variance / surface
    assert np.all(variance >= LOWER * surface), variance / surface
