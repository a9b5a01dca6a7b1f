"""Seeded calibration: measured range-query error against the stated bounds.

Each cell fits one mechanism ``REPETITIONS`` times on one fixed population,
each fit with its own seed, and answers a fixed set of ranges.  Per range
the test asserts that

1. the answer is unbiased: the mean signed error is within ``Z`` standard
   errors of zero;
2. the empirical variance is at most the closed-form bound the planner
   ranks on, within ``Z`` standard errors of the sample variance;

and over the ranges, that the largest empirical variance is at least
``1 / LOOSENESS`` of the bound, so a bound that is vacuous on every range
fails.  ``haar`` is checked against eq. (3)
(:func:`~repro.analysis.variance.haar_range_variance`, one bound for every
range, so the check is against its worst range) and ``flat_hrr`` against
Fact 1 (:meth:`~repro.core.flat.FlatMechanism.per_query_variance`, per
range).

This is the HRR slice of the calibration suite: the two aggregate-mode
HRR mechanisms, whose randomized-response flips are drawn per cell.
"""

import numpy as np
import pytest

from repro.analysis.variance import haar_range_variance
from repro.core.factory import mechanism_from_spec
from repro.data.synthetic import cauchy_probabilities, expected_counts

DOMAIN = 64
N_USERS = 8192
REPETITIONS = 600
Z = 4.0
#: Ranges of length 1 to 62; the full domain is left out because Haar
#: answers it exactly (zero variance).
QUERIES = np.array([[0, 0], [5, 5], [31, 32], [10, 17], [0, 31], [3, 40], [20, 60], [1, 62]])
LOOSENESS = {"flat_hrr": 1.5, "haar": 4.0}


def _bounds(spec: str, mechanism, epsilon: float) -> np.ndarray:
    if spec == "haar":
        return np.full(len(QUERIES), haar_range_variance(epsilon, N_USERS, DOMAIN))
    lengths = QUERIES[:, 1] - QUERIES[:, 0] + 1
    return np.array([mechanism.per_query_variance(int(length)) for length in lengths])


@pytest.mark.parametrize("epsilon", [0.6, 1.1])
@pytest.mark.parametrize("spec", ["haar", "flat_hrr"])
def test_range_error_is_calibrated(spec, epsilon):
    counts = expected_counts(cauchy_probabilities(DOMAIN), N_USERS)
    prefix = np.concatenate([[0], np.cumsum(counts)]) / N_USERS
    truth = prefix[QUERIES[:, 1] + 1] - prefix[QUERIES[:, 0]]
    errors = np.empty((REPETITIONS, len(QUERIES)))
    for seed in range(REPETITIONS):
        mechanism = mechanism_from_spec(spec, epsilon=epsilon, domain_size=DOMAIN)
        mechanism.fit_counts(counts, random_state=seed)
        errors[seed] = mechanism.answer_ranges(QUERIES) - truth
    bounds = _bounds(spec, mechanism, epsilon)

    variance = errors.var(axis=0, ddof=1)
    mean_se = np.sqrt(variance / REPETITIONS)
    assert np.all(np.abs(errors.mean(axis=0)) <= Z * mean_se)

    squares = (errors - errors.mean(axis=0)) ** 2
    variance_se = squares.std(axis=0, ddof=1) / np.sqrt(REPETITIONS)
    assert np.all(variance <= bounds + Z * variance_se), variance / bounds
    assert np.max(variance / bounds) >= 1.0 / LOOSENESS[spec], variance / bounds
