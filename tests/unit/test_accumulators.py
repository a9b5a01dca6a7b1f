"""Unit tests for the mergeable oracle accumulators.

The accumulator laws under test:

* merge-linearity — the merged estimate equals the user-count-weighted
  average of the parts' estimates;
* merge associativity and commutativity (up to float rounding);
* configuration safety — differently configured oracles refuse to merge.
"""

import numpy as np
import pytest

from repro.exceptions import ConfigurationError
from repro.frequency_oracles import (
    FrequencyOracle,
    GeneralizedRandomizedResponse,
    HadamardRandomizedResponse,
    OptimalLocalHashing,
    OptimizedUnaryEncoding,
    OracleReports,
    SymmetricUnaryEncoding,
    make_oracle,
)

ORACLE_NAMES = ("oue", "sue", "grr", "hrr", "olh")
DOMAIN = 16


def _oracle(name: str) -> FrequencyOracle:
    return make_oracle(name, epsilon=1.0, domain_size=DOMAIN)


def _counts(rng: np.random.Generator, total: int = 5000) -> np.ndarray:
    return rng.multinomial(total, np.full(DOMAIN, 1.0 / DOMAIN))


class TestMergeLaws:
    @pytest.mark.parametrize("name", ORACLE_NAMES)
    def test_merge_is_weighted_average_of_estimates(self, name, rng):
        oracle = _oracle(name)
        parts = []
        sizes = (4000, 1000, 2500)
        for size in sizes:
            acc = oracle.accumulator().add_counts(_counts(rng, size), rng)
            parts.append(acc)
        estimates = [acc.estimate() for acc in parts]
        merged = oracle.accumulator()
        for acc in parts:
            merged.merge(acc)
        expected = sum(n * e for n, e in zip(sizes, estimates)) / sum(sizes)
        assert merged.n_users == sum(sizes)
        np.testing.assert_allclose(merged.estimate(), expected, atol=1e-12)

    @pytest.mark.parametrize("name", ORACLE_NAMES)
    def test_merge_associative_and_commutative(self, name, rng):
        oracle = _oracle(name)

        def fresh(seed, size):
            return oracle.accumulator().add_counts(
                _counts(np.random.default_rng(seed), size), np.random.default_rng(seed + 100)
            )

        left = fresh(1, 900).merge(fresh(2, 1100)).merge(fresh(3, 700))
        right = fresh(3, 700).merge(fresh(1, 900).merge(fresh(2, 1100)))
        assert left.n_users == right.n_users == 2700
        np.testing.assert_allclose(left.estimate(), right.estimate(), atol=1e-10)

    def test_empty_accumulator_estimates_zero(self):
        for name in ORACLE_NAMES:
            acc = _oracle(name).accumulator()
            assert acc.n_users == 0
            np.testing.assert_array_equal(acc.estimate(), np.zeros(DOMAIN))

    def test_merging_empty_is_identity(self, rng):
        oracle = _oracle("oue")
        acc = oracle.accumulator().add_counts(_counts(rng), rng)
        before = acc.estimate().copy()
        acc.merge(oracle.accumulator())
        np.testing.assert_array_equal(acc.estimate(), before)


class TestMergeCompatibility:
    def test_different_epsilon_refused(self):
        a = OptimizedUnaryEncoding(1.0, DOMAIN).accumulator()
        b = OptimizedUnaryEncoding(2.0, DOMAIN).accumulator()
        with pytest.raises(ConfigurationError):
            a.merge(b)

    def test_different_domain_refused(self):
        a = GeneralizedRandomizedResponse(1.0, DOMAIN).accumulator()
        b = GeneralizedRandomizedResponse(1.0, DOMAIN * 2).accumulator()
        with pytest.raises(ConfigurationError):
            a.merge(b)

    def test_different_oracle_class_refused(self):
        a = OptimizedUnaryEncoding(1.0, DOMAIN).accumulator()
        b = SymmetricUnaryEncoding(1.0, DOMAIN).accumulator()
        with pytest.raises(ConfigurationError):
            a.merge(b)

    def test_different_hash_range_refused(self):
        a = OptimalLocalHashing(1.0, DOMAIN, hash_range=4).accumulator()
        b = OptimalLocalHashing(1.0, DOMAIN, hash_range=8).accumulator()
        with pytest.raises(ConfigurationError):
            a.merge(b)

    def test_failed_merge_leaves_state_untouched(self, rng):
        oracle = OptimizedUnaryEncoding(1.0, DOMAIN)
        acc = oracle.accumulator().add_counts(_counts(rng), rng)
        before = acc.estimate().copy()
        users_before = acc.n_users
        with pytest.raises(ConfigurationError):
            acc.merge(OptimizedUnaryEncoding(2.0, DOMAIN).accumulator())
        assert acc.n_users == users_before
        np.testing.assert_array_equal(acc.estimate(), before)


class TestStatisticalSoundness:
    @pytest.mark.parametrize("name", ORACLE_NAMES)
    def test_batched_accumulation_recovers_frequencies(self, name, rng):
        oracle = _oracle(name)
        probabilities = np.arange(1, DOMAIN + 1, dtype=np.float64)
        probabilities /= probabilities.sum()
        n_users = 60_000
        counts = rng.multinomial(n_users, probabilities)
        acc = oracle.accumulator()
        # Three aggregate-mode batches carved from the exact counts.
        first = np.minimum(counts, counts // 3)
        second = np.minimum(counts - first, counts // 3)
        for chunk in (first, second, counts - first - second):
            acc.add_counts(chunk, rng)
        assert acc.n_users == n_users
        tolerance = 6.0 * np.sqrt(oracle.theoretical_variance(n_users)) + 0.01
        np.testing.assert_allclose(acc.estimate(), probabilities, atol=tolerance)

    def test_hadamard_signed_reports_accumulate(self, rng):
        oracle = HadamardRandomizedResponse(2.0, 8)
        values = rng.integers(0, 8, size=4000)
        signs = np.where(rng.random(4000) < 0.5, -1, 1)
        reports = oracle.encode_batch(values, np.random.default_rng(3), signs=signs)
        direct = oracle.accumulator().add(reports).estimate()
        halves = [
            OracleReports(
                payload={key: array[part] for key, array in reports.payload.items()},
                n_users=2000,
            )
            for part in (slice(0, 2000), slice(2000, 4000))
        ]
        first, second = (oracle.accumulator().add(half) for half in halves)
        # The sums of +-1 values are exact, so batching cannot move a bit.
        np.testing.assert_array_equal(first.merge(second).estimate(), direct)
