"""Unit tests for generalized randomized response."""

import numpy as np
import pytest

from repro.exceptions import InvalidQueryError
from repro.frequency_oracles.base import OracleReports
from repro.frequency_oracles.randomized_response import GeneralizedRandomizedResponse


class TestGeneralizedRandomizedResponse:
    def test_probabilities(self):
        oracle = GeneralizedRandomizedResponse(epsilon=1.0, domain_size=8)
        assert oracle.p / oracle.q == pytest.approx(np.exp(1.0))
        assert oracle.p + 7 * oracle.q == pytest.approx(1.0)

    def test_requires_two_items(self):
        with pytest.raises(ValueError):
            GeneralizedRandomizedResponse(epsilon=1.0, domain_size=1)

    def test_encode_single(self, rng):
        oracle = GeneralizedRandomizedResponse(epsilon=1.0, domain_size=5)
        reports = oracle.encode_batch(np.array([2]), rng)
        assert reports.n_users == 1
        assert set(reports.payload) == {"values"}
        assert 0 <= reports.payload["values"][0] < 5

    def test_encode_batch_keep_rate(self, rng):
        oracle = GeneralizedRandomizedResponse(epsilon=np.log(9.0), domain_size=4)
        reports = oracle.encode_batch(np.zeros(20_000, dtype=int), rng)
        keep_rate = (reports.payload["values"] == 0).mean()
        assert keep_rate == pytest.approx(oracle.p, abs=0.02)

    def test_aggregate_unbiased(self, rng):
        domain = 5
        oracle = GeneralizedRandomizedResponse(epsilon=2.0, domain_size=domain)
        true = np.array([0.4, 0.3, 0.2, 0.1, 0.0])
        items = np.repeat(np.arange(domain), (true * 20_000).astype(int))
        estimates = np.mean(
            [oracle.accumulator().add_items(items, rng).estimate() for _ in range(10)], axis=0
        )
        np.testing.assert_allclose(estimates, true, atol=0.03)

    def test_simulate_aggregate_close_to_truth(self, rng):
        domain = 10
        oracle = GeneralizedRandomizedResponse(epsilon=2.0, domain_size=domain)
        counts = rng.multinomial(50_000, np.full(domain, 0.1))
        estimates = oracle.accumulator().add_counts(counts, rng).estimate()
        np.testing.assert_allclose(estimates, counts / counts.sum(), atol=0.05)

    def test_variance_grows_with_domain(self):
        small = GeneralizedRandomizedResponse(epsilon=1.0, domain_size=4)
        large = GeneralizedRandomizedResponse(epsilon=1.0, domain_size=1024)
        assert large.theoretical_variance(1000) > small.theoretical_variance(1000)

    def test_empty_population(self, rng):
        oracle = GeneralizedRandomizedResponse(epsilon=1.0, domain_size=4)
        np.testing.assert_array_equal(
            oracle.accumulator().add_counts(np.zeros(4, dtype=int), rng).estimate(), np.zeros(4)
        )


class TestGeneralizedReportValidation:
    """``add`` accepts only 1-D integral symbols in ``[0, D)``, one per
    user; anything else raises a typed error and leaves the state alone."""

    DOMAIN = 5

    def _loaded_accumulator(self, rng):
        oracle = GeneralizedRandomizedResponse(epsilon=1.0, domain_size=self.DOMAIN)
        accumulator = oracle.accumulator()
        accumulator.add(oracle.encode_batch(rng.integers(0, self.DOMAIN, 40), rng))
        return accumulator

    def _assert_rejected(self, rng, values, n_users=2):
        accumulator = self._loaded_accumulator(rng)
        counts = accumulator.state_dict()["noisy_counts"].copy()
        with pytest.raises(InvalidQueryError):
            accumulator.add(OracleReports(payload={"values": values}, n_users=n_users))
        np.testing.assert_array_equal(accumulator.state_dict()["noisy_counts"], counts)
        assert accumulator.n_users == 40

    def test_value_equal_to_domain(self, rng):
        self._assert_rejected(rng, np.array([0, self.DOMAIN]))

    def test_negative_value(self, rng):
        self._assert_rejected(rng, np.array([-1, 0]))

    def test_fractional_value(self, rng):
        self._assert_rejected(rng, np.array([2.7, 1.0]))

    def test_two_dimensional_values(self, rng):
        self._assert_rejected(rng, np.array([[0], [1]]))

    def test_one_value_per_user(self, rng):
        self._assert_rejected(rng, [0, 1, 2], n_users=2)

    def test_valid_integral_values_are_accepted(self, rng):
        accumulator = self._loaded_accumulator(rng)
        before = accumulator.state_dict()["noisy_counts"].copy()
        accumulator.add(OracleReports(payload={"values": np.array([4.0, 1.0])}, n_users=2))
        expected = before.copy()
        expected[[1, 4]] += 1
        np.testing.assert_array_equal(accumulator.state_dict()["noisy_counts"], expected)
        assert accumulator.n_users == 42
