"""Unit tests for the OLH frequency oracle and its hash family."""

import numpy as np
import pytest

from repro.exceptions import ConfigurationError, InvalidQueryError
from repro.frequency_oracles.base import OracleReports
from repro.frequency_oracles.local_hashing import (
    _PRIME,
    OptimalLocalHashing,
    UniversalHashFamily,
)


class TestUniversalHashFamily:
    def test_hash_values_in_range(self, rng):
        family = UniversalHashFamily(domain_size=1000, hash_range=8)
        params = family.sample_batch(1, rng)
        a, b = np.repeat(params["a"], 1000), np.repeat(params["b"], 1000)
        values = family.evaluate_pairwise(a, b, np.arange(1000))
        assert values.min() >= 0 and values.max() < 8

    def test_collision_probability_close_to_uniform(self, rng):
        family = UniversalHashFamily(domain_size=64, hash_range=4)
        trials = 3000
        params = family.sample_batch(trials, rng)
        first = family.evaluate_pairwise(params["a"], params["b"], np.full(trials, 3))
        second = family.evaluate_pairwise(params["a"], params["b"], np.full(trials, 47))
        assert (first == second).mean() == pytest.approx(0.25, abs=0.04)

    def test_pairwise_evaluation_matches_single(self, rng):
        family = UniversalHashFamily(domain_size=100, hash_range=6)
        batch = family.sample_batch(50, rng)
        items = rng.integers(0, 100, size=50)
        pairwise = family.evaluate_pairwise(batch["a"], batch["b"], items)
        # Reference: ((a x + b) mod P) mod g in exact Python integers.
        singles = np.array(
            [
                ((int(a) * int(item) + int(b)) % _PRIME) % 6
                for a, b, item in zip(batch["a"], batch["b"], items)
            ]
        )
        np.testing.assert_array_equal(pairwise, singles)

    def test_sampled_parameters_in_range(self, rng):
        params = UniversalHashFamily(domain_size=100, hash_range=6).sample_batch(500, rng)
        assert params["a"].min() >= 1 and params["a"].max() < _PRIME
        assert params["b"].min() >= 0 and params["b"].max() < _PRIME

    def test_rejects_bad_configuration(self):
        with pytest.raises(ConfigurationError):
            UniversalHashFamily(domain_size=10, hash_range=1)


class TestOptimalLocalHashing:
    def test_default_hash_range(self):
        oracle = OptimalLocalHashing(epsilon=np.log(3.0), domain_size=64)
        assert oracle.hash_range == 4  # round(e^eps) + 1 = 3 + 1

    def test_custom_hash_range(self):
        oracle = OptimalLocalHashing(epsilon=1.0, domain_size=64, hash_range=8)
        assert oracle.hash_range == 8
        assert oracle.q == pytest.approx(1.0 / 8.0)

    def test_encode_report_fields(self, rng):
        oracle = OptimalLocalHashing(epsilon=1.0, domain_size=32)
        reports = oracle.encode_batch(np.array([5]), rng)
        assert reports.n_users == 1
        assert set(reports.payload) == {"a", "b", "values"}
        assert 0 <= reports.payload["values"][0] < oracle.hash_range

    def test_full_protocol_unbiasedness(self, rng):
        domain = 16
        oracle = OptimalLocalHashing(epsilon=1.5, domain_size=domain)
        true = np.zeros(domain)
        true[2], true[9] = 0.6, 0.4
        items = np.repeat(np.arange(domain), (true * 5000).astype(int))
        estimates = np.mean(
            [oracle.accumulator().add_items(items, rng).estimate() for _ in range(8)], axis=0
        )
        assert estimates[2] == pytest.approx(0.6, abs=0.08)
        assert estimates[9] == pytest.approx(0.4, abs=0.08)

    def test_simulate_aggregate_close_to_truth(self, rng):
        domain = 64
        oracle = OptimalLocalHashing(epsilon=1.1, domain_size=domain)
        counts = rng.multinomial(200_000, np.full(domain, 1 / domain))
        estimates = oracle.accumulator().add_counts(counts, rng).estimate()
        np.testing.assert_allclose(estimates, counts / counts.sum(), atol=0.02)

    def test_theoretical_variance_matches_oue(self):
        # At the optimal g, OLH and OUE share the same variance formula.
        from repro.frequency_oracles.unary import OptimizedUnaryEncoding

        olh = OptimalLocalHashing(epsilon=1.1, domain_size=100)
        oue = OptimizedUnaryEncoding(epsilon=1.1, domain_size=100)
        assert olh.theoretical_variance(5000) == pytest.approx(
            oue.theoretical_variance(5000), rel=1e-9
        )

    def test_empty_population(self, rng):
        oracle = OptimalLocalHashing(epsilon=1.0, domain_size=8)
        np.testing.assert_array_equal(
            oracle.accumulator().add_counts(np.zeros(8, dtype=int), rng).estimate(), np.zeros(8)
        )


class TestBlockedDecode:
    """The blocked O(N * D) decode is invariant to the block-size knob."""

    def test_estimates_invariant_to_block_size(self, monkeypatch):
        from repro.frequency_oracles import local_hashing as olh_module

        oracle = OptimalLocalHashing(epsilon=1.0, domain_size=40)
        values = np.random.default_rng(11).integers(0, 40, size=333)
        reports = oracle.encode_batch(values, np.random.default_rng(12))
        reference = oracle.accumulator().add(reports).estimate()
        # Targets chosen to force block sizes of 1, a few users, and
        # everything at once (including block boundaries mid-batch).
        for target_bytes in (1, 40 * 9 * 7, 1 << 30):
            monkeypatch.setattr(olh_module, "OLH_DECODE_TARGET_BYTES", target_bytes)
            estimates = oracle.accumulator().add(reports).estimate()
            np.testing.assert_array_equal(estimates, reference)

    def test_decode_target_is_a_module_knob(self):
        from repro.frequency_oracles import local_hashing as olh_module

        assert isinstance(olh_module.OLH_DECODE_TARGET_BYTES, int)
        assert olh_module.OLH_DECODE_TARGET_BYTES > 0


class TestLocalHashingReportValidation:
    """``add`` accepts only one integral ``(a, b, value)`` per user with
    ``a`` in ``[1, P)``, ``b`` in ``[0, P)`` and ``value`` in ``[0, g)``;
    anything else raises a typed error and leaves the state alone."""

    DOMAIN = 6

    def _loaded_accumulator(self, rng):
        oracle = OptimalLocalHashing(epsilon=1.0, domain_size=self.DOMAIN)
        accumulator = oracle.accumulator()
        accumulator.add(oracle.encode_batch(rng.integers(0, self.DOMAIN, 40), rng))
        return accumulator

    def _assert_rejected(self, rng, a=(1, 2), b=(0, 5), values=(0, 1), n_users=2):
        accumulator = self._loaded_accumulator(rng)
        support = accumulator.state_dict()["support"].copy()
        payload = {"a": np.array(a), "b": np.array(b), "values": np.array(values)}
        with pytest.raises(InvalidQueryError):
            accumulator.add(OracleReports(payload=payload, n_users=n_users))
        np.testing.assert_array_equal(accumulator.state_dict()["support"], support)
        assert accumulator.n_users == 40

    def test_zero_multiplier(self, rng):
        self._assert_rejected(rng, a=(0, 2))

    def test_multiplier_equal_to_prime(self, rng):
        self._assert_rejected(rng, a=(1, _PRIME))

    def test_negative_offset(self, rng):
        self._assert_rejected(rng, b=(-1, 0))

    def test_offset_equal_to_prime(self, rng):
        self._assert_rejected(rng, b=(_PRIME, 0))

    def test_value_equal_to_hash_range(self, rng):
        g = OptimalLocalHashing(epsilon=1.0, domain_size=self.DOMAIN).hash_range
        self._assert_rejected(rng, values=(0, g))

    def test_negative_value(self, rng):
        self._assert_rejected(rng, values=(-1, 0))

    def test_fractional_fields(self, rng):
        self._assert_rejected(rng, a=(1.5, 2.0))
        self._assert_rejected(rng, b=(0.0, 0.25))
        self._assert_rejected(rng, values=(0.0, 1.5))

    def test_one_entry_per_user(self, rng):
        self._assert_rejected(rng, a=[[1], [2]])
        self._assert_rejected(rng, values=(0, 1, 1), n_users=2)

    def test_valid_integral_fields_are_accepted(self, rng):
        oracle = OptimalLocalHashing(epsilon=1.0, domain_size=self.DOMAIN)
        payload = {
            "a": np.array([3.0, 7.0]),
            "b": np.array([0.0, 11.0]),
            "values": np.array([1.0, 0.0]),
        }
        as_floats = oracle.accumulator().add(OracleReports(payload=payload, n_users=2))
        as_ints = oracle.accumulator().add(
            OracleReports(payload={k: v.astype(np.int64) for k, v in payload.items()}, n_users=2)
        )
        np.testing.assert_array_equal(
            as_floats.state_dict()["support"], as_ints.state_dict()["support"]
        )
        assert as_floats.n_users == 2
