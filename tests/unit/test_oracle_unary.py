"""Unit tests for the unary-encoding frequency oracles (SUE / OUE)."""

import numpy as np
import pytest

from repro.exceptions import InvalidDomainError, InvalidQueryError
from repro.frequency_oracles import unary as unary_module
from repro.frequency_oracles.base import OracleReports
from repro.frequency_oracles.unary import (
    OptimizedUnaryEncoding,
    SymmetricUnaryEncoding,
    packed_column_sums,
)


def dense(reports):
    """The dense ``{"bits"}`` layout of a packed batch, which nothing in the
    library emits but accumulators accept from outside input."""
    payload = reports.payload
    bits = np.unpackbits(payload["packed_bits"], axis=1, count=payload["n_bits"])
    return OracleReports(payload={"bits": bits}, n_users=reports.n_users)


class TestConfiguration:
    def test_oue_probabilities(self):
        oracle = OptimizedUnaryEncoding(epsilon=np.log(3.0), domain_size=16)
        assert oracle.p == pytest.approx(0.5)
        assert oracle.q == pytest.approx(0.25)

    def test_sue_probabilities(self):
        oracle = SymmetricUnaryEncoding(epsilon=1.0, domain_size=16)
        assert oracle.p + oracle.q == pytest.approx(1.0)

    def test_theoretical_variance_matches_paper_formula(self):
        epsilon = 1.1
        oracle = OptimizedUnaryEncoding(epsilon=epsilon, domain_size=32)
        expected = 4.0 * np.exp(epsilon) / (1000 * (np.exp(epsilon) - 1.0) ** 2)
        assert oracle.theoretical_variance(1000) == pytest.approx(expected)

    def test_invalid_domain(self):
        with pytest.raises(InvalidDomainError):
            OptimizedUnaryEncoding(epsilon=1.0, domain_size=0)


class TestEncoding:
    def test_encode_shape_and_dtype(self, rng):
        oracle = OptimizedUnaryEncoding(epsilon=1.0, domain_size=20)
        reports = oracle.encode_batch(np.array([3]), rng)
        assert reports.n_users == 1
        assert reports.payload["packed_bits"].shape == (1, 3)  # ceil(20 / 8)
        bits = dense(reports).payload["bits"]
        assert bits.shape == (1, 20)
        assert set(np.unique(bits)) <= {0, 1}

    def test_encode_batch_packs_by_default(self, rng):
        oracle = OptimizedUnaryEncoding(epsilon=1.0, domain_size=10)
        reports = oracle.encode_batch(rng.integers(0, 10, size=50), rng)
        assert reports.payload["packed_bits"].shape == (50, 2)  # ceil(10 / 8)
        assert reports.payload["packed_bits"].dtype == np.uint8
        assert reports.payload["n_bits"] == 10
        assert reports.n_users == 50

    def test_dense_layout_is_accepted(self, rng):
        oracle = OptimizedUnaryEncoding(epsilon=1.0, domain_size=10)
        reports = dense(oracle.encode_batch(rng.integers(0, 10, size=50), rng))
        assert reports.payload["bits"].shape == (50, 10)
        assert oracle.accumulator().add(reports).n_users == 50

    def test_encode_rejects_out_of_domain(self, rng):
        oracle = OptimizedUnaryEncoding(epsilon=1.0, domain_size=10)
        with pytest.raises(InvalidQueryError):
            oracle.encode_batch(np.array([10]), rng)
        with pytest.raises(InvalidQueryError):
            oracle.encode_batch(np.array([-1]), rng)
        with pytest.raises(InvalidQueryError):
            oracle.encode_batch(np.array([0, 11]), rng)

    def test_own_bit_distribution(self, rng):
        # The user's own bit must be reported "1" with probability ~p = 0.5.
        oracle = OptimizedUnaryEncoding(epsilon=1.0, domain_size=4)
        reports = dense(oracle.encode_batch(np.zeros(4000, dtype=int), rng))
        own_bit_rate = reports.payload["bits"][:, 0].mean()
        assert own_bit_rate == pytest.approx(oracle.p, abs=0.03)

    def test_other_bit_distribution(self, rng):
        oracle = OptimizedUnaryEncoding(epsilon=1.0, domain_size=4)
        reports = dense(oracle.encode_batch(np.zeros(4000, dtype=int), rng))
        other_bit_rate = reports.payload["bits"][:, 1].mean()
        assert other_bit_rate == pytest.approx(oracle.q, abs=0.03)


class TestPackedReports:
    """The packed and dense layouts are interchangeable, bit for bit."""

    def _paired_reports(self, oracle, n_users=500, seed=17):
        values = np.random.default_rng(3).integers(0, oracle.domain_size, size=n_users)
        packed = oracle.encode_batch(values, np.random.default_rng(seed))
        return packed, dense(packed)

    def test_packed_and_dense_estimates_identical(self):
        oracle = OptimizedUnaryEncoding(epsilon=1.1, domain_size=37)
        packed, unpacked = self._paired_reports(oracle)
        from_packed = oracle.accumulator().add(packed).estimate()
        from_dense = oracle.accumulator().add(unpacked).estimate()
        np.testing.assert_array_equal(from_packed, from_dense)

    def test_mixed_packed_and_dense_batches(self):
        oracle = SymmetricUnaryEncoding(epsilon=1.0, domain_size=12)
        packed, unpacked = self._paired_reports(oracle, n_users=200)
        other = dense(oracle.encode_batch(np.arange(200) % 12, np.random.default_rng(5)))
        mixed = oracle.accumulator().add(packed).add(other).estimate()
        all_dense = oracle.accumulator().add(unpacked).add(other).estimate()
        np.testing.assert_array_equal(mixed, all_dense)

    def test_packed_payload_is_at_least_4x_smaller(self, rng):
        domain = 1024
        oracle = OptimizedUnaryEncoding(epsilon=1.1, domain_size=domain)
        values = rng.integers(0, domain, size=64)
        packed = oracle.encode_batch(values, rng)
        unpacked = dense(packed)
        assert unpacked.payload["bits"].nbytes >= 4 * packed.payload["packed_bits"].nbytes

    def test_block_size_invariance(self, monkeypatch):
        oracle = OptimizedUnaryEncoding(epsilon=1.0, domain_size=50)
        packed, unpacked = self._paired_reports(oracle, n_users=300)
        expected = oracle.accumulator().add(unpacked).estimate()
        for target_bytes in (1, 64, 1 << 20):
            monkeypatch.setattr(
                unary_module, "UNARY_SUM_BLOCK_TARGET_BYTES", target_bytes
            )
            got = oracle.accumulator().add(packed).estimate()
            np.testing.assert_array_equal(got, expected)

    def test_packed_snapshot_round_trip(self):
        from repro import persist

        oracle = OptimizedUnaryEncoding(epsilon=1.2, domain_size=20)
        packed, _ = self._paired_reports(oracle, n_users=150)
        accumulator = oracle.accumulator().add(packed)
        restored = persist.from_bytes(persist.to_bytes(accumulator))
        np.testing.assert_array_equal(restored.estimate(), accumulator.estimate())
        assert restored.n_users == accumulator.n_users

    def test_packed_wrong_width_rejected(self):
        oracle = OptimizedUnaryEncoding(epsilon=1.0, domain_size=32)
        bad = OracleReports(
            payload={"packed_bits": np.zeros((5, 3), dtype=np.uint8), "n_bits": 32},
            n_users=5,
        )
        with pytest.raises(InvalidQueryError):
            oracle.accumulator().add(bad)
        mismatched = OracleReports(
            payload={"packed_bits": np.zeros((5, 4), dtype=np.uint8), "n_bits": 24},
            n_users=5,
        )
        with pytest.raises(InvalidQueryError):
            oracle.accumulator().add(mismatched)

    def test_packed_column_sums_matches_unpacked(self, rng):
        bits = (rng.random((93, 41)) < 0.4).astype(np.uint8)
        packed = np.packbits(bits, axis=1)
        np.testing.assert_array_equal(
            packed_column_sums(packed, 41), bits.sum(axis=0)
        )


class TestAggregation:
    def test_unbiasedness_on_average(self, rng):
        domain = 8
        oracle = OptimizedUnaryEncoding(epsilon=1.5, domain_size=domain)
        true = np.array([0.5, 0.2, 0.1, 0.1, 0.05, 0.05, 0.0, 0.0])
        counts = (true * 20_000).astype(int)
        estimates = np.mean(
            [oracle.accumulator().add_counts(counts, rng).estimate() for _ in range(20)], axis=0
        )
        np.testing.assert_allclose(estimates, true, atol=0.02)

    def test_per_user_and_aggregate_agree_statistically(self, rng):
        domain = 6
        oracle = OptimizedUnaryEncoding(epsilon=1.2, domain_size=domain)
        counts = np.array([4000, 2000, 1000, 500, 400, 100])
        items = np.repeat(np.arange(domain), counts)
        per_user = oracle.accumulator().add_items(items, rng).estimate()
        aggregate = oracle.accumulator().add_counts(counts, rng).estimate()
        # Both are unbiased estimates of the same frequencies with the same
        # variance; they should agree within a few standard deviations.
        tolerance = 6 * np.sqrt(oracle.theoretical_variance(int(counts.sum())))
        np.testing.assert_allclose(per_user, aggregate, atol=tolerance)

    def test_aggregate_validates_report_shape(self):
        from repro.frequency_oracles.base import OracleReports

        oracle = OptimizedUnaryEncoding(epsilon=1.0, domain_size=10)
        with pytest.raises(ValueError):
            oracle.accumulator().add(OracleReports(payload={"bits": np.zeros((5, 3))}, n_users=5))

    def test_empty_population(self, rng):
        oracle = OptimizedUnaryEncoding(epsilon=1.0, domain_size=5)
        estimates = oracle.accumulator().add_counts(np.zeros(5, dtype=int), rng).estimate()
        np.testing.assert_array_equal(estimates, np.zeros(5))

    def test_estimates_sum_close_to_one(self, rng):
        oracle = OptimizedUnaryEncoding(epsilon=2.0, domain_size=64)
        counts = rng.multinomial(100_000, np.full(64, 1 / 64))
        estimates = oracle.accumulator().add_counts(counts, rng).estimate()
        assert estimates.sum() == pytest.approx(1.0, abs=0.1)

    def test_empirical_variance_matches_theory(self, rng):
        # The canonical bound V_F = 4 e^eps / (N (e^eps - 1)^2) is derived for
        # small true frequencies, so measure it on a rare item (f ~ 5%).
        oracle = OptimizedUnaryEncoding(epsilon=1.1, domain_size=4)
        counts = np.array([5000, 3000, 1500, 500])
        n_users = int(counts.sum())
        samples = np.array(
            [oracle.accumulator().add_counts(counts, rng).estimate()[3] for _ in range(300)]
        )
        observed = samples.var()
        expected = oracle.theoretical_variance(n_users)
        assert observed == pytest.approx(expected, rel=0.35)


class TestReportValidation:
    """``add`` rejects out-of-range or non-integral report bits with a typed
    error and leaves the accumulator exactly as it was."""

    DOMAIN = 12

    def _loaded_accumulator(self, rng):
        oracle = OptimizedUnaryEncoding(epsilon=1.0, domain_size=self.DOMAIN)
        accumulator = oracle.accumulator()
        accumulator.add(oracle.encode_batch(rng.integers(0, self.DOMAIN, 50), rng))
        return accumulator

    def _assert_rejected(self, rng, payload, n_users=2):
        accumulator = self._loaded_accumulator(rng)
        ones = accumulator.state_dict()["ones"].copy()
        with pytest.raises(InvalidQueryError):
            accumulator.add(OracleReports(payload=payload, n_users=n_users))
        np.testing.assert_array_equal(accumulator.state_dict()["ones"], ones)
        assert accumulator.n_users == 50

    @pytest.mark.parametrize("bad", [7, -1, 2])
    def test_dense_bit_outside_zero_one(self, rng, bad):
        bits = np.zeros((2, self.DOMAIN), dtype=np.int64)
        bits[1, 3] = bad
        self._assert_rejected(rng, {"bits": bits})

    def test_dense_uint8_bit_of_two(self, rng):
        bits = np.zeros((2, self.DOMAIN), dtype=np.uint8)
        bits[0, 0] = 2
        self._assert_rejected(rng, {"bits": bits})

    def test_dense_float_bits(self, rng):
        self._assert_rejected(rng, {"bits": np.ones((2, self.DOMAIN))})

    @pytest.mark.parametrize("bad", [300.0, -1, 256])
    def test_packed_byte_outside_uint8(self, rng, bad):
        packed = np.zeros((2, 2), dtype=np.asarray(bad).dtype)
        packed[1, 0] = bad
        self._assert_rejected(rng, {"packed_bits": packed, "n_bits": self.DOMAIN})

    def test_packed_float_bytes_in_range(self, rng):
        packed = np.full((2, 2), 3.0)
        self._assert_rejected(rng, {"packed_bits": packed, "n_bits": self.DOMAIN})

    def test_rows_must_match_users(self, rng):
        bits = [[0] * self.DOMAIN] * 3
        self._assert_rejected(rng, {"bits": bits}, n_users=2)

    def test_valid_int_and_bool_rows_are_accepted(self, rng):
        accumulator = self._loaded_accumulator(rng)
        before = accumulator.state_dict()["ones"].copy()
        dense = np.zeros((2, self.DOMAIN), dtype=bool)
        dense[:, 4] = True
        accumulator.add(OracleReports(payload={"bits": dense}, n_users=2))
        packed = np.packbits(dense, axis=1).astype(np.int64)
        accumulator.add(
            OracleReports(payload={"packed_bits": packed, "n_bits": self.DOMAIN}, n_users=2)
        )
        expected = before.copy()
        expected[4] += 4
        np.testing.assert_array_equal(accumulator.state_dict()["ones"], expected)
        assert accumulator.n_users == 54
