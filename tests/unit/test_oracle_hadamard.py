"""Unit tests for the Hadamard Randomized Response oracle."""

import numpy as np
import pytest

from repro.exceptions import InvalidQueryError
from repro.frequency_oracles.hadamard import HadamardRandomizedResponse


class TestConfiguration:
    def test_keep_probability(self):
        oracle = HadamardRandomizedResponse(epsilon=np.log(3.0), domain_size=16)
        assert oracle.keep_probability == pytest.approx(0.75)
        assert oracle.unbiasing_factor == pytest.approx(0.5)

    def test_padding_for_non_power_of_two(self):
        oracle = HadamardRandomizedResponse(epsilon=1.0, domain_size=100)
        assert oracle.padded_size == 128
        assert oracle.domain_size == 100

    def test_variance_formula(self):
        # Every report is +-1 / (2p - 1) whichever index it sampled, so a
        # zero-frequency item's estimate has variance ((e^eps + 1) /
        # (e^eps - 1))^2 / N: 1 / N above OUE's 4 e^eps / (N (e^eps - 1)^2).
        epsilon = 1.1
        oracle = HadamardRandomizedResponse(epsilon=epsilon, domain_size=64)
        expected = ((np.exp(epsilon) + 1) / (np.exp(epsilon) - 1)) ** 2 / 1000
        assert oracle.theoretical_variance(1000) == pytest.approx(expected)
        oue_variance = 4 * np.exp(epsilon) / (1000 * (np.exp(epsilon) - 1) ** 2)
        assert oracle.theoretical_variance(1000) == pytest.approx(oue_variance + 1 / 1000)


class TestEncoding:
    def test_report_fields(self, rng):
        oracle = HadamardRandomizedResponse(epsilon=1.0, domain_size=16)
        reports = oracle.encode_batch(np.array([3]), rng)
        assert reports.n_users == 1
        assert 0 <= reports.payload["indices"][0] < 16
        assert reports.payload["values"][0] in (-1, 1)

    def test_signed_encoding(self, rng):
        oracle = HadamardRandomizedResponse(epsilon=1.0, domain_size=16)
        reports = oracle.encode_batch(np.array([3]), rng, signs=np.array([-1]))
        assert reports.payload["values"][0] in (-1, 1)
        with pytest.raises(InvalidQueryError):
            oracle.encode_batch(np.array([3]), rng, signs=np.array([0]))

    def test_batch_shapes(self, rng):
        oracle = HadamardRandomizedResponse(epsilon=1.0, domain_size=32)
        reports = oracle.encode_batch(rng.integers(0, 32, size=100), rng)
        assert reports.payload["indices"].shape == (100,)
        assert reports.payload["values"].shape == (100,)
        assert set(np.unique(reports.payload["values"])) <= {-1, 1}

    def test_batch_signs_validation(self, rng):
        oracle = HadamardRandomizedResponse(epsilon=1.0, domain_size=8)
        values = np.zeros(4, dtype=int)
        with pytest.raises(InvalidQueryError):
            oracle.encode_batch(values, rng, signs=np.array([1, 1]))
        with pytest.raises(InvalidQueryError):
            oracle.encode_batch(values, rng, signs=np.array([1, 0, 1, 1]))

    def test_coefficient_flip_rate(self, rng):
        # With item 0 every Hadamard coefficient is +1, so the fraction of
        # -1 reports equals the flip probability 1 - p.
        oracle = HadamardRandomizedResponse(epsilon=np.log(3.0), domain_size=8)
        reports = oracle.encode_batch(np.zeros(20_000, dtype=int), rng)
        flip_rate = (reports.payload["values"] == -1).mean()
        assert flip_rate == pytest.approx(0.25, abs=0.02)


class TestAggregation:
    def test_unbiasedness_on_average(self, rng):
        domain = 8
        oracle = HadamardRandomizedResponse(epsilon=2.0, domain_size=domain)
        true = np.array([0.35, 0.25, 0.15, 0.1, 0.05, 0.05, 0.03, 0.02])
        counts = (true * 40_000).astype(int)
        estimates = np.mean(
            [oracle.accumulator().add_counts(counts, rng).estimate() for _ in range(15)], axis=0
        )
        np.testing.assert_allclose(estimates, counts / counts.sum(), atol=0.02)

    def test_signed_population_estimates(self, rng):
        # Half the users hold +e_1 and half hold -e_1: the signed mean
        # should be close to zero at position 1 and zero elsewhere.
        domain = 8
        oracle = HadamardRandomizedResponse(epsilon=2.0, domain_size=domain)
        values = np.ones(40_000, dtype=int)
        signs = np.where(np.arange(40_000) % 2 == 0, 1, -1)
        reports = oracle.encode_batch(values, rng, signs=signs)
        estimates = oracle.accumulator().add(reports).estimate()
        np.testing.assert_allclose(estimates, np.zeros(domain), atol=0.05)

    def test_padded_domain_estimates_have_original_length(self, rng):
        oracle = HadamardRandomizedResponse(epsilon=1.0, domain_size=10)
        counts = np.full(10, 1000)
        estimates = oracle.accumulator().add_counts(counts, rng).estimate()
        assert estimates.shape == (10,)

    def test_empty_population(self):
        from repro.frequency_oracles.base import OracleReports

        oracle = HadamardRandomizedResponse(epsilon=1.0, domain_size=8)
        reports = OracleReports(
            payload={"indices": np.array([], dtype=int), "values": np.array([], dtype=int)},
            n_users=0,
        )
        np.testing.assert_array_equal(oracle.accumulator().add(reports).estimate(), np.zeros(8))

    def test_empirical_variance_matches_theory(self, rng):
        # With the counts fixed, user u adds phi[v][j_u] y_u / (2p - 1) to
        # item v's estimate: its square is always 1 / (2p - 1)^2 and its
        # mean is [u holds v], so item v's exact variance is
        # (1 / (2p - 1)^2 - f_v) / N.  The sample variance of R draws has
        # a relative SE of sqrt(2 / (R - 1)).
        oracle = HadamardRandomizedResponse(epsilon=1.1, domain_size=8)
        counts = np.array([4000, 2000, 1000, 800, 700, 600, 500, 400])
        n_users = int(counts.sum())
        draws = 1000
        samples = np.array(
            [oracle.accumulator().add_counts(counts, rng).estimate() for _ in range(draws)]
        )
        exact = (1.0 / oracle.unbiasing_factor**2 - counts / n_users) / n_users
        relative_error = samples.var(axis=0, ddof=1) / exact - 1.0
        assert np.all(np.abs(relative_error) <= 4.0 * np.sqrt(2.0 / (draws - 1)))


class TestReportValidation:
    """``add`` rejects malformed reports with a typed error and leaves the
    accumulator exactly as it was."""

    @staticmethod
    def _loaded_accumulator(rng):
        oracle = HadamardRandomizedResponse(epsilon=1.0, domain_size=6)
        accumulator = oracle.accumulator()
        accumulator.add(oracle.encode_batch(rng.integers(0, 6, 100), rng))
        return accumulator

    @staticmethod
    def _reports(indices, values):
        from repro.frequency_oracles.base import OracleReports

        return OracleReports(
            payload={"indices": np.asarray(indices), "values": np.asarray(values)},
            n_users=len(indices),
        )

    def _assert_rejected(self, rng, indices, values):
        accumulator = self._loaded_accumulator(rng)
        sums = accumulator.state_dict()["sums"]
        with pytest.raises(InvalidQueryError):
            accumulator.add(self._reports(indices, values))
        np.testing.assert_array_equal(accumulator.state_dict()["sums"], sums)
        assert accumulator.n_users == 100

    def test_negative_index(self, rng):
        self._assert_rejected(rng, [0, -1], [1, 1])

    def test_index_equal_to_padded_size(self, rng):
        # domain 6 pads to 8: index 8 is one past the last coefficient.
        self._assert_rejected(rng, [0, 8], [1, -1])

    def test_value_outside_plus_minus_one(self, rng):
        self._assert_rejected(rng, [0, 1], [1, 7])

    def test_zero_value(self, rng):
        self._assert_rejected(rng, [0, 1], [0, 1])

    def test_fractional_index(self, rng):
        self._assert_rejected(rng, [0.0, 2.5], [1, 1])

    def test_non_finite_index(self, rng):
        self._assert_rejected(rng, [0.0, np.nan], [1, 1])

    def test_mismatched_lengths(self, rng):
        from repro.frequency_oracles.base import OracleReports

        accumulator = self._loaded_accumulator(rng)
        reports = OracleReports(payload={"indices": [0, 1, 2], "values": [1, 1]}, n_users=2)
        with pytest.raises(InvalidQueryError):
            accumulator.add(reports)
        assert accumulator.n_users == 100

    def test_valid_float_reports_are_accepted(self, rng):
        # JSON-decoded reports may arrive as floats; integral ones are fine.
        accumulator = self._loaded_accumulator(rng)
        before = accumulator.state_dict()["sums"]
        accumulator.add(self._reports([3.0, 7.0], [1.0, -1.0]))
        expected = before.copy()
        expected[3] += 1
        expected[7] -= 1
        np.testing.assert_array_equal(accumulator.state_dict()["sums"], expected)
        assert accumulator.n_users == 102


def assert_same_moments(first: np.ndarray, second: np.ndarray, z: float = 4.0) -> None:
    """Every column of two independent sample sets: equal means and equal
    variances within ``z`` standard errors of the difference."""
    draws = first.shape[0]
    mean_gap = first.mean(axis=0) - second.mean(axis=0)
    mean_se = np.sqrt((first.var(axis=0, ddof=1) + second.var(axis=0, ddof=1)) / draws)
    assert np.all(np.abs(mean_gap) <= z * mean_se)
    first_squares = (first - first.mean(axis=0)) ** 2
    second_squares = (second - second.mean(axis=0)) ** 2
    variance_gap = first_squares.mean(axis=0) - second_squares.mean(axis=0)
    variance_se = np.sqrt(
        (first_squares.var(axis=0, ddof=1) + second_squares.var(axis=0, ddof=1)) / draws
    )
    assert np.all(np.abs(variance_gap) <= z * variance_se)


def coefficient_sums(accumulator) -> np.ndarray:
    return accumulator.state_dict()["sums"]


class TestAggregateMatchesPerUser:
    @pytest.mark.parametrize(
        "scale, count_space", [(1, False), (60, True)], ids=["index_per_user", "count_space"]
    )
    def test_coefficient_sums_match_per_user_path(self, scale, count_space):
        # Flat HRR over a padded domain (D = 5, D' = 8): aggregate mode
        # (``add_counts``) and per-user mode (``add_items``: one index and
        # one flip per user) over disjoint seed sets.  400 users take the
        # aggregate per-user index draw, 24,000 the count-space sampler.
        oracle = HadamardRandomizedResponse(epsilon=1.1, domain_size=5)
        counts = np.array([200, 0, 100, 60, 40]) * scale
        assert (counts.sum() >= oracle._count_space_min_users) == count_space
        items = np.repeat(np.arange(5), counts)
        draws = 500
        aggregate = np.array(
            [coefficient_sums(oracle.accumulator().add_counts(counts, seed)) for seed in range(draws)]
        )
        per_user = np.array(
            [
                coefficient_sums(oracle.accumulator().add_items(items, seed))
                for seed in range(draws, 2 * draws)
            ]
        )
        assert_same_moments(aggregate, per_user)


class TestRunExpansion:
    """``add_runs`` draws each user's index (or, for a large batch,
    samples the indices in count space) and one binomial flip count per
    (index, sign) cell: the same distribution as encoding every user."""

    def test_runs_match_expanded_encode_batch(self):
        oracle = HadamardRandomizedResponse(epsilon=1.0, domain_size=16)
        values = np.array([0, 3, 3, 9])
        counts = np.array([50, 0, 70, 20])
        signs = np.array([1, -1, -1, 1])
        users, user_signs = np.repeat(values, counts), np.repeat(signs, counts)
        draws = 400
        via_runs = np.array(
            [
                coefficient_sums(oracle.accumulator().add_runs(values, counts, seed, signs=signs))
                for seed in range(draws)
            ]
        )
        via_batch = np.array(
            [
                coefficient_sums(
                    oracle.accumulator().add(oracle.encode_batch(users, seed, signs=user_signs))
                )
                for seed in range(draws, 2 * draws)
            ]
        )
        assert_same_moments(via_runs, via_batch)
        assert oracle.accumulator().add_runs(values, counts, 0, signs=signs).n_users == 140

    @pytest.mark.parametrize(
        "values, counts, signs",
        [
            ([0, 16], [1, 1], None),
            ([0, 1], [1, -1], None),
            ([0, 1], [1], None),
            ([0, 1], [1, 1], [1, 0]),
        ],
    )
    def test_invalid_runs_are_rejected(self, values, counts, signs):
        accumulator = HadamardRandomizedResponse(epsilon=1.0, domain_size=16).accumulator()
        with pytest.raises(InvalidQueryError):
            accumulator.add_runs(np.array(values), np.array(counts), 0, signs=signs)
        assert accumulator.n_users == 0
