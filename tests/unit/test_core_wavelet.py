"""Unit tests for the HaarHRR wavelet mechanism."""

import numpy as np
import pytest

from repro.core.wavelet import HaarWaveletMechanism
from repro.exceptions import ConfigurationError, InvalidQueryError, NotFittedError
from repro.frequency_oracles.hadamard import HadamardRandomizedResponse
from repro.transforms.haar import haar_forward


class TestConfiguration:
    def test_geometry(self):
        mechanism = HaarWaveletMechanism(1.0, 256)
        assert mechanism.padded_size == 256
        assert mechanism.height == 8

    def test_padding(self):
        mechanism = HaarWaveletMechanism(1.0, 100)
        assert mechanism.padded_size == 128
        assert mechanism.domain_size == 100

    def test_default_name(self):
        assert HaarWaveletMechanism(1.0, 64).name == "HaarHRR"

    def test_level_probabilities_default_uniform(self):
        mechanism = HaarWaveletMechanism(1.0, 64)
        np.testing.assert_allclose(mechanism.level_probabilities, np.full(6, 1 / 6))

    def test_invalid_level_probabilities(self):
        with pytest.raises(ConfigurationError):
            HaarWaveletMechanism(1.0, 64, level_probabilities=[1.0, 2.0])
        for bad in (float("nan"), float("inf")):
            with pytest.raises(ConfigurationError):
                HaarWaveletMechanism(1.0, 64, level_probabilities=[bad] + [1.0] * 5)


class TestCollection:
    def test_not_fitted(self):
        with pytest.raises(NotFittedError):
            HaarWaveletMechanism(1.0, 64).answer_range(0, 1)
        with pytest.raises(NotFittedError):
            HaarWaveletMechanism(1.0, 64).coefficients()

    def test_scaling_coefficient_is_hardcoded(self, small_counts):
        mechanism = HaarWaveletMechanism(1.0, 64).fit_counts(small_counts, random_state=0)
        assert mechanism.coefficients()[0] == pytest.approx(1.0 / 8.0)

    def test_coefficients_close_to_truth(self, medium_counts):
        domain = medium_counts.shape[0]
        mechanism = HaarWaveletMechanism(1.1, domain).fit_counts(medium_counts, random_state=1)
        true_coefficients = haar_forward(medium_counts / medium_counts.sum())
        estimated = mechanism.coefficients()
        # The low-resolution (high height) coefficients should be accurate.
        np.testing.assert_allclose(estimated[:8], true_coefficients[:8], atol=0.02)

    def test_level_user_counts_partition_population(self, small_counts):
        mechanism = HaarWaveletMechanism(1.0, 64).fit_counts(small_counts, random_state=0)
        assert mechanism.level_user_counts.sum() == small_counts.sum()

    def test_per_user_mode(self, rng):
        items = rng.integers(0, 64, size=5000)
        mechanism = HaarWaveletMechanism(1.5, 64)
        mechanism.fit_items(items, random_state=rng, mode="per_user")
        assert mechanism.is_fitted


class TestAnswers:
    def test_answers_close_to_truth(self, medium_counts):
        domain = medium_counts.shape[0]
        total = medium_counts.sum()
        mechanism = HaarWaveletMechanism(1.1, domain).fit_counts(medium_counts, random_state=2)
        for start, end in [(0, domain - 1), (10, 100), (200, 250)]:
            truth = medium_counts[start : end + 1].sum() / total
            assert mechanism.answer_range(start, end) == pytest.approx(truth, abs=0.05)

    def test_prefix_and_coefficient_paths_agree(self, small_counts):
        mechanism = HaarWaveletMechanism(1.0, 64).fit_counts(small_counts, random_state=0)
        for start, end in [(0, 63), (5, 40), (17, 17), (32, 62)]:
            assert mechanism.answer_range(start, end) == pytest.approx(
                mechanism.answer_range_via_coefficients(start, end), abs=1e-9
            )

    def test_answers_are_additive_by_design(self, small_counts):
        # Orthonormality gives consistency "for free" (Section 4.6).
        mechanism = HaarWaveletMechanism(1.0, 64).fit_counts(small_counts, random_state=0)
        whole = mechanism.answer_range(3, 60)
        split = mechanism.answer_range(3, 30) + mechanism.answer_range(31, 60)
        assert whole == pytest.approx(split, abs=1e-9)

    def test_estimate_cdf_reuses_prefix_bit_exactly(self, small_counts):
        """The CDF is the materialized prefix array, not a re-derivation."""
        mechanism = HaarWaveletMechanism(1.0, 64).fit_counts(small_counts, random_state=0)
        np.testing.assert_array_equal(
            mechanism.estimate_cdf(), np.cumsum(mechanism.estimate_frequencies())
        )
        assert mechanism.estimate_cdf().shape == (64,)

    def test_answer_ranges_vectorised_matches_scalar(self, small_counts):
        mechanism = HaarWaveletMechanism(1.0, 64).fit_counts(small_counts, random_state=0)
        queries = np.array([[0, 5], [3, 3], [10, 63]])
        np.testing.assert_allclose(
            mechanism.answer_ranges(queries),
            [mechanism.answer_range(a, b) for a, b in queries],
        )

    def test_non_power_domain_answers(self, rng):
        counts = rng.multinomial(50_000, np.full(100, 0.01))
        mechanism = HaarWaveletMechanism(1.5, 100).fit_counts(counts, random_state=0)
        truth = counts[20:81].sum() / counts.sum()
        assert mechanism.answer_range(20, 80) == pytest.approx(truth, abs=0.06)

    def test_invalid_query(self, small_counts):
        mechanism = HaarWaveletMechanism(1.0, 64).fit_counts(small_counts, random_state=0)
        with pytest.raises(InvalidQueryError):
            mechanism.answer_range(10, 64)
        with pytest.raises(InvalidQueryError):
            mechanism.answer_range_via_coefficients(10, 64)

    def test_answer_variances_accessor(self, small_counts):
        """Eq. (3) bounds every range; the full domain is answered exactly
        by the known scaling coefficient."""
        mechanism = HaarWaveletMechanism(1.0, 64).fit_counts(small_counts, random_state=0)
        variances = mechanism.answer_variances([[0, 63], [0, 31], [5, 40], [7, 7]])
        assert variances[0] == 0.0
        assert np.all(variances[1:] > 0)
        # [0, 31] is the root block's left half: weight (32 / 64)^2 on
        # level 6's estimate, none elsewhere.
        assert variances[1] == 0.25 * HadamardRandomizedResponse(1.0, 1).theoretical_variance(
            int(mechanism.level_user_counts[5])
        )
