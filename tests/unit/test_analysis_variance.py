"""Unit tests for the closed-form variance expressions (Section 4)."""

import math

import numpy as np
import pytest

from repro.exceptions import ConfigurationError, InvalidQueryError
from repro.analysis.variance import (
    flat_average_variance,
    flat_range_variance,
    frequency_oracle_variance,
    grid2d_rectangle_variance,
    grid_nd_box_variance,
    haar_range_variance,
    hh_average_variance,
    hh_consistent_range_variance,
    hh_range_variance,
    optimal_branching_factor,
    optimal_branching_factor_consistent,
)


class TestOracleVariance:
    def test_formula(self):
        eps, n = 1.1, 100_000
        expected = 4 * math.exp(eps) / (n * (math.exp(eps) - 1) ** 2)
        assert frequency_oracle_variance(eps, n) == pytest.approx(expected)

    def test_decreases_with_users_and_epsilon(self):
        assert frequency_oracle_variance(1.0, 2000) < frequency_oracle_variance(1.0, 1000)
        assert frequency_oracle_variance(2.0, 1000) < frequency_oracle_variance(1.0, 1000)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            frequency_oracle_variance(1.0, 0)


class TestFlatVariance:
    def test_linear_in_range_length(self):
        base = flat_range_variance(1.0, 1000, 1, 1024)
        assert flat_range_variance(1.0, 1000, 100, 1024) == pytest.approx(100 * base)

    def test_average_formula(self):
        # Lemma 4.2: (D + 2) V_F / 3.
        eps, n, domain = 1.0, 1000, 256
        expected = (domain + 2) * frequency_oracle_variance(eps, n) / 3
        assert flat_average_variance(eps, n, domain) == pytest.approx(expected)

    def test_range_length_validation(self):
        with pytest.raises(InvalidQueryError):
            flat_range_variance(1.0, 1000, 0, 64)
        with pytest.raises(InvalidQueryError):
            flat_range_variance(1.0, 1000, 65, 64)


class TestHierarchicalVariance:
    def test_grows_logarithmically_with_range(self):
        short = hh_range_variance(1.0, 10_000, 4, 1 << 16, 4)
        long = hh_range_variance(1.0, 10_000, 1 << 14, 1 << 16, 4)
        assert long < 20 * short  # logarithmic, not linear, growth

    def test_hh_beats_flat_for_long_ranges_on_large_domains(self):
        eps, n, domain = 1.1, 1 << 20, 1 << 16
        r = 1 << 12
        assert hh_range_variance(eps, n, r, domain, 4) < flat_range_variance(eps, n, r, domain)

    def test_consistency_reduces_the_bound(self):
        eps, n, domain, r = 1.0, 100_000, 1 << 16, 1 << 10
        for branching in (2, 4, 8, 16):
            assert hh_consistent_range_variance(
                eps, n, r, domain, branching
            ) < hh_range_variance(eps, n, r, domain, branching)

    def test_average_variance_formula_positive_and_logarithmic(self):
        small = hh_average_variance(1.0, 10_000, 1 << 10, 4)
        large = hh_average_variance(1.0, 10_000, 1 << 20, 4)
        assert 0 < small < large < 10 * small

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            hh_range_variance(1.0, 1000, 4, 64, 1)


class TestHaarVariance:
    def test_formula(self):
        eps, n, domain = 1.0, 50_000, 1 << 10
        expected = 0.5 * (10.0**2) * frequency_oracle_variance(eps, n)
        assert haar_range_variance(eps, n, domain) == pytest.approx(expected)

    def test_independent_of_range_length_by_construction(self):
        # The bound only takes the domain size; this asserts the paper's
        # qualitative point that Haar error does not scale with r.
        assert haar_range_variance(1.0, 1000, 1024) == haar_range_variance(1.0, 1000, 1024)

    def test_close_to_consistent_hh_for_long_ranges(self):
        # Equation (3) vs equation (2) at r = D, B = 8: the paper notes the
        # two coincide (both are log^2(D) V_F / 2).
        eps, n, domain = 1.1, 1 << 20, 1 << 16
        haar = haar_range_variance(eps, n, domain)
        hh8 = hh_consistent_range_variance(eps, n, domain, domain, 8)
        assert haar == pytest.approx(hh8, rel=0.35)


class TestGrid2DVariance:
    def test_formula_at_single_cell(self):
        eps, n, side, b = 1.0, 50_000, 16, 2
        # r = 1: one run level per axis, 2(B-1) nodes each, h = 4 pairs^0.5.
        expected = 4**2 * (2.0 * (b - 1) * 1) ** 2 * frequency_oracle_variance(eps, n)
        assert grid2d_rectangle_variance(eps, n, 1, side, b) == pytest.approx(expected)

    def test_grows_with_rectangle_size(self):
        eps, n, side, b = 1.0, 50_000, 256, 4
        bounds = [grid2d_rectangle_variance(eps, n, r, side, b) for r in (1, 16, 256)]
        assert bounds[0] < bounds[1] < bounds[2]

    def test_quartic_log_growth_vs_1d(self):
        # 2-D pays (h * per-axis-run-count) squared relative to the 1-D
        # per-axis quantities: the log^4 growth Section 6 sketches.
        eps, n, b = 1.0, 1 << 20, 2
        small = grid2d_rectangle_variance(eps, n, 16, 16, b)
        large = grid2d_rectangle_variance(eps, n, 256, 256, b)
        assert large / small == pytest.approx((8 / 4) ** 4, rel=1e-9)

    def test_validation(self):
        with pytest.raises(InvalidQueryError):
            grid2d_rectangle_variance(1.0, 1000, 0, 16, 2)
        with pytest.raises(InvalidQueryError):
            grid2d_rectangle_variance(1.0, 1000, 17, 16, 2)
        with pytest.raises(ConfigurationError):
            grid2d_rectangle_variance(1.0, 1000, 4, 16, 1)


class TestOptimalBranching:
    def test_without_consistency_near_five(self):
        # Section 4.4: the optimum is ~4.922, so B = 4 or 5.
        assert optimal_branching_factor() == pytest.approx(4.922, abs=0.01)

    def test_with_consistency_near_nine(self):
        # Section 4.5: the optimum is ~9.18 once consistency is applied.
        assert optimal_branching_factor_consistent() == pytest.approx(9.18, abs=0.05)

    def test_consistency_increases_optimal_branching(self):
        assert optimal_branching_factor_consistent() > optimal_branching_factor()


class TestIntegerArguments:
    """The bounds take NumPy integers (a calibration sweep feeds them
    ``np.int64`` lengths) and refuse bools, as the query gate does."""

    def test_numpy_integers_match_python_integers(self):
        assert hh_consistent_range_variance(1.0, 10_000, np.int64(5), 64, 4) == (
            hh_consistent_range_variance(1.0, 10_000, 5, 64, 4)
        )
        assert hh_range_variance(
            1.0, np.int32(10_000), np.uint16(5), np.int64(64), np.int8(4)
        ) == hh_range_variance(1.0, 10_000, 5, 64, 4)
        assert flat_range_variance(1.0, 1000, np.int64(7), 64) == (
            flat_range_variance(1.0, 1000, 7, 64)
        )
        assert grid_nd_box_variance(1.0, 1000, 3, 16, 2, dims=np.int64(3)) == (
            grid_nd_box_variance(1.0, 1000, 3, 16, 2, dims=3)
        )

    @pytest.mark.parametrize("flag", [True, np.bool_(True)])
    def test_bools_are_refused(self, flag):
        with pytest.raises(InvalidQueryError):
            hh_range_variance(1.0, 1000, flag, 64, 4)
        with pytest.raises(ConfigurationError):
            frequency_oracle_variance(1.0, flag)
        with pytest.raises(ConfigurationError):
            grid_nd_box_variance(1.0, 1000, 3, 16, 2, dims=flag)

    @pytest.mark.parametrize("length", [np.int64(0), np.int64(65), np.float64(5.0)])
    def test_out_of_range_or_float_lengths_are_refused(self, length):
        with pytest.raises(InvalidQueryError):
            hh_consistent_range_variance(1.0, 1000, length, 64, 4)
