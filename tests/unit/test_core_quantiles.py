"""Unit tests for prefix/CDF/quantile estimation."""

import numpy as np
import pytest

from repro.core.flat import FlatMechanism
from repro.core.hierarchical import HierarchicalHistogramMechanism
from repro.core.quantiles import (
    DECILES,
    estimate_cdf,
    estimate_median,
    estimate_quantiles,
    monotone_cdf,
    quantile_targets,
)
from repro.exceptions import InvalidQueryError


@pytest.fixture
def fitted_mechanism(medium_counts):
    mechanism = HierarchicalHistogramMechanism(1.1, medium_counts.shape[0], branching=4)
    return mechanism.fit_counts(medium_counts, random_state=7)


class TestMonotoneCdf:
    def test_clamps_to_unit_interval(self):
        cdf = monotone_cdf(np.array([-0.1, 0.2, 0.15, 1.3]))
        assert cdf[0] == 0.0
        assert cdf[-1] == 1.0

    def test_monotone(self):
        cdf = monotone_cdf(np.array([0.0, 0.3, 0.2, 0.5, 0.45, 1.0]))
        assert np.all(np.diff(cdf) >= 0)

    def test_rejects_empty(self):
        with pytest.raises(InvalidQueryError):
            monotone_cdf(np.array([]))


class TestEstimateCdf:
    def test_shape_and_monotonicity(self, fitted_mechanism):
        cdf = estimate_cdf(fitted_mechanism)
        assert cdf.shape == (fitted_mechanism.domain_size,)
        assert np.all(np.diff(cdf) >= 0)
        assert cdf[-1] == pytest.approx(1.0, abs=0.05)

    def test_raw_option(self, fitted_mechanism):
        raw = estimate_cdf(fitted_mechanism, monotone=False)
        assert raw.shape == (fitted_mechanism.domain_size,)

    def test_close_to_true_cdf(self, fitted_mechanism, medium_counts):
        cdf = estimate_cdf(fitted_mechanism)
        truth = np.cumsum(medium_counts) / medium_counts.sum()
        assert np.max(np.abs(cdf - truth)) < 0.1


class TestQuantiles:
    def test_deciles_constant(self):
        assert DECILES == (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9)

    def test_quantiles_are_sorted_items(self, fitted_mechanism):
        quantiles = estimate_quantiles(fitted_mechanism, DECILES)
        assert len(quantiles) == 9
        assert quantiles == sorted(quantiles)
        assert all(0 <= q < fitted_mechanism.domain_size for q in quantiles)

    def test_quantiles_close_to_truth(self, fitted_mechanism, medium_counts):
        cdf = np.cumsum(medium_counts) / medium_counts.sum()
        true_deciles = np.searchsorted(cdf, DECILES, side="left")
        estimated = estimate_quantiles(fitted_mechanism, DECILES)
        assert np.max(np.abs(np.asarray(estimated) - true_deciles)) < 30

    def test_median_helper(self, fitted_mechanism):
        median = estimate_median(fitted_mechanism)
        assert median == estimate_quantiles(fitted_mechanism, (0.5,))[0]

    def test_invalid_targets(self, fitted_mechanism):
        with pytest.raises(InvalidQueryError):
            estimate_quantiles(fitted_mechanism, (1.5,))

    @pytest.mark.parametrize(
        "targets",
        [["0.5"], [True], [np.bool_(False)], [0.5, "0.9"], "0.5", [None], [[0.5]], 0.5, [10**400]],
        ids=["str", "bool", "numpy-bool", "mixed", "bare-str", "none", "nested", "scalar", "huge"],
    )
    def test_non_numeric_targets_are_refused(self, fitted_mechanism, targets):
        """``float("0.5")`` and ``float(True)`` used to answer a string
        target as 0.5 and a bool as 1.0 (``[17]`` and ``[63]`` on a
        D = 64 ``hhc_4``)."""
        with pytest.raises(InvalidQueryError):
            fitted_mechanism.quantiles(targets)
        with pytest.raises(InvalidQueryError):
            estimate_quantiles(fitted_mechanism, targets)

    def test_integer_and_numpy_targets_pass(self, fitted_mechanism):
        expected = estimate_quantiles(fitted_mechanism, (0.0, 1.0, 0.5))
        assert fitted_mechanism.quantiles([0, 1, np.float32(0.5)]) == expected
        assert quantile_targets(np.array([0, 1])) == [0.0, 1.0]

    def test_binary_search_quantile_matches_cdf_quantile(self, medium_counts):
        # The base-class binary search over prefix queries and the batched
        # CDF-based search must agree for monotone mechanisms like FlatOUE
        # run at a generous budget.
        domain = medium_counts.shape[0]
        mechanism = FlatMechanism(3.0, domain).fit_counts(medium_counts, random_state=3)
        batched = estimate_quantiles(mechanism, (0.5,))[0]
        single = mechanism.quantile(0.5)
        assert abs(batched - single) <= 3

    def test_quantile_agrees_with_batched_path_under_noise(self, medium_counts):
        # Regression: `quantile` used to binary-search the raw noisy prefix
        # estimates, which are non-monotone at tight budgets, so its answers
        # could disagree with `estimate_quantiles` for the same target.
        # Both now share the monotone-CDF reconstruction and agree exactly.
        domain = medium_counts.shape[0]
        mechanism = FlatMechanism(0.2, domain).fit_counts(medium_counts, random_state=11)
        raw_cdf = mechanism.estimate_cdf()
        assert np.any(np.diff(raw_cdf) < 0)  # the budget really is noisy
        for target in (0.1, 0.25, 0.5, 0.75, 0.9):
            assert mechanism.quantile(target) == estimate_quantiles(mechanism, (target,))[0]
        assert mechanism.quantiles(DECILES) == estimate_quantiles(mechanism, DECILES)
