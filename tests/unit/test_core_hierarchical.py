"""Unit tests for the hierarchical histogram mechanism."""

import numpy as np
import pytest

from repro.core.hierarchical import HierarchicalHistogramMechanism
from repro.exceptions import ConfigurationError, InvalidQueryError, NotFittedError


class TestConfiguration:
    def test_default_name_encodes_variant(self):
        assert HierarchicalHistogramMechanism(1.0, 64).name == "TreeOUECI_B4"
        assert (
            HierarchicalHistogramMechanism(1.0, 64, branching=8, oracle="hrr", consistency=False).name
            == "TreeHRR_B8"
        )

    def test_tree_geometry(self):
        mechanism = HierarchicalHistogramMechanism(1.0, 256, branching=4)
        assert mechanism.tree.height == 4
        assert mechanism.branching == 4

    def test_level_probabilities_default_uniform(self):
        mechanism = HierarchicalHistogramMechanism(1.0, 256, branching=2)
        np.testing.assert_allclose(mechanism.level_probabilities, np.full(8, 1 / 8))

    def test_custom_level_probabilities_normalised(self):
        mechanism = HierarchicalHistogramMechanism(
            1.0, 16, branching=4, level_probabilities=[1.0, 3.0]
        )
        np.testing.assert_allclose(mechanism.level_probabilities, [0.25, 0.75])

    def test_invalid_level_probabilities(self):
        with pytest.raises(ConfigurationError):
            HierarchicalHistogramMechanism(1.0, 16, branching=4, level_probabilities=[1.0])
        with pytest.raises(ConfigurationError):
            HierarchicalHistogramMechanism(
                1.0, 16, branching=4, level_probabilities=[-1.0, 2.0]
            )
        for bad in ([float("nan"), 1.0], [float("inf"), 1.0]):
            with pytest.raises(ConfigurationError):
                HierarchicalHistogramMechanism(1.0, 16, branching=4, level_probabilities=bad)

    def test_invalid_budget_strategy(self):
        with pytest.raises(ConfigurationError):
            HierarchicalHistogramMechanism(1.0, 16, budget_strategy="other")

    def test_splitting_strategy_divides_epsilon(self):
        mechanism = HierarchicalHistogramMechanism(
            1.2, 64, branching=4, budget_strategy="splitting"
        )
        # Every per-level oracle runs with eps / h = 1.2 / 3.
        assert mechanism._oracles[1].epsilon == pytest.approx(0.4)


class TestCollection:
    def test_not_fitted(self):
        with pytest.raises(NotFittedError):
            HierarchicalHistogramMechanism(1.0, 64).answer_range(0, 3)

    def test_level_estimates_shapes(self, small_counts):
        mechanism = HierarchicalHistogramMechanism(1.0, 64, branching=4)
        mechanism.fit_counts(small_counts, random_state=0)
        levels = mechanism.level_estimates()
        assert [level.shape[0] for level in levels] == [4, 16, 64]

    def test_level_user_counts_partition_population(self, small_counts):
        mechanism = HierarchicalHistogramMechanism(1.0, 64, branching=4)
        mechanism.fit_counts(small_counts, random_state=0)
        assert mechanism.level_user_counts.sum() == small_counts.sum()

    def test_consistency_makes_levels_additive(self, small_counts):
        mechanism = HierarchicalHistogramMechanism(1.0, 64, branching=4, consistency=True)
        mechanism.fit_counts(small_counts, random_state=0)
        levels = mechanism.level_estimates()
        for depth in range(len(levels) - 1):
            parents = levels[depth]
            child_sums = levels[depth + 1].reshape(-1, 4).sum(axis=1)
            np.testing.assert_allclose(parents, child_sums, atol=1e-10)
        assert levels[0].sum() == pytest.approx(1.0)

    def test_raw_estimates_available(self, small_counts):
        mechanism = HierarchicalHistogramMechanism(1.0, 64, branching=4, consistency=True)
        mechanism.fit_counts(small_counts, random_state=0)
        raw = mechanism.level_estimates(raw=True)
        adjusted = mechanism.level_estimates()
        assert any(
            not np.allclose(r, a) for r, a in zip(raw, adjusted)
        ), "consistency should change at least one level"

    def test_per_user_mode_runs(self, rng):
        items = rng.integers(0, 64, size=5000)
        mechanism = HierarchicalHistogramMechanism(1.5, 64, branching=4)
        mechanism.fit_items(items, random_state=rng, mode="per_user")
        assert mechanism.is_fitted

    def test_splitting_strategy_runs_both_modes(self, rng, small_counts):
        mechanism = HierarchicalHistogramMechanism(
            1.0, 64, branching=4, budget_strategy="splitting"
        )
        mechanism.fit_counts(small_counts, random_state=rng)
        assert mechanism.is_fitted
        items = rng.integers(0, 64, size=1000)
        mechanism2 = HierarchicalHistogramMechanism(
            1.0, 64, branching=4, budget_strategy="splitting"
        )
        mechanism2.fit_items(items, random_state=rng, mode="per_user")
        assert mechanism2.is_fitted


class TestAnswers:
    def test_consistent_answers_are_additive(self, medium_counts):
        # With consistency, answering [a, c] must equal [a, b] + [b+1, c]
        # regardless of how the B-adic decompositions differ.
        domain = medium_counts.shape[0]
        mechanism = HierarchicalHistogramMechanism(1.1, domain, branching=4, consistency=True)
        mechanism.fit_counts(medium_counts, random_state=1)
        whole = mechanism.answer_range(10, 200)
        split = mechanism.answer_range(10, 99) + mechanism.answer_range(100, 200)
        assert whole == pytest.approx(split, abs=1e-9)

    def test_answers_close_to_truth(self, medium_counts):
        domain = medium_counts.shape[0]
        total = medium_counts.sum()
        mechanism = HierarchicalHistogramMechanism(1.1, domain, branching=4)
        mechanism.fit_counts(medium_counts, random_state=2)
        for start, end in [(0, 255), (10, 100), (128, 200)]:
            truth = medium_counts[start : end + 1].sum() / total
            assert mechanism.answer_range(start, end) == pytest.approx(truth, abs=0.05)

    @pytest.mark.parametrize("domain", [256, 100])  # exact and padded trees
    def test_estimate_cdf_reuses_leaf_prefix_bit_exactly(self, domain):
        """The CDF slices the materialized leaf prefix sums — identical to
        cumsum(frequencies) even when the tree pads the domain."""
        counts = np.random.default_rng(0).integers(0, 50, size=domain)
        mechanism = HierarchicalHistogramMechanism(
            1.1, domain, branching=4, consistency=True
        ).fit_counts(counts, random_state=1)
        np.testing.assert_array_equal(
            mechanism.estimate_cdf(), np.cumsum(mechanism.estimate_frequencies())
        )
        assert mechanism.estimate_cdf().shape == (domain,)

    def test_full_domain_is_one_with_consistency(self, medium_counts):
        domain = medium_counts.shape[0]
        mechanism = HierarchicalHistogramMechanism(1.0, domain, branching=4, consistency=True)
        mechanism.fit_counts(medium_counts, random_state=0)
        assert mechanism.answer_range(0, domain - 1) == pytest.approx(1.0, abs=1e-9)

    def test_vectorised_answers_match_scalar_with_consistency(self, medium_counts):
        domain = medium_counts.shape[0]
        mechanism = HierarchicalHistogramMechanism(1.0, domain, branching=4, consistency=True)
        mechanism.fit_counts(medium_counts, random_state=5)
        queries = np.array([[0, 255], [3, 3], [17, 200], [100, 130]])
        np.testing.assert_allclose(
            mechanism.answer_ranges(queries),
            [mechanism.answer_range(a, b) for a, b in queries],
            atol=1e-10,
        )

    def test_vectorised_answers_match_scalar_without_consistency(self, medium_counts):
        domain = medium_counts.shape[0]
        mechanism = HierarchicalHistogramMechanism(1.0, domain, branching=4, consistency=False)
        mechanism.fit_counts(medium_counts, random_state=5)
        queries = np.array([[0, 255], [3, 3], [17, 200]])
        np.testing.assert_allclose(
            mechanism.answer_ranges(queries),
            [mechanism.answer_range(a, b) for a, b in queries],
            atol=1e-10,
        )

    @pytest.mark.parametrize("branching,domain", [(2, 256), (3, 100), (4, 256), (7, 200)])
    def test_batched_badic_matches_per_query_decomposition(self, rng, branching, domain):
        # The batched evaluation must reproduce the per-query B-adic
        # decomposition exactly, for every branching factor, padded and
        # non-padded domains, and every query shape (single items, aligned
        # blocks, the full domain, ...).
        counts = rng.multinomial(50_000, np.full(domain, 1.0 / domain))
        mechanism = HierarchicalHistogramMechanism(
            1.0, domain, branching=branching, consistency=False
        )
        mechanism.fit_counts(counts, random_state=7)
        endpoints = rng.integers(0, domain, size=(400, 2))
        queries = np.sort(endpoints, axis=1)
        special = np.array(
            [[0, domain - 1], [0, 0], [domain - 1, domain - 1], [0, domain // 2]]
        )
        queries = np.concatenate([queries, special])
        np.testing.assert_allclose(
            mechanism.answer_ranges(queries),
            [mechanism._answer_range(int(a), int(b)) for a, b in queries],
            atol=1e-10,
        )

    def test_estimate_frequencies_length(self, small_counts):
        mechanism = HierarchicalHistogramMechanism(1.0, 64, branching=4)
        mechanism.fit_counts(small_counts, random_state=0)
        assert mechanism.estimate_frequencies().shape == (64,)

    def test_non_power_domain(self, rng):
        counts = rng.multinomial(20_000, np.full(100, 0.01))
        mechanism = HierarchicalHistogramMechanism(1.5, 100, branching=4)
        mechanism.fit_counts(counts, random_state=0)
        truth = counts[:50].sum() / counts.sum()
        assert mechanism.answer_range(0, 49) == pytest.approx(truth, abs=0.08)

    def test_invalid_query(self, small_counts):
        mechanism = HierarchicalHistogramMechanism(1.0, 64)
        mechanism.fit_counts(small_counts, random_state=0)
        with pytest.raises(InvalidQueryError):
            mechanism.answer_range(0, 64)

    def test_variance_bound_accessor(self, small_counts):
        mechanism = HierarchicalHistogramMechanism(1.0, 64, branching=4)
        mechanism.fit_counts(small_counts, random_state=0)
        assert mechanism.per_query_variance_bound(16) > 0

    def test_oracle_choice_changes_primitives(self, small_counts):
        hrr = HierarchicalHistogramMechanism(1.0, 64, branching=4, oracle="hrr")
        hrr.fit_counts(small_counts, random_state=0)
        olh = HierarchicalHistogramMechanism(1.0, 64, branching=4, oracle="olh")
        olh.fit_counts(small_counts, random_state=0)
        assert hrr.is_fitted and olh.is_fitted
