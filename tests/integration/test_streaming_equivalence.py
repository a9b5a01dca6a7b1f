"""Distributional equivalence of streaming collection with one-shot fits.

The accumulator design promises that *how* a population is collected —
one shot, in batches, or across shards — is invisible to the estimates'
distribution.  These tests check that promise statistically with seeded
repetitions: matching means (unbiasedness towards the true frequencies)
and matching variances between the collection styles.
"""

import numpy as np
import pytest

from repro.core.factory import mechanism_from_spec
from repro.data.synthetic import cauchy_probabilities, expected_counts, sample_items
from repro.data.workloads import random_range_queries
from repro.streaming import ShardedCollector

DOMAIN = 128
N_USERS = 40_000
EPSILON = 1.5


@pytest.fixture(scope="module")
def population():
    items = sample_items(cauchy_probabilities(DOMAIN), N_USERS, random_state=11)
    counts = np.bincount(items, minlength=DOMAIN)
    return items, counts


def _item_of_interest(counts):
    return int(np.argmax(counts))


class TestPartialFitDistribution:
    @pytest.mark.parametrize("spec", ["flat_oue", "hhc_4", "haar"])
    def test_mean_and_variance_match_one_shot(self, spec, population):
        """Seeded repetitions: batched fits track one-shot mean and spread."""
        items, counts = population
        item = _item_of_interest(counts)
        truth = counts[item] / counts.sum()
        repetitions = 40
        one_shot, batched = [], []
        for repetition in range(repetitions):
            mechanism = mechanism_from_spec(spec, epsilon=EPSILON, domain_size=DOMAIN)
            mechanism.fit_items(items, random_state=1000 + repetition)
            one_shot.append(mechanism.estimate_frequencies()[item])

            mechanism = mechanism_from_spec(spec, epsilon=EPSILON, domain_size=DOMAIN)
            stream = np.random.default_rng(5000 + repetition)
            for batch in np.array_split(items, 6):
                mechanism.partial_fit(batch, random_state=stream)
            batched.append(mechanism.estimate_frequencies()[item])
        one_shot, batched = np.asarray(one_shot), np.asarray(batched)

        # Unbiasedness: both collection styles centre on the truth.
        standard_error = one_shot.std() / np.sqrt(repetitions)
        assert abs(one_shot.mean() - truth) < 5 * standard_error + 1e-4
        assert abs(batched.mean() - truth) < 5 * standard_error + 1e-4
        # Equal spread: the variance ratio stays within sampling noise.
        ratio = batched.var() / max(one_shot.var(), 1e-12)
        assert 0.35 < ratio < 1 / 0.35

    def test_aggregate_mode_thinning_is_additive(self, population):
        """HH level partitioning over batches still covers every user once."""
        items, _ = population
        mechanism = mechanism_from_spec("hhc_4", epsilon=EPSILON, domain_size=DOMAIN)
        stream = np.random.default_rng(3)
        for batch in np.array_split(items, 5):
            mechanism.partial_fit(batch, random_state=stream)
        assert int(mechanism.level_user_counts.sum()) == items.size


class TestShardCountInvariance:
    def test_estimates_match_one_shot_across_shard_counts(self, population):
        """Fixed seed per configuration: workload MSE does not grow with K."""
        items, counts = population
        workload = random_range_queries(DOMAIN, 500, random_state=17)
        truth = workload.true_answers(counts)

        def workload_mse(mechanism):
            return float(np.mean((mechanism.answer_workload(workload) - truth) ** 2))

        repetitions = 12
        errors = {0: [], 1: [], 4: [], 8: []}
        for repetition in range(repetitions):
            mechanism = mechanism_from_spec("hhc_4", epsilon=EPSILON, domain_size=DOMAIN)
            mechanism.fit_items(items, random_state=300 + repetition)
            errors[0].append(workload_mse(mechanism))
            for n_shards in (1, 4, 8):
                collector = ShardedCollector(
                    "hhc_4",
                    epsilon=EPSILON,
                    domain_size=DOMAIN,
                    n_shards=n_shards,
                    random_state=700 + 13 * repetition + n_shards,
                )
                collector.extend(np.array_split(items, 2 * n_shards))
                errors[n_shards].append(workload_mse(collector.reduce()))

        means = {key: float(np.mean(value)) for key, value in errors.items()}
        baseline = means[0]
        for n_shards in (1, 4, 8):
            assert means[n_shards] < 2.0 * baseline
            assert means[n_shards] > 0.5 * baseline

    def test_merged_equals_weighted_shards_exactly(self, population):
        """The reduce step is algebra, not estimation: exact linearity.
        Per-shard mechanisms fed each shard's batches with its stream
        (spawn child ``i`` of the seed) average, weighted by users, to the
        collector's estimates."""
        items, _ = population
        collector = ShardedCollector(
            "flat_oue", epsilon=EPSILON, domain_size=DOMAIN, n_shards=3, random_state=5
        )
        shards = [
            mechanism_from_spec("flat_oue", epsilon=EPSILON, domain_size=DOMAIN)
            for _ in range(3)
        ]
        streams = [
            np.random.default_rng(child) for child in np.random.SeedSequence(5).spawn(3)
        ]
        for batch in np.array_split(items, 6):
            shard = collector.submit(batch)
            shards[shard].partial_fit(batch, random_state=streams[shard])
        merged = collector.reduce()
        assert sum(shard.n_users for shard in shards) == collector.n_users
        expected = (
            sum(shard.n_users * shard.estimate_frequencies() for shard in shards)
            / collector.n_users
        )
        np.testing.assert_allclose(merged.estimate_frequencies(), expected, atol=1e-12)

    def test_deterministic_counts_stay_deterministic(self):
        """expected_counts populations keep exact user counts through shards."""
        counts = expected_counts(cauchy_probabilities(DOMAIN), N_USERS)
        items = np.repeat(np.arange(DOMAIN), counts)
        collector = ShardedCollector(
            "haar", epsilon=EPSILON, domain_size=DOMAIN, n_shards=4, random_state=2
        )
        collector.extend(np.array_split(items, 8))
        assert collector.n_users == int(counts.sum())
        assert collector.reduce().n_users == int(counts.sum())
