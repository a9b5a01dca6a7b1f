"""End-to-end persistence: crash recovery, mechanism save/load, async collect.

The acceptance story of the persistence + service tier, exercised the way a
deployment would: a shard fleet dies mid-collection and resumes from its
checkpoint with no statistical trace; an analyst saves a fitted mechanism
and re-opens it later; a population arrives through the async multi-producer
ingestion path and lands on the same answers as a one-shot fit.
"""

import numpy as np
import pytest

from repro import DECILES, estimate_cdf, mechanism_from_spec, persist
from repro.data.synthetic import cauchy_probabilities, sample_items
from repro.service import run_ingestion
from repro.streaming import ShardedCollector

DOMAIN = 256
EPSILON = 1.1
N_USERS = 100_000


@pytest.fixture(scope="module")
def population():
    return sample_items(
        cauchy_probabilities(DOMAIN), N_USERS, random_state=20190630
    )


class TestCrashRecovery:
    @pytest.mark.parametrize("spec", ["hhc_4", "haar", "flat_oue"])
    @pytest.mark.parametrize("crash_after", [1, 7])
    def test_killed_shard_fleet_resumes_exactly(
        self, population, tmp_path, spec, crash_after
    ):
        """A restored collector finishes with the uninterrupted run's exact
        reduced estimates — early and late crash points."""
        batches = np.array_split(population, 12)

        def build():
            return ShardedCollector(
                spec, EPSILON, DOMAIN, n_shards=4, random_state=99
            )

        uninterrupted = build()
        for batch in batches:
            uninterrupted.submit(batch)
        reference = uninterrupted.reduce()

        collector = build()
        for batch in batches[:crash_after]:
            collector.submit(batch)
        path = collector.checkpoint(tmp_path / f"{spec}-{crash_after}.snap")
        del collector  # the crash

        resumed = ShardedCollector.restore(path)
        for batch in batches[crash_after:]:
            resumed.submit(batch)
        recovered = resumed.reduce()

        assert recovered.n_users == reference.n_users == N_USERS
        np.testing.assert_array_equal(
            recovered.estimate_frequencies(), reference.estimate_frequencies()
        )
        queries = np.array([[0, 31], [10, 200], [0, DOMAIN - 1]])
        np.testing.assert_array_equal(
            recovered.answer_ranges(queries), reference.answer_ranges(queries)
        )

    def test_checkpoint_chain_across_repeated_crashes(self, population, tmp_path):
        """Checkpoint -> crash -> restore -> checkpoint -> crash -> restore."""
        batches = np.array_split(population, 9)
        uninterrupted = ShardedCollector("hhc_4", EPSILON, DOMAIN, n_shards=3, random_state=5)
        for batch in batches:
            uninterrupted.submit(batch)
        expected = uninterrupted.reduce().estimate_frequencies()

        collector = ShardedCollector("hhc_4", EPSILON, DOMAIN, n_shards=3, random_state=5)
        for index, batch in enumerate(batches):
            collector.submit(batch)
            if index in (2, 5):
                path = collector.checkpoint(tmp_path / f"chain-{index}.snap")
                del collector
                collector = ShardedCollector.restore(path)
        np.testing.assert_array_equal(
            collector.reduce().estimate_frequencies(), expected
        )


class TestMechanismPersistence:
    def test_save_load_answers_identically(self, population, tmp_path):
        mechanism = mechanism_from_spec("hhc_4", epsilon=EPSILON, domain_size=DOMAIN)
        mechanism.fit_items(population, random_state=3)
        path = persist.save(mechanism, tmp_path / "mechanism.snap")

        reopened = persist.load(path)
        assert reopened.epsilon == mechanism.epsilon
        assert reopened.domain_size == mechanism.domain_size
        assert reopened.n_users == mechanism.n_users
        np.testing.assert_array_equal(
            reopened.estimate_frequencies(), mechanism.estimate_frequencies()
        )
        np.testing.assert_array_equal(estimate_cdf(reopened), estimate_cdf(mechanism))
        assert reopened.quantiles(DECILES) == mechanism.quantiles(DECILES)
        assert reopened.quantile(0.5) == mechanism.quantile(0.5)

    def test_bytes_round_trip_continues_collection(self, population):
        mechanism = mechanism_from_spec("haar", epsilon=EPSILON, domain_size=DOMAIN)
        mechanism.partial_fit(population[:50_000], random_state=1)
        reopened = persist.from_bytes(persist.to_bytes(mechanism))
        reopened.partial_fit(population[50_000:], random_state=2)
        assert reopened.n_users == N_USERS


class TestAsyncCollection:
    def test_run_ingestion_matches_one_shot_accuracy(self, population):
        counts = np.bincount(population, minlength=DOMAIN)
        truth = counts / counts.sum()

        collector = ShardedCollector(
            "hhc_4", epsilon=EPSILON, domain_size=DOMAIN, n_shards=4, random_state=13
        )
        report = run_ingestion(collector, np.array_split(population, 20), n_producers=4)
        assert report.n_users == N_USERS
        reduced = collector.reduce()
        assert reduced.n_users == N_USERS

        one_shot = mechanism_from_spec("hhc_4", epsilon=EPSILON, domain_size=DOMAIN)
        one_shot.fit_items(population, random_state=13)

        async_mse = float(np.mean((reduced.estimate_frequencies() - truth) ** 2))
        one_shot_mse = float(np.mean((one_shot.estimate_frequencies() - truth) ** 2))
        assert async_mse < 3.0 * one_shot_mse + 1e-9

    def test_run_ingestion_on_top_of_prior_collection(self, population):
        mechanism = mechanism_from_spec("flat_oue", epsilon=EPSILON, domain_size=DOMAIN)
        mechanism.fit_items(population[:40_000], random_state=1)
        collector = ShardedCollector(
            "flat_oue", epsilon=EPSILON, domain_size=DOMAIN, n_shards=2, random_state=2
        )
        run_ingestion(collector, np.array_split(population[40_000:], 6))
        mechanism.merge_from(collector.reduce())
        assert mechanism.n_users == N_USERS
