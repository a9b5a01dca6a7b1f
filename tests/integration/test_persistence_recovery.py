"""End-to-end persistence: crash recovery, session save/load, async collect.

The acceptance story of the persistence + service tier, exercised the way a
deployment would: a shard fleet dies mid-collection and resumes from its
checkpoint with no statistical trace; an analyst saves a fitted session and
re-opens it later; a population arrives through the async multi-producer
ingestion path and lands on the same answers as a one-shot fit.
"""

import numpy as np
import pytest

from repro import LdpRangeQuerySession, persist
from repro.data.synthetic import cauchy_probabilities, sample_items
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


class TestSessionPersistence:
    def test_save_load_answers_identically(self, population, tmp_path):
        session = LdpRangeQuerySession(
            epsilon=EPSILON, domain_size=DOMAIN, mechanism="hhc_4"
        )
        session.collect(population, random_state=3)
        path = session.save(tmp_path / "session.snap")

        reopened = LdpRangeQuerySession.load(path)
        assert reopened.epsilon == session.epsilon
        assert reopened.domain_size == session.domain_size
        assert reopened.n_users == session.n_users
        np.testing.assert_array_equal(reopened.histogram(), session.histogram())
        np.testing.assert_array_equal(reopened.cdf(), session.cdf())
        assert reopened.quantiles() == session.quantiles()
        assert reopened.median() == session.median()

    def test_bytes_round_trip_continues_collection(self, population):
        session = LdpRangeQuerySession(
            epsilon=EPSILON, domain_size=DOMAIN, mechanism="haar"
        )
        session.collect_batch(population[:50_000], random_state=1)
        reopened = LdpRangeQuerySession.from_bytes(session.to_bytes())
        reopened.collect_batch(population[50_000:], random_state=2)
        assert reopened.n_users == N_USERS

    def test_accumulator_snapshot_rejected_by_session_load(self, population):
        from repro.frequency_oracles.registry import make_oracle

        oracle = make_oracle("oue", epsilon=EPSILON, domain_size=DOMAIN)
        accumulator = oracle.accumulator().add_items(
            population[:1000], np.random.default_rng(0)
        )
        from repro.exceptions import ConfigurationError

        with pytest.raises(ConfigurationError):
            LdpRangeQuerySession.from_bytes(persist.to_bytes(accumulator))


class TestAsyncCollection:
    def test_collect_async_matches_one_shot_accuracy(self, population):
        counts = np.bincount(population, minlength=DOMAIN)
        truth = counts / counts.sum()

        session = LdpRangeQuerySession(
            epsilon=EPSILON, domain_size=DOMAIN, mechanism="hhc_4"
        )
        session.collect_async(
            np.array_split(population, 20),
            n_shards=4,
            n_producers=4,
            random_state=13,
        )
        assert session.n_users == N_USERS
        report = session.last_ingestion_report
        assert report is not None and report.n_users == N_USERS

        one_shot = LdpRangeQuerySession(
            epsilon=EPSILON, domain_size=DOMAIN, mechanism="hhc_4"
        )
        one_shot.collect(population, random_state=13)

        async_mse = float(np.mean((session.histogram() - truth) ** 2))
        one_shot_mse = float(np.mean((one_shot.histogram() - truth) ** 2))
        assert async_mse < 3.0 * one_shot_mse + 1e-9

    def test_collect_async_on_top_of_prior_collection(self, population):
        session = LdpRangeQuerySession(
            epsilon=EPSILON, domain_size=DOMAIN, mechanism="flat_oue"
        )
        session.collect(population[:40_000], random_state=1)
        session.collect_async(
            np.array_split(population[40_000:], 6),
            n_shards=2,
            random_state=2,
        )
        assert session.n_users == N_USERS
