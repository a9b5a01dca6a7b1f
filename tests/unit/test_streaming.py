"""Unit tests for the streaming subsystem (ShardedCollector + mechanism API)."""

import numpy as np
import pytest

from repro import DECILES
from repro.core.flat import FlatMechanism
from repro.core.hierarchical import HierarchicalHistogramMechanism
from repro.core.wavelet import HaarWaveletMechanism
from repro.exceptions import ConfigurationError, NotFittedError
from repro.streaming import ShardedCollector

DOMAIN = 64


@pytest.fixture
def items(rng):
    return rng.integers(0, DOMAIN, size=60_000)


class TestPartialFit:
    @pytest.mark.parametrize(
        "factory",
        [
            lambda: FlatMechanism(1.0, DOMAIN),
            lambda: HierarchicalHistogramMechanism(1.0, DOMAIN, branching=4),
            lambda: HierarchicalHistogramMechanism(
                1.0, DOMAIN, branching=4, consistency=False
            ),
            lambda: HierarchicalHistogramMechanism(
                1.0, DOMAIN, branching=4, budget_strategy="splitting"
            ),
            lambda: HaarWaveletMechanism(1.0, DOMAIN),
        ],
    )
    def test_batches_accumulate_users_and_accuracy(self, factory, items):
        mechanism = factory()
        stream = np.random.default_rng(3)
        for batch in np.array_split(items, 5):
            mechanism.partial_fit(batch, random_state=stream)
        assert mechanism.is_fitted
        assert mechanism.n_users == items.size
        truth = np.mean((items >= 10) & (items <= 50))
        assert mechanism.answer_range(10, 50) == pytest.approx(truth, abs=0.08)

    def test_queryable_after_every_batch(self, items):
        mechanism = FlatMechanism(1.0, DOMAIN)
        stream = np.random.default_rng(1)
        seen = 0
        for batch in np.array_split(items, 3):
            mechanism.partial_fit(batch, random_state=stream)
            seen += batch.size
            assert mechanism.n_users == seen
            assert np.isfinite(mechanism.answer_range(0, DOMAIN - 1))

    def test_partial_fit_on_top_of_one_shot(self, items):
        mechanism = FlatMechanism(1.0, DOMAIN)
        mechanism.fit_items(items[:30_000], random_state=0)
        mechanism.partial_fit(items[30_000:], random_state=1)
        assert mechanism.n_users == items.size

    def test_per_user_mode(self, rng):
        items = rng.integers(0, 16, size=20_000)
        mechanism = HierarchicalHistogramMechanism(2.0, 16, branching=4)
        for batch in np.array_split(items, 4):
            mechanism.partial_fit(batch, random_state=rng, mode="per_user")
        truth = np.mean(items <= 7)
        assert mechanism.answer_range(0, 7) == pytest.approx(truth, abs=0.1)

    def test_rejects_float_items(self):
        mechanism = FlatMechanism(1.0, DOMAIN)
        from repro.exceptions import InvalidQueryError

        with pytest.raises(InvalidQueryError):
            mechanism.partial_fit(np.array([1.5, 2.0]))


class TestMergeFrom:
    def test_merge_requires_fitted_source(self):
        with pytest.raises(NotFittedError):
            FlatMechanism(1.0, DOMAIN).merge_from(FlatMechanism(1.0, DOMAIN))

    def test_merge_rejects_different_type(self, items):
        target = FlatMechanism(1.0, DOMAIN)
        source = HaarWaveletMechanism(1.0, DOMAIN).fit_items(items, random_state=0)
        with pytest.raises(ConfigurationError):
            target.merge_from(source)

    def test_merge_rejects_mismatched_config(self, items):
        source = HierarchicalHistogramMechanism(1.0, DOMAIN, branching=4)
        source.fit_items(items, random_state=0)
        for target in (
            HierarchicalHistogramMechanism(2.0, DOMAIN, branching=4),
            HierarchicalHistogramMechanism(1.0, DOMAIN, branching=8),
            HierarchicalHistogramMechanism(1.0, DOMAIN, branching=4, consistency=False),
            HierarchicalHistogramMechanism(1.0, DOMAIN, branching=4, oracle="hrr"),
        ):
            with pytest.raises(ConfigurationError):
                target.merge_from(source)

    def test_merge_is_weighted_combination_for_flat(self, items):
        first = FlatMechanism(1.0, DOMAIN).fit_items(items[:40_000], random_state=1)
        second = FlatMechanism(1.0, DOMAIN).fit_items(items[40_000:], random_state=2)
        merged = FlatMechanism(1.0, DOMAIN).merge_from(first).merge_from(second)
        n1, n2 = first.n_users, second.n_users
        expected = (
            n1 * first.estimate_frequencies() + n2 * second.estimate_frequencies()
        ) / (n1 + n2)
        assert merged.n_users == items.size
        np.testing.assert_allclose(merged.estimate_frequencies(), expected, atol=1e-12)

    def test_merge_into_fitted_target(self, items):
        target = FlatMechanism(1.0, DOMAIN).fit_items(items[:20_000], random_state=1)
        source = FlatMechanism(1.0, DOMAIN).fit_items(items[20_000:], random_state=2)
        target.merge_from(source)
        assert target.n_users == items.size

    def test_lazy_merges_fold_shards_with_one_materialization(self, items):
        # Merging only touches statistics; the estimates are rebuilt once,
        # on the first read, and land exactly on the eager per-merge result.
        parts = [
            FlatMechanism(1.0, DOMAIN).fit_items(chunk, random_state=index)
            for index, chunk in enumerate(np.array_split(items, 3))
        ]
        eager = FlatMechanism(1.0, DOMAIN)
        for part in parts:
            eager.merge_from(part).materialize()
        lazy = FlatMechanism(1.0, DOMAIN)
        for part in parts:
            lazy.merge_from(part)
        assert not lazy.is_materialized
        assert lazy.materialization_count == 0
        assert lazy.n_users == eager.n_users == items.size
        np.testing.assert_array_equal(
            lazy.estimate_frequencies(), eager.estimate_frequencies()
        )
        assert lazy.is_materialized
        assert lazy.materialization_count == 1

    def test_unsupported_mechanism_raises_configuration_error(self):
        from repro.core.base import RangeQueryMechanism

        class OneShotOnly(RangeQueryMechanism):
            """Minimal mechanism without accumulator support."""

            def _collect(self, items, counts, rng, mode):
                self._fractions = counts / max(1, counts.sum())

            def _range_answers(self, queries):
                prefix = np.concatenate([[0.0], np.cumsum(self._fractions)])
                return self._prefix_ranges(queries, prefix)

        a = OneShotOnly(1.0, DOMAIN).fit_counts(
            np.ones(DOMAIN, dtype=np.int64), random_state=0
        )
        b = OneShotOnly(1.0, DOMAIN).fit_counts(
            np.ones(DOMAIN, dtype=np.int64), random_state=1
        )
        with pytest.raises(ConfigurationError):
            a.merge_from(b)
        with pytest.raises(ConfigurationError):
            a.partial_fit(np.zeros(10, dtype=np.int64))


class TestShardedCollector:
    def test_round_robin_routing(self, items):
        collector = ShardedCollector("flat", 1.0, DOMAIN, n_shards=3, random_state=0)
        targets = [collector.submit(batch) for batch in np.array_split(items, 7)]
        assert targets == [0, 1, 2, 0, 1, 2, 0]
        assert collector.n_batches == 7
        assert collector.n_users == items.size

    def test_explicit_shard_routing(self, items):
        collector = ShardedCollector("flat", 1.0, DOMAIN, n_shards=4, random_state=0)
        assert collector.submit(items, shard=2) == 2
        assert collector.shards[2].is_fitted
        assert not collector.shards[0].is_fitted

    def test_invalid_shard_index(self, items):
        collector = ShardedCollector("flat", 1.0, DOMAIN, n_shards=2, random_state=0)
        with pytest.raises(ConfigurationError):
            collector.submit(items, shard=5)

    def test_invalid_shard_count(self):
        with pytest.raises(ConfigurationError):
            ShardedCollector("flat", 1.0, DOMAIN, n_shards=0)

    def test_reduce_requires_data(self):
        collector = ShardedCollector("flat", 1.0, DOMAIN, n_shards=2)
        with pytest.raises(NotFittedError):
            collector.reduce()

    def test_reduce_combines_all_shards(self, items):
        collector = ShardedCollector("hhc_4", 1.0, DOMAIN, n_shards=4, random_state=9)
        collector.extend(np.array_split(items, 8))
        merged = collector.reduce()
        assert merged.n_users == items.size
        truth = np.mean((items >= 5) & (items <= 40))
        assert merged.answer_range(5, 40) == pytest.approx(truth, abs=0.08)

    def test_reduce_is_deterministic_given_seed(self, items):
        def run():
            collector = ShardedCollector(
                "haar", 1.0, DOMAIN, n_shards=3, random_state=42
            )
            collector.extend(np.array_split(items, 6))
            return collector.reduce().estimate_frequencies()

        np.testing.assert_array_equal(run(), run())

    def test_reduce_can_be_repeated_while_streaming(self, items):
        collector = ShardedCollector("flat", 1.0, DOMAIN, n_shards=2, random_state=1)
        collector.submit(items[:30_000])
        first = collector.reduce()
        collector.submit(items[30_000:])
        second = collector.reduce()
        assert first.n_users == 30_000
        assert second.n_users == items.size

    def test_reduction_answers_quantiles(self, items):
        collector = ShardedCollector("hhc_4", 1.1, DOMAIN, n_shards=2, random_state=3)
        collector.extend(np.array_split(items, 4))
        reduced = collector.reduce()
        assert reduced.epsilon == pytest.approx(1.1)
        assert reduced.n_users == items.size
        assert len(reduced.quantiles(DECILES)) == 9

    def test_explicit_and_round_robin_interleave_deterministically(self, items):
        """Explicit placement bypasses the cursor: for a fixed seed, mixing
        pinned and round-robin batches is fully reproducible and pinned
        batches never advance the round-robin cursor."""

        def run():
            collector = ShardedCollector(
                "flat", 1.0, DOMAIN, n_shards=3, random_state=17
            )
            targets = []
            batches = np.array_split(items, 8)
            targets.append(collector.submit(batches[0]))            # rr -> 0
            targets.append(collector.submit(batches[1], shard=2))   # pinned
            targets.append(collector.submit(batches[2]))            # rr -> 1
            targets.append(collector.submit(batches[3], shard=0))   # pinned
            targets.append(collector.submit(batches[4]))            # rr -> 2
            targets.append(collector.submit(batches[5]))            # rr -> 0
            targets.append(collector.submit(batches[6], shard=1))   # pinned
            targets.append(collector.submit(batches[7]))            # rr -> 1
            return targets, collector.reduce().estimate_frequencies()

        targets, estimates = run()
        assert targets == [0, 2, 1, 0, 2, 0, 1, 1]
        repeat_targets, repeat_estimates = run()
        assert repeat_targets == targets
        np.testing.assert_array_equal(estimates, repeat_estimates)

    def test_shard_streams_do_not_depend_on_the_shard_count(self, items):
        """Shard ``i`` draws from spawn child ``i`` of the seed, so the
        first shards of a larger collector see exactly the noise of a
        smaller one with the same seed."""
        batches = np.array_split(items, 4)
        small = ShardedCollector("flat", 1.0, DOMAIN, n_shards=2, random_state=7)
        large = ShardedCollector("flat", 1.0, DOMAIN, n_shards=4, random_state=7)
        for collector in (small, large):
            collector.submit(batches[0], shard=0)
            collector.submit(batches[1], shard=1)
        for index in (0, 1):
            np.testing.assert_array_equal(
                small.shards[index].estimate_frequencies(),
                large.shards[index].estimate_frequencies(),
            )

    @pytest.mark.parametrize("n_shards", [1, 2, 3, 5])
    def test_next_shard_cycles_through_every_shard(self, n_shards):
        collector = ShardedCollector(
            "flat", 1.0, DOMAIN, n_shards=n_shards, random_state=0
        )
        picks = [collector.next_shard() for _ in range(2 * n_shards + 1)]
        assert picks == [i % n_shards for i in range(2 * n_shards + 1)]

    @pytest.mark.parametrize(
        "bad_batch",
        [np.array([DOMAIN]), np.array([-1, 3]), np.array([1.5, 2.0]),
         np.zeros((2, 2), dtype=np.int64)],
        ids=["out-of-domain", "negative", "float", "two-dimensional"],
    )
    def test_invalid_batch_spends_no_round_robin_decision(self, bad_batch):
        from repro.exceptions import InvalidQueryError

        collector = ShardedCollector("flat", 1.0, DOMAIN, n_shards=3, random_state=0)
        assert collector.submit(np.arange(8)) == 0
        with pytest.raises(InvalidQueryError):
            collector.submit(bad_batch)
        assert collector.n_batches == 1
        assert collector.submit(np.arange(8)) == 1

    def test_unknown_mode_spends_no_round_robin_decision(self, items):
        collector = ShardedCollector("flat", 1.0, DOMAIN, n_shards=3, random_state=0)
        with pytest.raises(ConfigurationError, match="mode"):
            collector.submit(items[:100], mode="per-user")
        assert collector.n_batches == 0
        assert collector.submit(items[:100]) == 0

    def test_negative_shard_index_is_rejected(self, items):
        collector = ShardedCollector("flat", 1.0, DOMAIN, n_shards=3, random_state=0)
        with pytest.raises(ConfigurationError, match="out of range"):
            collector.submit(items[:100], shard=-1)
        assert not any(shard.is_fitted for shard in collector.shards)

    def test_shard_count_is_invisible_when_every_batch_lands_on_shard_zero(
        self, items
    ):
        """Shard 0 draws from spawn child 0 whatever ``K`` is, so pinning
        every batch to it reduces bit for bit like a one-shard collector."""
        batches = np.array_split(items, 5)
        single = ShardedCollector("hhc_4", 1.0, DOMAIN, n_shards=1, random_state=11)
        wide = ShardedCollector("hhc_4", 1.0, DOMAIN, n_shards=4, random_state=11)
        single.extend(batches)
        for batch in batches:
            wide.submit(batch, shard=0)
        np.testing.assert_array_equal(
            single.reduce().estimate_frequencies(),
            wide.reduce().estimate_frequencies(),
        )

    def test_generation_signature_moves_only_on_ingest(self, items):
        collector = ShardedCollector("flat", 1.0, DOMAIN, n_shards=3, random_state=0)
        empty = collector.generation_signature()
        assert len(empty) == 3
        collector.submit(items[:1000], shard=1)
        after_one = collector.generation_signature()
        assert after_one[0] == empty[0] and after_one[2] == empty[2]
        assert after_one[1] != empty[1]
        collector.reduce().estimate_frequencies()
        assert collector.generation_signature() == after_one

    def test_submit_points_requires_a_grid_mechanism(self, items):
        collector = ShardedCollector("flat", 1.0, DOMAIN, n_shards=2, random_state=0)
        with pytest.raises(ConfigurationError, match="grid point surface"):
            collector.submit_points(np.zeros((4, 2), dtype=np.int64))
        assert collector.n_batches == 0
        assert collector.next_shard() == 0

    def test_template_mechanism_instead_of_spec(self, items):
        from repro.core.wavelet import HaarWaveletMechanism

        template = HaarWaveletMechanism(1.0, DOMAIN)
        collector = ShardedCollector(template, n_shards=2, random_state=4)
        collector.extend(np.array_split(items, 4))
        assert collector.reduce().n_users == items.size
        assert not template.is_fitted  # the template is a config donor only

    def test_template_mechanism_rejects_conflicting_parameters(self):
        from repro.core.flat import FlatMechanism

        template = FlatMechanism(1.0, DOMAIN)
        with pytest.raises(ConfigurationError):
            ShardedCollector(template, epsilon=2.0)
        with pytest.raises(ConfigurationError):
            ShardedCollector(template, domain_size=DOMAIN * 2)
        with pytest.raises(ConfigurationError):
            ShardedCollector(template, oracle="hrr")

    def test_spec_requires_epsilon_and_domain(self):
        with pytest.raises(ConfigurationError):
            ShardedCollector("flat")


class TestCollectorCheckpoint:
    @pytest.mark.parametrize("spec", ["flat_oue", "hhc_4", "haar"])
    def test_restored_collector_resumes_bit_for_bit(self, spec, items):
        batches = np.array_split(items, 10)

        def build():
            return ShardedCollector(
                spec, 1.0, DOMAIN, n_shards=3, random_state=23
            )

        uninterrupted = build()
        for batch in batches:
            uninterrupted.submit(batch)
        expected = uninterrupted.reduce().estimate_frequencies()

        crashed = build()
        for batch in batches[:4]:
            crashed.submit(batch)
        snapshot = crashed.checkpoint_bytes()
        del crashed

        resumed = ShardedCollector.from_checkpoint_bytes(snapshot)
        assert resumed.n_batches == 4
        for batch in batches[4:]:
            resumed.submit(batch)
        np.testing.assert_array_equal(
            resumed.reduce().estimate_frequencies(), expected
        )

    def test_checkpoint_file_round_trip(self, items, tmp_path):
        collector = ShardedCollector("hhc_4", 1.0, DOMAIN, n_shards=2, random_state=7)
        collector.extend(np.array_split(items, 4))
        path = collector.checkpoint(tmp_path / "collector.snap")
        restored = ShardedCollector.restore(path)
        assert restored.n_users == collector.n_users
        assert restored.n_batches == collector.n_batches
        np.testing.assert_array_equal(
            restored.reduce().estimate_frequencies(),
            collector.reduce().estimate_frequencies(),
        )

    def test_checkpoint_preserves_router_position(self, items):
        collector = ShardedCollector("flat", 1.0, DOMAIN, n_shards=3, random_state=1)
        collector.submit(items[:1000])  # round-robin cursor now at shard 1
        restored = ShardedCollector.from_checkpoint_bytes(collector.checkpoint_bytes())
        assert restored.submit(items[1000:2000]) == collector.submit(items[1000:2000]) == 1

    @pytest.mark.parametrize("position", [0, 1, 2])
    def test_cursor_round_trips_at_every_position(self, position, items):
        collector = ShardedCollector("flat", 1.0, DOMAIN, n_shards=3, random_state=1)
        for _ in range(3 + position):
            collector.next_shard()
        restored = ShardedCollector.from_checkpoint_bytes(collector.checkpoint_bytes())
        assert [restored.next_shard() for _ in range(3)] == [
            (position + step) % 3 for step in range(3)
        ]

    def test_checkpoint_preserves_unfitted_shards(self, items):
        collector = ShardedCollector("flat", 1.0, DOMAIN, n_shards=4, random_state=2)
        collector.submit(items[:1000])  # only shard 0 fitted
        restored = ShardedCollector.from_checkpoint_bytes(collector.checkpoint_bytes())
        fitted = [shard.is_fitted for shard in restored.shards]
        assert fitted == [True, False, False, False]

    def test_mechanism_snapshot_rejected_as_checkpoint(self, items):
        from repro import persist
        from repro.core.flat import FlatMechanism

        mechanism = FlatMechanism(1.0, DOMAIN).fit_items(items, random_state=0)
        with pytest.raises(ConfigurationError, match="collector"):
            ShardedCollector.from_checkpoint_bytes(persist.to_bytes(mechanism))

    def test_snapshot_missing_level_counts_raises_configuration_error(self, items):
        from repro.core.hierarchical import HierarchicalHistogramMechanism
        from repro.core.wavelet import HaarWaveletMechanism

        for mechanism in (
            HierarchicalHistogramMechanism(1.0, DOMAIN, branching=4),
            HaarWaveletMechanism(1.0, DOMAIN),
        ):
            mechanism.fit_items(items, random_state=0)
            state = mechanism.state_dict()
            del state["level_user_counts"]
            with pytest.raises(ConfigurationError, match="level_user_counts"):
                type(mechanism)(1.0, DOMAIN).load_state_dict(state)

    def test_collector_checkpoint_loads_via_persist(self, items):
        from repro import persist

        collector = ShardedCollector("flat", 1.0, DOMAIN, n_shards=2, random_state=3)
        collector.submit(items[:5000])
        restored = persist.from_bytes(collector.checkpoint_bytes())
        assert isinstance(restored, ShardedCollector)
        assert restored.n_users == 5000
        with pytest.raises(ConfigurationError):
            persist.from_bytes(
                collector.checkpoint_bytes(),
                template=ShardedCollector("flat", 1.0, DOMAIN),
            )


def _tampered_checkpoint(mutate, drop_array=None):
    """A 2-shard checkpoint whose header ``mutate`` edited in place."""
    from repro.persist.format import pack_snapshot, unpack_snapshot

    collector = ShardedCollector("flat", 1.0, DOMAIN, n_shards=2, random_state=5)
    collector.submit(np.arange(DOMAIN))
    header, arrays = unpack_snapshot(collector.checkpoint_bytes())
    mutate(header)
    if drop_array is not None:
        arrays = {
            key: value for key, value in arrays.items()
            if not key.startswith(drop_array)
        }
    return pack_snapshot(header, arrays)


class TestCheckpointHeaderValidation:
    """A malformed collector checkpoint fails with a ConfigurationError
    that names the problem, never with a builtin error or a collector
    that places batches wrongly."""

    @pytest.mark.parametrize(
        "mutate, match",
        [
            (lambda h: h.pop("n_shards"), "n_shards"),
            (lambda h: h.pop("config"), "config"),
            (lambda h: h.update(n_shards=3), "2 generator states for 3 shards"),
            (lambda h: h["generators"].pop(), "1 generator states for 2 shards"),
            (lambda h: h.update(n_shards="two"), "malformed"),
            (lambda h: h.update(n_shards=0, generators=[]),
             "n_shards must be a positive integer"),
            (lambda h: h["generators"][0].update(bit_generator="Turbo"), "Turbo"),
            (lambda h: h["generators"][0].update(bit_generator="Generator"),
             "Generator"),
            (lambda h: h["generators"][0].update(bit_generator="MT19937"),
             "malformed"),
            (lambda h: h["router"]["state"].update(cursor="next"), "malformed"),
            (lambda h: h.update(kind="mechanism"), "collector"),
        ],
        ids=[
            "no-n_shards", "no-config", "too-few-generators",
            "generator-missing", "non-integer-n_shards", "zero-shards",
            "unknown-bit-generator",
            "not-a-bit-generator", "state-of-another-bit-generator",
            "non-integer-cursor", "wrong-kind",
        ],
    )
    def test_malformed_header_is_a_configuration_error(self, mutate, match):
        with pytest.raises(ConfigurationError, match=match):
            ShardedCollector.from_checkpoint_bytes(_tampered_checkpoint(mutate))

    def test_missing_shard_arrays_are_named(self):
        data = _tampered_checkpoint(lambda header: None, drop_array="shard1")
        with pytest.raises(ConfigurationError, match="missing shard 1"):
            ShardedCollector.from_checkpoint_bytes(data)
