"""Cached-vs-uncached and coalesced-vs-serial bit-identity properties.

The answer cache's contract is absolute transparency: a mechanism with the
cache enabled must be observationally indistinguishable — bit-for-bit —
from its uncached twin across any interleaving of writes
(``partial_fit``), shard folds (``merge_from``), snapshot/restore
round-trips and reads, with reads served twice at every step so hits
actually occur.  Invalidation is exercised exactly at the generation
bumps: every write makes the previous generation's entries unreachable,
so the next read must recompute from the fresh estimates, never serve the
stale answer.

The coalescer's contract is the same transparency for execution shape:
any partition of a batched workload across concurrent awaiters must
reproduce the one-shot batched call exactly.
"""

import asyncio

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.factory import mechanism_from_spec
from repro.persist import snapshots
from repro.service import QueryCoalescer

DOMAIN = 64

specs = st.sampled_from(["flat_oue", "hh_4", "hhc_4", "haar", "grid2d_2"])
seeds = st.integers(min_value=0, max_value=2**31 - 1)
# One token per history step: writes, folds and a dirty checkpoint-restore
# interleaved in any order the strategy draws.
histories = st.lists(
    st.sampled_from(["fit", "merge", "restore"]), min_size=1, max_size=5
)


def _make(spec, cache):
    mechanism = mechanism_from_spec(spec, epsilon=1.1, domain_size=DOMAIN)
    return mechanism.set_answer_cache_size(cache)


def _read_all(mechanism, rng_seed):
    """Read every cached surface twice (second pass hits) and concatenate."""
    queries = np.sort(
        np.random.default_rng(rng_seed).integers(
            0, mechanism.domain_size, size=(12, 2)
        ),
        axis=1,
    )
    parts = []
    for _ in range(2):
        parts.append(mechanism.answer_ranges(queries))
        parts.append(np.array([mechanism.answer_range(1, mechanism.domain_size - 2)]))
        parts.append(np.asarray(mechanism.quantiles((0.2, 0.8)), dtype=np.float64))
    return np.concatenate(parts)


def _run_history(spec, seed, history, cache):
    """Replay one scripted interleaving, reading after every single step."""
    target = _make(spec, cache)
    item_domain = getattr(target, "flat_domain_size", target.domain_size)
    rng_items = np.random.default_rng(seed)
    stream = np.random.default_rng(seed + 1)
    outputs = []
    for step, token in enumerate(history):
        if token == "fit":
            generation = target.ingest_generation
            target.partial_fit(
                rng_items.integers(0, item_domain, size=300), stream
            )
            assert target.ingest_generation == generation + 1
        elif token == "merge":
            shard = _make(spec, cache)
            shard.partial_fit(
                rng_items.integers(0, item_domain, size=300), stream
            )
            generation = target.ingest_generation
            target.merge_from(shard)
            assert target.ingest_generation == generation + 1
        else:  # restore: statistics-only round-trip of the dirty mechanism
            target = snapshots.from_bytes(snapshots.to_bytes(target))
            target.set_answer_cache_size(cache)
        if target.n_users:
            # Read between every mutation — the cached twin fills and then
            # must invalidate its entries at the very next generation bump.
            outputs.append(_read_all(target, rng_seed=1000 + step))
    return np.concatenate(outputs) if outputs else np.empty(0)


class TestCachedVsUncachedBitIdentity:
    @given(spec=specs, seed=seeds, history=histories)
    @settings(max_examples=20, deadline=None)
    def test_interleaved_history_is_bit_identical(self, spec, seed, history):
        cached = _run_history(spec, seed, history, cache=64)
        uncached = _run_history(spec, seed, history, cache=0)
        np.testing.assert_array_equal(cached, uncached)

    @given(seed=seeds)
    @settings(max_examples=15, deadline=None)
    def test_invalidation_exactly_at_generation_bump(self, seed):
        cached = _make("hhc_4", cache=32)
        uncached = _make("hhc_4", cache=0)
        item_rng = np.random.default_rng(seed)
        batches = [item_rng.integers(0, DOMAIN, size=400) for _ in range(3)]
        queries = np.sort(
            np.random.default_rng(seed + 2).integers(0, DOMAIN, size=(8, 2)), axis=1
        )
        for index, batch in enumerate(batches):
            for twin in (cached, uncached):
                twin.partial_fit(batch, np.random.default_rng(seed + 3 + index))
            before_hits = cached.answer_cache_stats()["hits"]
            first = cached.answer_ranges(queries)
            # Second read is a hit at this generation ...
            np.testing.assert_array_equal(cached.answer_ranges(queries), first)
            assert cached.answer_cache_stats()["hits"] == before_hits + 1
            # ... and bit-identical to the never-cached twin.
            np.testing.assert_array_equal(first, uncached.answer_ranges(queries))


class TestCoalescedVsSerialBitIdentity:
    @given(seed=seeds, parts=st.integers(min_value=1, max_value=6))
    @settings(max_examples=15, deadline=None)
    def test_any_partition_matches_the_one_shot_batch(self, seed, parts):
        mechanism = _make("hhc_4", cache=16)
        mechanism.fit_items(
            np.random.default_rng(seed).integers(0, DOMAIN, size=2000),
            random_state=seed,
        )
        queries = np.sort(
            np.random.default_rng(seed + 1).integers(0, DOMAIN, size=(18, 2)),
            axis=1,
        )
        serial = mechanism.answer_ranges(queries)
        coalescer = QueryCoalescer()

        async def main():
            slices = np.array_split(queries, parts)
            return await asyncio.gather(
                *(coalescer.answer_ranges(mechanism, part) for part in slices)
            )

        coalesced = np.concatenate(asyncio.run(main()))
        np.testing.assert_array_equal(coalesced, serial)

    @given(seed=seeds)
    @settings(max_examples=10, deadline=None)
    def test_coalescing_across_a_write_boundary(self, seed):
        """Writes between drains: each drain's answers match the state the
        mechanism held at that drain, never a stale cached batch."""
        mechanism = _make("grid2d_2", cache=16)
        side = mechanism.domain_size
        rng = np.random.default_rng(seed)
        mechanism.partial_fit_points(
            rng.integers(0, side, size=(1000, 2)), np.random.default_rng(seed + 1)
        )
        boxes = np.sort(
            np.random.default_rng(seed + 2).integers(0, side, size=(6, 2, 2)), axis=2
        ).reshape(6, 4)
        coalescer = QueryCoalescer()

        async def drain():
            return np.concatenate(
                await asyncio.gather(
                    *(
                        coalescer.answer_boxes(mechanism, part)
                        for part in np.array_split(boxes, 2)
                    )
                )
            )

        first = asyncio.run(drain())
        np.testing.assert_array_equal(first, mechanism.answer_boxes(boxes))
        mechanism.partial_fit_points(
            rng.integers(0, side, size=(1000, 2)), np.random.default_rng(seed + 3)
        )
        second = asyncio.run(drain())
        np.testing.assert_array_equal(second, mechanism.answer_boxes(boxes))


class TestPerRequestCachingUnderCoalescing:
    """Coalescing caches per request: whatever subset of the waiters is
    already cached, and however the batch is split, each waiter gets
    exactly the answers a serial, uncached call would give it."""

    @given(
        spec=specs,
        seed=seeds,
        cuts=st.lists(st.integers(min_value=1, max_value=23), max_size=5, unique=True),
        cached_parts=st.lists(st.booleans(), min_size=6, max_size=6),
    )
    @settings(max_examples=25, deadline=None)
    def test_any_partition_with_any_cached_subset(self, spec, seed, cuts, cached_parts):
        mechanism = _make(spec, cache=64)
        twin = _make(spec, cache=0)
        rng = np.random.default_rng(seed)
        if spec.startswith("grid"):
            side = mechanism.domain_size
            points = rng.integers(0, side, size=(2000, 2))
            for target in (mechanism, twin):
                target.fit_points(points, random_state=seed)
            queries = np.sort(rng.integers(0, side, size=(24, 2, 2)), axis=2).reshape(24, 4)
            surface = "answer_boxes"
        else:
            items = rng.integers(0, DOMAIN, size=2000)
            for target in (mechanism, twin):
                target.fit_items(items, random_state=seed)
            queries = np.sort(rng.integers(0, DOMAIN, size=(24, 2)), axis=1)
            surface = "answer_ranges"
        parts = np.split(queries, sorted(cuts))
        for part, cached in zip(parts, cached_parts):
            if cached:
                getattr(mechanism, surface)(part)
        coalescer = QueryCoalescer()

        async def main():
            return await asyncio.gather(
                *(getattr(coalescer, surface)(mechanism, part) for part in parts)
            )

        for part, answers in zip(parts, asyncio.run(main())):
            np.testing.assert_array_equal(answers, getattr(twin, surface)(part))
        # Every part is now cached under its own key.
        hits = mechanism.answer_cache_stats()["hits"]
        for part in parts:
            getattr(mechanism, surface)(part)
        assert mechanism.answer_cache_stats()["hits"] == hits + len(parts)
