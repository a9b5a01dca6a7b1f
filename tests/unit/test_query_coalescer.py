"""Unit tests for the coalesced query executor (repro.service.query)."""

import asyncio

import numpy as np
import pytest

from repro.core.factory import mechanism_from_spec
from repro.data.workloads import random_boxes
from repro.exceptions import ConfigurationError, InvalidQueryError
from repro.service import QueryCoalescer

SIDE = 16
DOMAIN = 64


@pytest.fixture(scope="module")
def grid():
    mechanism = mechanism_from_spec("grid2d_2", epsilon=1.1, domain_size=SIDE)
    points = np.random.default_rng(5).integers(0, SIDE, size=(4000, 2))
    return mechanism.fit_points(points, random_state=6).materialize()


@pytest.fixture(scope="module")
def flat():
    mechanism = mechanism_from_spec("flat_oue", epsilon=1.1, domain_size=DOMAIN)
    items = np.random.default_rng(7).integers(0, DOMAIN, size=4000)
    return mechanism.fit_items(items, random_state=8).materialize()


def run(coro):
    return asyncio.run(coro)


class TestCoalescing:
    def test_concurrent_boxes_share_one_batched_call(self, grid):
        boxes = random_boxes(SIDE, 24, dims=2, random_state=9)
        serial = grid.answer_boxes(boxes)
        coalescer = QueryCoalescer()

        async def main():
            parts = np.array_split(boxes, 4)
            return await asyncio.gather(
                *(coalescer.answer_boxes(grid, part) for part in parts)
            )

        coalesced = np.concatenate(run(main()))
        np.testing.assert_array_equal(coalesced, serial)
        stats = coalescer.stats()
        assert stats["flushes"] == 1
        assert stats["coalesced_calls"] == 1
        assert stats["coalesced_queries"] == 24

    def test_concurrent_ranges_share_one_batched_call(self, flat):
        queries = np.sort(
            np.random.default_rng(10).integers(0, DOMAIN, size=(20, 2)), axis=1
        )
        serial = flat.answer_ranges(queries)
        coalescer = QueryCoalescer()

        async def main():
            parts = np.array_split(queries, 5)
            return await asyncio.gather(
                *(coalescer.answer_ranges(flat, part) for part in parts)
            )

        np.testing.assert_array_equal(np.concatenate(run(main())), serial)
        assert coalescer.stats()["coalesced_calls"] == 1

    def test_single_waiter_answered_without_concatenation(self, grid):
        boxes = random_boxes(SIDE, 6, dims=2, random_state=11)
        coalescer = QueryCoalescer()
        answers = run(coalescer.answer_boxes(grid, boxes))
        np.testing.assert_array_equal(answers, grid.answer_boxes(boxes))
        stats = coalescer.stats()
        assert stats["flushes"] == 1
        assert stats["coalesced_calls"] == 0  # lone waiter: direct call

    def test_different_mechanisms_grouped_separately(self, grid, flat):
        boxes = random_boxes(SIDE, 8, dims=2, random_state=12)
        queries = np.sort(
            np.random.default_rng(13).integers(0, DOMAIN, size=(8, 2)), axis=1
        )
        coalescer = QueryCoalescer()

        async def main():
            return await asyncio.gather(
                coalescer.answer_boxes(grid, boxes),
                coalescer.answer_ranges(flat, queries),
            )

        box_answers, range_answers = run(main())
        np.testing.assert_array_equal(box_answers, grid.answer_boxes(boxes))
        np.testing.assert_array_equal(range_answers, flat.answer_ranges(queries))

    def test_sequential_awaits_flush_separately(self, grid):
        boxes = random_boxes(SIDE, 4, dims=2, random_state=14)
        coalescer = QueryCoalescer()

        async def main():
            first = await coalescer.answer_boxes(grid, boxes)
            second = await coalescer.answer_boxes(grid, boxes)
            return first, second

        first, second = run(main())
        np.testing.assert_array_equal(first, second)
        assert coalescer.stats()["flushes"] == 2


class TestErrorIsolation:
    def test_bad_waiter_does_not_poison_the_batch(self, grid):
        good = random_boxes(SIDE, 6, dims=2, random_state=15)
        bad = np.array([[0, SIDE + 5, 0, SIDE + 5]], dtype=np.int64)  # out of domain
        coalescer = QueryCoalescer()

        async def main():
            return await asyncio.gather(
                coalescer.answer_boxes(grid, good),
                coalescer.answer_boxes(grid, bad),
                return_exceptions=True,
            )

        good_answers, bad_outcome = run(main())
        np.testing.assert_array_equal(good_answers, grid.answer_boxes(good))
        assert isinstance(bad_outcome, InvalidQueryError)

    def test_shape_error_raised_immediately(self, grid):
        coalescer = QueryCoalescer()
        with pytest.raises(InvalidQueryError):
            run(coalescer.answer_ranges(grid, np.zeros((3, 3), dtype=np.int64)))

    def test_non_mechanism_rejected(self):
        coalescer = QueryCoalescer()
        with pytest.raises(ConfigurationError):
            run(coalescer.answer_boxes(object(), np.zeros((1, 4), dtype=np.int64)))

    def test_missing_surface_rejected(self, flat):
        coalescer = QueryCoalescer()
        with pytest.raises(InvalidQueryError):
            run(coalescer.answer_boxes(flat, np.zeros((1, 4), dtype=np.int64)))


def _fresh_grid():
    """A grid of its own, so cache state never leaks between tests."""
    mechanism = mechanism_from_spec("grid2d_2", epsilon=1.1, domain_size=SIDE)
    points = np.random.default_rng(5).integers(0, SIDE, size=(4000, 2))
    return mechanism.fit_points(points, random_state=6).materialize()


def _spy_on_boxes(mechanism):
    """Record the query arrays every answer_boxes call receives."""
    calls = []
    original = mechanism.answer_boxes

    def spy(queries):
        calls.append(np.array(queries, copy=True))
        return original(queries)

    mechanism.answer_boxes = spy
    return calls


def _coalesce_boxes(coalescer, mechanism, *requests):
    async def main():
        return await asyncio.gather(
            *(coalescer.answer_boxes(mechanism, request) for request in requests),
            return_exceptions=True,
        )

    return run(main())


class TestPerRequestCache:
    def test_cached_panel_is_served_from_cache_and_only_fresh_rows_are_batched(self):
        grid = _fresh_grid()
        hot = random_boxes(SIDE, 8, dims=2, random_state=20)
        fresh_a = random_boxes(SIDE, 5, dims=2, random_state=21)
        fresh_b = random_boxes(SIDE, 3, dims=2, random_state=22)
        expected = [grid.answer_boxes(part) for part in (hot, fresh_a, fresh_b)]
        grid.set_answer_cache_size(0).set_answer_cache_size(16)
        grid.answer_boxes(hot)
        before = grid.answer_cache_stats()
        calls = _spy_on_boxes(grid)
        answers = _coalesce_boxes(QueryCoalescer(), grid, fresh_a, hot, fresh_b)
        for got, want in zip(answers, [expected[1], expected[0], expected[2]]):
            np.testing.assert_array_equal(got, want)
        assert len(calls) == 1
        np.testing.assert_array_equal(calls[0], np.concatenate([fresh_a, fresh_b]))
        after = grid.answer_cache_stats()
        assert after["hits"] == before["hits"] + 1
        assert after["misses"] == before["misses"] + 2
        # Each fresh request is now cached under its own key.
        calls.clear()
        answers = _coalesce_boxes(QueryCoalescer(), grid, fresh_b, fresh_a)
        np.testing.assert_array_equal(answers[0], expected[2])
        np.testing.assert_array_equal(answers[1], expected[1])
        assert calls == []

    def test_poisoned_waiter_next_to_a_cached_one_gets_its_own_error(self):
        grid = _fresh_grid()
        hot = random_boxes(SIDE, 6, dims=2, random_state=23)
        fresh = random_boxes(SIDE, 4, dims=2, random_state=24)
        bad = np.array([[3, 2, 0, 1]], dtype=np.int64)  # start > end
        hot_answers = grid.answer_boxes(hot)
        fresh_answers = _fresh_grid().answer_boxes(fresh)
        outcomes = _coalesce_boxes(QueryCoalescer(), grid, hot, bad, fresh)
        np.testing.assert_array_equal(outcomes[0], hot_answers)
        assert isinstance(outcomes[1], InvalidQueryError)
        assert "[3, 2]" in str(outcomes[1])
        np.testing.assert_array_equal(outcomes[2], fresh_answers)

    def test_disabled_cache_is_bypassed(self):
        grid = _fresh_grid().set_answer_cache_size(0)
        boxes = random_boxes(SIDE, 5, dims=2, random_state=25)
        calls = _spy_on_boxes(grid)
        for _ in range(2):
            answers = _coalesce_boxes(QueryCoalescer(), grid, boxes, boxes)
            np.testing.assert_array_equal(answers[0], answers[1])
        assert [len(call) for call in calls] == [10, 10]
        stats = grid.answer_cache_stats()
        assert (stats["hits"], stats["misses"], stats["size"]) == (0, 0, 0)


class TestStats:
    def test_counters_start_at_zero(self):
        assert QueryCoalescer().stats() == {
            "flushes": 0,
            "coalesced_queries": 0,
            "coalesced_calls": 0,
        }
