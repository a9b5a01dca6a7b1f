"""Unit tests for repro.data.workloads."""

import numpy as np
import pytest

from repro.exceptions import ConfigurationError, InvalidQueryError
from repro.data.workloads import (
    RangeWorkload,
    all_range_queries,
    evaluate_exact,
    fixed_length_queries,
    prefix_queries,
    random_range_queries,
    sampled_range_queries,
)


class TestRangeWorkload:
    def test_basic_properties(self):
        workload = RangeWorkload(domain_size=10, queries=[(0, 4), (2, 2)], name="w")
        assert len(workload) == 2
        np.testing.assert_array_equal(workload.lengths, [5, 1])

    def test_rejects_invalid_queries(self):
        with pytest.raises(InvalidQueryError):
            RangeWorkload(domain_size=10, queries=[(5, 4)])
        with pytest.raises(InvalidQueryError):
            RangeWorkload(domain_size=10, queries=[(0, 10)])
        with pytest.raises(InvalidQueryError):
            RangeWorkload(domain_size=10, queries=np.zeros((3, 3)))

    def test_true_answers(self):
        counts = np.array([1, 2, 3, 4])
        workload = RangeWorkload(domain_size=4, queries=[(0, 3), (1, 2), (3, 3)])
        np.testing.assert_allclose(workload.true_answers(counts), [1.0, 0.5, 0.4])

    def test_subset_respects_limit(self, rng):
        workload = all_range_queries(64)
        subset = workload.subset(100, random_state=rng)
        assert len(subset) == 100
        assert subset.domain_size == 64

    def test_subset_noop_when_small(self):
        workload = prefix_queries(16)
        assert workload.subset(1000) is workload

    def test_subset_validation(self):
        with pytest.raises(ConfigurationError):
            prefix_queries(16).subset(0)


class TestEvaluateExact:
    def test_normalization(self):
        counts = np.array([10, 0, 0, 10])
        answers = evaluate_exact(counts, np.array([[0, 0], [0, 3], [1, 2]]))
        np.testing.assert_allclose(answers, [0.5, 1.0, 0.0])

    def test_empty_population(self):
        answers = evaluate_exact(np.zeros(4), np.array([[0, 3]]))
        np.testing.assert_allclose(answers, [0.0])

    def test_query_exceeding_counts_rejected(self):
        with pytest.raises(InvalidQueryError):
            evaluate_exact(np.ones(4), np.array([[0, 4]]))


class TestGenerators:
    def test_all_range_queries_count(self):
        workload = all_range_queries(16)
        assert len(workload) == 16 * 17 // 2
        assert np.all(workload.queries[:, 0] <= workload.queries[:, 1])

    def test_all_range_queries_unique(self):
        workload = all_range_queries(12)
        assert len(np.unique(workload.queries, axis=0)) == len(workload)

    def test_fixed_length_queries(self):
        workload = fixed_length_queries(100, 10)
        assert len(workload) == 91
        assert np.all(workload.lengths == 10)

    def test_fixed_length_validation(self):
        with pytest.raises(InvalidQueryError):
            fixed_length_queries(10, 11)

    def test_prefix_queries(self):
        workload = prefix_queries(32)
        assert len(workload) == 32
        assert np.all(workload.queries[:, 0] == 0)
        np.testing.assert_array_equal(workload.queries[:, 1], np.arange(32))

    def test_sampled_range_queries_start_points(self):
        workload = sampled_range_queries(64, start_step=16)
        starts = np.unique(workload.queries[:, 0])
        np.testing.assert_array_equal(starts, [0, 16, 32, 48])
        # Every range beginning at a sampled start is present.
        assert len(workload) == 64 + 48 + 32 + 16

    def test_sampled_range_queries_validation(self):
        with pytest.raises(ConfigurationError):
            sampled_range_queries(64, start_step=0)

    def test_random_range_queries(self, rng):
        workload = random_range_queries(128, 50, random_state=rng)
        assert len(workload) == 50
        assert np.all(workload.queries[:, 0] <= workload.queries[:, 1])
        assert workload.queries.max() < 128

    def test_random_range_queries_validation(self):
        with pytest.raises(ConfigurationError):
            random_range_queries(10, -1)


class TestBoxWorkload:
    def test_basic_properties(self):
        from repro.data.workloads import BoxWorkload

        queries = np.array([[0, 3, 1, 2, 0, 0], [2, 2, 0, 7, 3, 5]])
        workload = BoxWorkload(domain_size=8, dims=3, queries=queries, name="w")
        assert len(workload) == 2
        np.testing.assert_array_equal(
            workload.axis_lengths, [[4, 2, 1], [1, 8, 3]]
        )

    def test_rejects_invalid_boxes(self):
        from repro.data.workloads import BoxWorkload

        with pytest.raises(InvalidQueryError):
            BoxWorkload(8, 2, np.array([[3, 1, 0, 0]]))  # start > end
        with pytest.raises(InvalidQueryError):
            BoxWorkload(8, 2, np.array([[0, 8, 0, 0]]))  # exceeds domain
        with pytest.raises(InvalidQueryError):
            BoxWorkload(8, 3, np.array([[0, 1, 0, 1]]))  # wrong column count

    def test_true_answers_match_direct_count(self):
        from repro.data.workloads import BoxWorkload, random_boxes

        rng = np.random.default_rng(9)
        points = rng.integers(0, 8, size=(5000, 3))
        counts = np.zeros((8, 8, 8))
        np.add.at(counts, tuple(points.T), 1)
        boxes = random_boxes(8, 25, dims=3, random_state=10)
        workload = BoxWorkload(8, 3, boxes)

        inside = np.ones(len(points), dtype=bool)[:, None]
        for axis in range(3):
            inside = inside & (
                (points[:, axis][:, None] >= boxes[:, 2 * axis])
                & (points[:, axis][:, None] <= boxes[:, 2 * axis + 1])
            )
        np.testing.assert_allclose(
            workload.true_answers(counts), inside.mean(axis=0)
        )

    def test_subset_respects_limit(self):
        from repro.data.workloads import BoxWorkload, random_boxes

        workload = BoxWorkload(16, 2, random_boxes(16, 50, random_state=11))
        subset = workload.subset(10, random_state=12)
        assert len(subset) == 10
        assert subset.dims == 2


class TestRandomBoxes:
    def test_shape_and_ordering(self):
        from repro.data.workloads import random_boxes

        boxes = random_boxes(32, 40, dims=4, random_state=13)
        assert boxes.shape == (40, 8)
        for axis in range(4):
            assert np.all(boxes[:, 2 * axis] <= boxes[:, 2 * axis + 1])
        assert boxes.min() >= 0 and boxes.max() < 32

    def test_two_dims_keep_the_rectangle_draws(self):
        """Bit-for-bit RNG compatibility: dims=2 draws the x pairs, then the
        y pairs, from one stream, as the 2-D rectangle workloads always did."""
        from repro.data.workloads import random_boxes

        rng = np.random.default_rng(14)
        x_pairs = np.sort(rng.integers(0, 32, size=(25, 2)), axis=1)
        y_pairs = np.sort(rng.integers(0, 32, size=(25, 2)), axis=1)
        np.testing.assert_array_equal(
            random_boxes(32, 25, dims=2, random_state=14),
            np.concatenate([x_pairs, y_pairs], axis=1),
        )
