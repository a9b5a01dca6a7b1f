"""Unit tests for the two-dimensional extension."""

import numpy as np
import pytest

from repro.core.multidim import _MAX_LEVEL_TUPLES, HierarchicalGrid2D, HierarchicalGridND
from repro.frequency_oracles.registry import make_oracle
from repro.exceptions import (
    ConfigurationError,
    InvalidDomainError,
    InvalidQueryError,
    NotFittedError,
)


@pytest.fixture
def grid_points(rng):
    """A clustered 2-D population on a 16 x 16 grid."""
    n = 40_000
    x = np.clip(rng.normal(5, 2, size=n).astype(int), 0, 15)
    y = np.clip(rng.normal(10, 2, size=n).astype(int), 0, 15)
    return np.stack([x, y], axis=1)


class TestConfiguration:
    def test_geometry(self):
        grid = HierarchicalGrid2D(1.0, 16, branching=2)
        assert grid.height == 4
        assert grid.domain_size == 16
        assert grid.flat_domain_size == 256
        assert len(grid.level_tuples) == 16

    def test_invalid_domain(self):
        with pytest.raises(InvalidDomainError):
            HierarchicalGrid2D(1.0, 1)

    def test_level_tuple_cap_is_pinned(self):
        """``h^d`` level tuples are capped at 1,024 before any is built.
        The largest grid a test, benchmark or perfbench workload builds
        has 5^3 = 125 tuples (side 32 over three axes, B = 2; perfbench's
        dashboard grid is side 64 over two axes, 6^2 = 36)."""
        assert _MAX_LEVEL_TUPLES == 1024
        assert len(HierarchicalGridND(1.0, 32, dims=3)._tuples) == 125
        assert len(HierarchicalGridND(1.0, 4, dims=10)._tuples) == 1024
        with pytest.raises(InvalidDomainError, match="2\\^11 level tuples"):
            HierarchicalGridND(1.0, 4, dims=11)

    def test_not_fitted(self):
        grid = HierarchicalGrid2D(1.0, 16)
        with pytest.raises(NotFittedError):
            grid.answer_box(((0, 3), (0, 3)))
        with pytest.raises(NotFittedError):
            grid.estimate_heatmap()


class TestCollection:
    def test_fit_points_validation(self, rng):
        grid = HierarchicalGrid2D(1.0, 16)
        with pytest.raises(InvalidQueryError):
            grid.fit_points(np.array([[0, 16]]), rng)
        with pytest.raises(InvalidQueryError):
            grid.fit_points(np.zeros((3, 3)), rng)

    def test_float_coordinates_rejected(self, rng):
        """Silent truncation of [[0.9, 0.2]] -> [[0, 0]] must not happen."""
        grid = HierarchicalGrid2D(1.0, 16)
        with pytest.raises(InvalidQueryError, match="integer dtype"):
            grid.fit_points(np.array([[0.9, 0.2]]), rng)

    def test_nan_coordinates_rejected(self, rng):
        grid = HierarchicalGrid2D(1.0, 16)
        with pytest.raises(InvalidQueryError):
            grid.fit_points(np.array([[1.0, np.nan]]), rng)

    def test_negative_coordinates_rejected(self, rng):
        grid = HierarchicalGrid2D(1.0, 16)
        with pytest.raises(InvalidQueryError):
            grid.fit_points(np.array([[-1, 2]]), rng)

    def test_fit_sets_population(self, grid_points, rng):
        grid = HierarchicalGrid2D(1.0, 16).fit_points(grid_points, rng)
        assert grid.is_fitted
        assert grid.n_users == grid_points.shape[0]

    def test_flatten_points_row_major(self):
        grid = HierarchicalGrid2D(1.0, 16)
        flat = grid.flatten_points(np.array([[0, 0], [1, 2], [15, 15]]))
        assert flat.tolist() == [0, 18, 255]

    def test_tuple_user_counts_sum_to_population(self, grid_points, rng):
        grid = HierarchicalGrid2D(1.0, 16).fit_points(grid_points, rng)
        assert grid.tuple_user_counts.sum() == grid_points.shape[0]

    def test_per_user_mode(self, grid_points, rng):
        grid = HierarchicalGrid2D(1.5, 16).fit_points(
            grid_points[:4000], rng, mode="per_user"
        )
        assert grid.n_users == 4000
        assert grid.answer_box(((0, 15), (0, 15))) == pytest.approx(1.0, abs=0.4)


class TestStreamingSurface:
    def test_partial_fit_points_accumulates(self, grid_points, rng):
        grid = HierarchicalGrid2D(1.5, 16)
        grid.partial_fit_points(grid_points[:20_000], rng)
        assert grid.n_users == 20_000
        grid.partial_fit_points(grid_points[20_000:], rng)
        assert grid.n_users == grid_points.shape[0]
        assert grid.answer_box(((0, 15), (0, 15))) == pytest.approx(1.0, abs=0.2)

    def test_merge_equals_sequential_partial_fit(self, grid_points):
        """Merging shards fed from one stream == one mechanism, bit-for-bit."""
        shared = np.random.default_rng(3)
        sequential = HierarchicalGrid2D(1.5, 16)
        sequential.partial_fit_points(grid_points[:20_000], shared)
        sequential.partial_fit_points(grid_points[20_000:], shared)

        shared = np.random.default_rng(3)
        first = HierarchicalGrid2D(1.5, 16).fit_points(grid_points[:20_000], shared)
        second = HierarchicalGrid2D(1.5, 16).fit_points(grid_points[20_000:], shared)
        merged = HierarchicalGrid2D(1.5, 16)
        merged.merge_from(first)
        merged.merge_from(second)

        assert merged.n_users == sequential.n_users
        assert np.array_equal(
            merged.estimate_heatmap(), sequential.estimate_heatmap()
        )
        rect = ((2, 9), (6, 13))
        assert merged.answer_box(rect) == sequential.answer_box(rect)

    def test_merge_rejects_different_configuration(self, grid_points, rng):
        fitted = HierarchicalGrid2D(1.5, 16).fit_points(grid_points[:1000], rng)
        with pytest.raises(ConfigurationError):
            HierarchicalGrid2D(1.5, 16, branching=4).merge_from(fitted)
        with pytest.raises(ConfigurationError):
            HierarchicalGrid2D(0.5, 16).merge_from(fitted)

    def test_state_dict_round_trip_bit_exact(self, grid_points, rng):
        grid = HierarchicalGrid2D(1.5, 16).fit_points(grid_points, rng)
        restored = HierarchicalGrid2D(1.5, 16).load_state_dict(grid.state_dict())
        assert restored.n_users == grid.n_users
        assert np.array_equal(restored.estimate_heatmap(), grid.estimate_heatmap())
        assert restored.answer_box(((1, 9), (3, 12))) == grid.answer_box(
            ((1, 9), (3, 12))
        )

    def test_unfitted_state_dict_round_trip(self):
        grid = HierarchicalGrid2D(1.5, 16)
        restored = HierarchicalGrid2D(1.5, 16).load_state_dict(grid.state_dict())
        assert not restored.is_fitted


class TestAnswers:
    def test_full_grid_close_to_one(self, grid_points, rng):
        grid = HierarchicalGrid2D(1.5, 16).fit_points(grid_points, rng)
        assert grid.answer_box(((0, 15), (0, 15))) == pytest.approx(1.0, abs=0.15)

    def test_rectangle_close_to_truth(self, grid_points, rng):
        grid = HierarchicalGrid2D(1.5, 16).fit_points(grid_points, rng)
        truth = np.mean(
            (grid_points[:, 0] >= 2)
            & (grid_points[:, 0] <= 9)
            & (grid_points[:, 1] >= 6)
            & (grid_points[:, 1] <= 13)
        )
        assert grid.answer_box(((2, 9), (6, 13))) == pytest.approx(truth, abs=0.15)

    def test_heatmap_shape(self, grid_points, rng):
        grid = HierarchicalGrid2D(1.0, 16).fit_points(grid_points, rng)
        assert grid.estimate_heatmap().shape == (16, 16)

    def test_single_cell_rectangles_match_heatmap(self, grid_points, rng):
        """Leaf-resolution consistency: 1x1 rectangles ARE the heatmap."""
        grid = HierarchicalGrid2D(1.0, 16).fit_points(grid_points, rng)
        heatmap = grid.estimate_heatmap()
        for x, y in [(0, 0), (5, 10), (15, 15), (7, 3)]:
            assert grid.answer_box(((x, x), (y, y))) == pytest.approx(
                heatmap[x, y], abs=1e-12
            )

    def test_row_blocks_sum_to_full_rectangle(self, grid_points, rng):
        """Disjoint covers of the same rectangle agree at leaf resolution."""
        grid = HierarchicalGrid2D(1.0, 16).fit_points(grid_points, rng)
        heatmap = grid.estimate_heatmap()
        block = heatmap[2:10, 6:14].sum()
        cells = sum(
            grid.answer_box(((x, x), (y, y)))
            for x in range(2, 10)
            for y in range(6, 14)
        )
        assert cells == pytest.approx(block, abs=1e-9)

    def test_answer_boxes_vectorised(self, grid_points, rng):
        grid = HierarchicalGrid2D(1.0, 16).fit_points(grid_points, rng)
        queries = np.array([[0, 15, 0, 15], [2, 9, 6, 13], [5, 5, 10, 10]])
        batched = grid.answer_boxes(queries)
        singles = [
            grid.answer_box(((x0, x1), (y0, y1))) for x0, x1, y0, y1 in queries
        ]
        assert np.allclose(batched, singles)
        with pytest.raises(InvalidQueryError):
            grid.answer_boxes(np.array([[0, 1, 2]]))

    @pytest.mark.parametrize("side,branching", [(16, 2), (11, 3), (27, 4)])
    def test_batched_rectangles_match_per_query_path(self, rng, side, branching):
        """The per-level-pair gathers agree with the run-product loop on a
        dense random workload, including padded (non-power) domains."""
        points = np.random.default_rng(1).integers(0, side, size=(20_000, 2))
        grid = HierarchicalGrid2D(1.5, side, branching=branching).fit_points(
            points, rng
        )
        starts = np.random.default_rng(2).integers(0, side, size=(300, 2))
        spans = np.random.default_rng(3).integers(0, side, size=(300, 2))
        x0, y0 = starts[:, 0], starts[:, 1]
        x1 = np.minimum(side - 1, x0 + spans[:, 0])
        y1 = np.minimum(side - 1, y0 + spans[:, 1])
        queries = np.stack([x0, x1, y0, y1], axis=1)
        batched = grid.answer_boxes(queries)
        singles = np.array(
            [grid.answer_box(((a, b), (c, d))) for a, b, c, d in queries]
        )
        np.testing.assert_allclose(batched, singles, atol=1e-12)

    def test_answer_boxes_empty_and_invalid(self, grid_points, rng):
        grid = HierarchicalGrid2D(1.0, 16).fit_points(grid_points, rng)
        assert grid.answer_boxes(np.empty((0, 4), dtype=np.int64)).shape == (0,)
        with pytest.raises(InvalidQueryError):
            grid.answer_boxes(np.array([[0, 16, 0, 15]]))  # x_end out of range
        with pytest.raises(InvalidQueryError):
            grid.answer_boxes(np.array([[5, 2, 0, 15]]))  # reversed x range

    def test_flattened_range_equals_rectangles(self, grid_points, rng):
        """A row-major item range is answered as its rectangle cover."""
        grid = HierarchicalGrid2D(1.0, 16).fit_points(grid_points, rng)
        # One full row: items [16, 31] == rectangle x=1, y in [0, 15].
        assert grid.answer_range(16, 31) == pytest.approx(
            grid.answer_box(((1, 1), (0, 15))), abs=1e-12
        )
        # A range spanning rows decomposes into its three-rectangle cover
        # (partial first row, middle rows, partial last row).
        assert grid.answer_range(5, 250) == pytest.approx(
            grid.answer_box(((0, 0), (5, 15)))
            + grid.answer_box(((1, 14), (0, 15)))
            + grid.answer_box(((15, 15), (0, 10))),
            abs=1e-12,
        )

    def test_quantiles_walk_the_flattened_domain(self, rng):
        """Regression: inherited quantiles must not clip to the side length.

        With every user at (8, 8) the flattened median is 8*16 + 8 = 136;
        clamping by ``domain_size`` (the side, 16) used to return 15.
        """
        points = np.full((5000, 2), 8, dtype=np.int64)
        grid = HierarchicalGrid2D(3.0, 16).fit_points(points, rng)
        median = grid.quantile(0.5)
        assert abs(median - 136) <= 16  # within one row of the true cell

    def test_estimate_frequencies_is_flat_heatmap(self, grid_points, rng):
        grid = HierarchicalGrid2D(1.0, 16).fit_points(grid_points, rng)
        assert np.array_equal(
            grid.estimate_frequencies(), grid.estimate_heatmap().reshape(-1)
        )

    def test_answer_variances_take_boxes(self, grid_points, rng):
        grid = HierarchicalGrid2D(1.0, 16).fit_points(grid_points, rng)
        boxes = np.array([[0, 3, 4, 7], [2, 9, 0, 15]], dtype=np.int32)
        variances = grid.answer_variances(boxes)
        assert np.all(variances > 0)
        assert np.array_equal(variances, grid.answer_variances(boxes.tolist()))
        for rows in ([[0, 16, 0, 3]], [[0.0, 3.0, 0.0, 3.0]], [[True, 3, 0, 3]], [[0, 3]]):
            with pytest.raises(InvalidQueryError):
                grid.answer_variances(rows)

    def test_answer_variances_multiply_per_axis_node_counts(self):
        """A box sums the cells of its per-axis run products; with every
        level tuple at the same expected users, its variance is
        ``V_F(N / h^d)`` times the product of the per-axis node counts."""
        grid = HierarchicalGrid2D(1.0, 16)  # B = 2, h = 4
        # Axis nodes: [0, 0] is one leaf; [1, 4] is [1], [2, 3], [4];
        # [1, 14] is [1], [2, 3], [4, 7], [8, 11], [12, 13], [14].
        boxes = [[0, 0, 0, 0], [1, 4, 0, 0], [1, 4, 1, 4], [1, 14, 1, 4], [0, 15, 0, 15]]
        nodes = np.array([1, 3, 9, 18, 4])
        unit = make_oracle("oue", 1.0, 16).theoretical_variance(1600 / 16)
        np.testing.assert_allclose(
            grid.answer_variances(boxes, n_users=1600), nodes * unit, rtol=1e-12
        )
