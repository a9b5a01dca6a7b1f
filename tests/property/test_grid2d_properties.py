"""Property tests for the 2-D grid's streaming and persistence laws.

The 2-D mechanism sits on the same accumulator substrate as the 1-D
families, so the same laws must hold: shard-count invariance (splitting a
population across mechanisms and merging equals collecting it on one),
snapshot round-trip bit-exactness, and strict input validation (no silent
float truncation).
"""

import numpy as np
import pytest

from repro.core.multidim import HierarchicalGrid2D
from repro.data.synthetic import clustered_grid_points
from repro.data.workloads import random_boxes
from repro.exceptions import InvalidQueryError
from repro.persist import snapshots

SIDE = 16
EPSILON = 1.5
N_USERS = 30_000


@pytest.fixture(scope="module")
def points():
    return clustered_grid_points(SIDE, N_USERS, random_state=23)


@pytest.fixture(scope="module")
def rectangles():
    return random_boxes(SIDE, 64, dims=2, random_state=24)


def _truth(points, rectangles):
    inside = (
        (points[:, 0][:, None] >= rectangles[:, 0])
        & (points[:, 0][:, None] <= rectangles[:, 1])
        & (points[:, 1][:, None] >= rectangles[:, 2])
        & (points[:, 1][:, None] <= rectangles[:, 3])
    )
    return inside.mean(axis=0)


class TestShardCountInvariance:
    @pytest.mark.parametrize("n_parts", [2, 3, 5])
    def test_merge_of_split_population_equals_one_mechanism(self, points, n_parts):
        """Feeding shards from one random stream and merging is bit-identical
        to one mechanism collecting the batches sequentially."""
        batches = np.array_split(points, n_parts)

        stream = np.random.default_rng(31)
        sequential = HierarchicalGrid2D(EPSILON, SIDE)
        for batch in batches:
            sequential.partial_fit_points(batch, stream)

        stream = np.random.default_rng(31)
        shards = [
            HierarchicalGrid2D(EPSILON, SIDE).fit_points(batch, stream)
            for batch in batches
        ]
        merged = HierarchicalGrid2D(EPSILON, SIDE)
        for shard in shards:
            merged.merge_from(shard)

        assert merged.n_users == N_USERS
        assert np.array_equal(merged.estimate_heatmap(), sequential.estimate_heatmap())
        assert np.array_equal(
            merged.tuple_user_counts, sequential.tuple_user_counts
        )

    def test_split_estimates_track_one_shot_accuracy(self, points, rectangles):
        """Shard count is a throughput knob: rectangle MSE stays in the same
        regime whether the population is collected in 1, 2 or 8 parts."""
        truth = _truth(points, rectangles)

        def mse(n_parts, seed):
            stream = np.random.default_rng(seed)
            merged = HierarchicalGrid2D(EPSILON, SIDE)
            for batch in np.array_split(points, n_parts):
                merged.partial_fit_points(batch, stream)
            return float(np.mean((merged.answer_boxes(rectangles) - truth) ** 2))

        reference = np.median([mse(1, seed) for seed in range(5)])
        for n_parts in (2, 8):
            split = np.median([mse(n_parts, seed + 100) for seed in range(5)])
            assert split < 10 * reference
            assert reference < 10 * split


class TestSnapshotRoundTrip:
    def test_bytes_round_trip_bit_exact(self, points, rectangles):
        grid = HierarchicalGrid2D(EPSILON, SIDE, branching=4, oracle="hrr")
        grid.fit_points(points, np.random.default_rng(40))
        restored = snapshots.from_bytes(snapshots.to_bytes(grid))
        assert isinstance(restored, HierarchicalGrid2D)
        assert restored.branching == 4
        assert np.array_equal(restored.estimate_heatmap(), grid.estimate_heatmap())
        assert np.array_equal(
            restored.answer_boxes(rectangles), grid.answer_boxes(rectangles)
        )

    def test_restored_grid_keeps_collecting(self, points):
        stream = np.random.default_rng(41)
        grid = HierarchicalGrid2D(EPSILON, SIDE).fit_points(points[:10_000], stream)
        restored = snapshots.from_bytes(snapshots.to_bytes(grid))
        restored.partial_fit_points(points[10_000:], stream)
        assert restored.n_users == N_USERS
        assert restored.answer_box(((0, SIDE - 1), (0, SIDE - 1))) == pytest.approx(
            1.0, abs=0.25
        )

    def test_template_mismatch_rejected(self, points):
        from repro.exceptions import ConfigurationError

        grid = HierarchicalGrid2D(EPSILON, SIDE).fit_points(
            points[:1000], np.random.default_rng(42)
        )
        data = snapshots.to_bytes(grid)
        with pytest.raises(ConfigurationError):
            snapshots.from_bytes(data, template=HierarchicalGrid2D(EPSILON, 32))
        with pytest.raises(ConfigurationError):
            snapshots.from_bytes(data, template=HierarchicalGrid2D(0.7, SIDE))


class TestValidation:
    @pytest.mark.parametrize(
        "bad",
        [
            np.array([[0.9, 0.2]]),
            np.array([[1.0, np.nan]]),
            np.array([[np.inf, 1.0]]),
            np.array([[-1, 0]]),
            np.array([[0, SIDE]]),
            np.zeros((4, 3)),
            np.arange(6),
        ],
        ids=["float", "nan", "inf", "negative", "out-of-range", "3-col", "1-d"],
    )
    def test_bad_points_rejected_everywhere(self, bad):
        grid = HierarchicalGrid2D(EPSILON, SIDE)
        with pytest.raises(InvalidQueryError):
            grid.fit_points(bad)
        with pytest.raises(InvalidQueryError):
            grid.partial_fit_points(bad)
        with pytest.raises(InvalidQueryError):
            grid.flatten_points(bad)

    def test_rejection_leaves_state_untouched(self, points):
        stream = np.random.default_rng(43)
        grid = HierarchicalGrid2D(EPSILON, SIDE).fit_points(points[:2000], stream)
        before = grid.estimate_heatmap()
        with pytest.raises(InvalidQueryError):
            grid.partial_fit_points(np.array([[0.5, 0.5]]), stream)
        assert grid.n_users == 2000
        assert np.array_equal(grid.estimate_heatmap(), before)
