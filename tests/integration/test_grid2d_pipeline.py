"""End-to-end 2-D pipeline: sharded collection, recovery, service, persist.

This is the acceptance contract of bringing the 2-D grid onto the
accumulator substrate: a :class:`~repro.streaming.ShardedCollector` run over
2-D points with a ``checkpoint``/``restore`` mid-stream reproduces the
uninterrupted run's rectangle answers bit-for-bit, and sharded collection
tracks the one-shot ``fit_points`` accuracy for any shard count.
"""

import asyncio

import numpy as np
import pytest

from repro import persist
from repro.core.multidim import HierarchicalGrid2D
from repro.data.synthetic import clustered_grid_points
from repro.data.workloads import random_boxes
from repro.exceptions import ConfigurationError
from repro.service import IngestionService, run_ingestion
from repro.streaming import ShardedCollector

SIDE = 16
EPSILON = 1.5
N_USERS = 30_000
N_BATCHES = 8


@pytest.fixture(scope="module")
def points():
    return clustered_grid_points(SIDE, N_USERS, random_state=51)


@pytest.fixture(scope="module")
def rectangles():
    return random_boxes(SIDE, 48, dims=2, random_state=52)


@pytest.fixture(scope="module")
def truth(points, rectangles):
    inside = (
        (points[:, 0][:, None] >= rectangles[:, 0])
        & (points[:, 0][:, None] <= rectangles[:, 1])
        & (points[:, 1][:, None] >= rectangles[:, 2])
        & (points[:, 1][:, None] <= rectangles[:, 3])
    )
    return inside.mean(axis=0)


def _collector(n_shards: int, seed: int = 53) -> ShardedCollector:
    return ShardedCollector(
        "grid2d_2",
        epsilon=EPSILON,
        domain_size=SIDE,
        n_shards=n_shards,
        random_state=seed,
    )


class TestShardedCollection:
    @pytest.mark.parametrize("n_shards", [1, 2, 4])
    def test_sharded_run_matches_one_shot_accuracy(
        self, points, rectangles, truth, n_shards
    ):
        collector = _collector(n_shards)
        for batch in np.array_split(points, N_BATCHES):
            collector.submit_points(batch)
        reduced = collector.reduce()
        assert isinstance(reduced, HierarchicalGrid2D)
        assert reduced.n_users == N_USERS

        one_shot = HierarchicalGrid2D(EPSILON, SIDE).fit_points(
            points, np.random.default_rng(54)
        )
        mse_sharded = float(
            np.mean((reduced.answer_boxes(rectangles) - truth) ** 2)
        )
        mse_one_shot = float(
            np.mean((one_shot.answer_boxes(rectangles) - truth) ** 2)
        )
        # Shard count is invisible to accuracy: both estimators sit in the
        # same noise regime around the truth.
        assert mse_sharded < 20 * max(mse_one_shot, 1e-6)
        assert reduced.answer_box(((0, SIDE - 1), (0, SIDE - 1))) == pytest.approx(
            1.0, abs=0.2
        )

    def test_submit_points_validates_before_routing(self, points):
        collector = _collector(2)
        with pytest.raises(Exception):
            collector.submit_points(np.array([[0.5, 0.5]]))
        assert collector.n_batches == 0

    def test_submit_points_requires_2d_mechanism(self, points):
        collector = ShardedCollector(
            "hhc_4", epsilon=EPSILON, domain_size=64, n_shards=2, random_state=55
        )
        with pytest.raises(ConfigurationError):
            collector.submit_points(points)


class TestCheckpointRecovery:
    def test_restore_mid_stream_is_bit_exact(self, points, rectangles, tmp_path):
        """The acceptance criterion: crash + restore changes nothing."""
        batches = np.array_split(points, N_BATCHES)
        half = N_BATCHES // 2

        uninterrupted = _collector(3)
        for batch in batches:
            uninterrupted.submit_points(batch)
        expected = uninterrupted.reduce()

        crashed = _collector(3)
        for batch in batches[:half]:
            crashed.submit_points(batch)
        path = crashed.checkpoint(tmp_path / "grid2d.snap")
        del crashed

        resumed = ShardedCollector.restore(path)
        for batch in batches[half:]:
            resumed.submit_points(batch)
        actual = resumed.reduce()

        assert np.array_equal(
            expected.answer_boxes(rectangles),
            actual.answer_boxes(rectangles),
        )
        assert np.array_equal(expected.estimate_heatmap(), actual.estimate_heatmap())


class TestIngestionService:
    def test_async_point_submission(self, points, rectangles, truth):
        async def run():
            collector = _collector(2, seed=56)
            async with IngestionService(collector, queue_size=4) as service:
                for batch in np.array_split(points, N_BATCHES):
                    await service.submit_points(batch)
                await service.join()
            return collector.reduce()

        reduced = asyncio.run(run())
        assert reduced.n_users == N_USERS
        mse = float(np.mean((reduced.answer_boxes(rectangles) - truth) ** 2))
        assert mse < 0.05

    def test_run_ingestion_over_flattened_batches(self, points):
        collector = _collector(2, seed=57)
        template = HierarchicalGrid2D(EPSILON, SIDE)
        batches = [
            template.flatten_points(batch)
            for batch in np.array_split(points, N_BATCHES)
        ]
        report = run_ingestion(collector, batches, n_producers=2)
        assert report.n_users == N_USERS
        assert collector.reduce().n_users == N_USERS


class TestGrid2DMechanism:
    def test_fit_save_load(self, points, tmp_path):
        grid = HierarchicalGrid2D(EPSILON, SIDE)
        grid.fit_points(points, random_state=58)
        assert grid.n_users == N_USERS
        everything = ((0, SIDE - 1), (0, SIDE - 1))
        full = grid.answer_box(everything)
        assert full == pytest.approx(1.0, abs=0.2)

        path = persist.save(grid, tmp_path / "grid2d.snap")
        loaded = persist.load(path)
        assert isinstance(loaded, HierarchicalGrid2D)
        assert np.array_equal(loaded.estimate_heatmap(), grid.estimate_heatmap())
        assert loaded.answer_box(everything) == full

    def test_run_ingestion_then_reduce_and_merge(self, points):
        """Points flattened through ``flatten_points``, ingested by
        ``run_ingestion`` and reduced, fold into a fitted grid."""
        grid = HierarchicalGrid2D(EPSILON, SIDE)
        grid.fit_points(points[:10_000], random_state=59)
        collector = _collector(2, seed=59)
        batches = [
            grid.flatten_points(batch)
            for batch in np.array_split(points[10_000:], N_BATCHES)
        ]
        report = run_ingestion(collector, batches, n_producers=2)
        assert report.n_users == N_USERS - 10_000
        grid.merge_from(collector.reduce())
        assert grid.n_users == N_USERS
        assert grid.answer_box(((0, SIDE - 1), (0, SIDE - 1))) == pytest.approx(
            1.0, abs=0.25
        )

    def test_merge_from_shard_mechanism(self, points):
        stream = np.random.default_rng(60)
        first = HierarchicalGrid2D(EPSILON, SIDE).fit_points(points[:15_000], stream)
        second = HierarchicalGrid2D(EPSILON, SIDE).fit_points(points[15_000:], stream)
        first.merge_from(second)
        assert first.n_users == N_USERS
