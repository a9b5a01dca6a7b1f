"""End-to-end 3-D pipeline: sharded ingest, persist round-trip, box queries.

The N-d acceptance demo from PR 9: a ``d = 3`` population flows through
``ShardedCollector.submit_points`` (now d-column aware), the reduced
mechanism survives a snapshot round-trip bit-for-bit, box queries track
the exact answers, and the planner's chosen configuration is the one that
runs when asked for an ``"auto"`` mechanism.
"""

import asyncio

import numpy as np
import pytest

from repro.core.factory import mechanism_from_spec
from repro.core.multidim import HierarchicalGridND
from repro.data.synthetic import clustered_grid_points
from repro.data.workloads import BoxWorkload, evaluate_exact_boxes, random_boxes
from repro.persist import snapshots
from repro.planner import plan
from repro.service import IngestionService
from repro.streaming import ShardedCollector

SIDE = 8
DIMS = 3
EPSILON = 1.4
N_USERS = 24_000
N_BATCHES = 6


@pytest.fixture(scope="module")
def points():
    return clustered_grid_points(SIDE, N_USERS, random_state=71, dims=DIMS)


@pytest.fixture(scope="module")
def boxes():
    return random_boxes(SIDE, 40, dims=DIMS, random_state=72)


@pytest.fixture(scope="module")
def truth(points, boxes):
    counts = np.zeros((SIDE,) * DIMS)
    np.add.at(counts, tuple(points.T), 1)
    return evaluate_exact_boxes(counts, boxes, dims=DIMS)


def _collector(n_shards: int, seed: int = 73) -> ShardedCollector:
    return ShardedCollector(
        f"grid{DIMS}d_2",
        epsilon=EPSILON,
        domain_size=SIDE,
        n_shards=n_shards,
        random_state=seed,
    )


class TestShardedIngest:
    @pytest.mark.parametrize("n_shards", [1, 3])
    def test_ingest_reduce_query(self, points, boxes, truth, n_shards):
        collector = _collector(n_shards)
        for batch in np.array_split(points, N_BATCHES):
            collector.submit_points(batch)
        reduced = collector.reduce()
        assert isinstance(reduced, HierarchicalGridND)
        assert reduced.dims == DIMS
        assert reduced.n_users == N_USERS

        estimates = reduced.answer_boxes(boxes)
        mse = float(np.mean((estimates - truth) ** 2))
        assert mse < float(reduced.theoretical_variance_bound(SIDE))
        full = reduced.answer_box(((0, SIDE - 1),) * DIMS)
        assert full == pytest.approx(1.0, abs=0.25)

    def test_submit_points_validates_column_count(self, points):
        collector = _collector(2)
        with pytest.raises(Exception):
            collector.submit_points(points[:, :2])  # d-1 columns
        assert collector.n_batches == 0

    def test_async_ingestion_service(self, points, boxes, truth):
        async def run():
            collector = _collector(2, seed=74)
            async with IngestionService(collector, queue_size=4) as service:
                for batch in np.array_split(points, N_BATCHES):
                    await service.submit_points(batch)
                await service.join()
            return collector.reduce()

        reduced = asyncio.run(run())
        assert reduced.n_users == N_USERS
        mse = float(np.mean((reduced.answer_boxes(boxes) - truth) ** 2))
        assert mse < float(reduced.theoretical_variance_bound(SIDE))


class TestPersistRoundTrip:
    def test_reduced_mechanism_round_trips_bit_exact(self, points, boxes):
        collector = _collector(3, seed=75)
        for batch in np.array_split(points, N_BATCHES):
            collector.submit_points(batch)
        reduced = collector.reduce()

        restored = snapshots.from_bytes(snapshots.to_bytes(reduced))
        assert isinstance(restored, HierarchicalGridND)
        assert restored.dims == DIMS
        assert np.array_equal(restored.answer_boxes(boxes), reduced.answer_boxes(boxes))
        assert np.array_equal(restored.estimate_heatmap(), reduced.estimate_heatmap())

    def test_collector_checkpoint_mid_stream(self, points, boxes, tmp_path):
        batches = np.array_split(points, N_BATCHES)
        half = N_BATCHES // 2

        uninterrupted = _collector(2, seed=76)
        for batch in batches:
            uninterrupted.submit_points(batch)
        expected = uninterrupted.reduce()

        crashed = _collector(2, seed=76)
        for batch in batches[:half]:
            crashed.submit_points(batch)
        path = crashed.checkpoint(tmp_path / "grid3d.snap")
        del crashed

        resumed = ShardedCollector.restore(path)
        for batch in batches[half:]:
            resumed.submit_points(batch)
        actual = resumed.reduce()

        assert np.array_equal(
            expected.answer_boxes(boxes), actual.answer_boxes(boxes)
        )


class TestGridNDMechanism:
    def test_fit_save_load_query(self, points, boxes, tmp_path):
        grid = mechanism_from_spec(f"grid{DIMS}d_2", epsilon=EPSILON, domain_size=SIDE)
        grid.fit_points(points, random_state=77)
        assert grid.dims == DIMS
        assert grid.n_users == N_USERS
        full = grid.answer_box(((0, SIDE - 1),) * DIMS)
        assert full == pytest.approx(1.0, abs=0.25)

        path = snapshots.save(grid, tmp_path / "grid3d.snap")
        loaded = snapshots.load(path)
        assert isinstance(loaded, HierarchicalGridND)
        assert np.array_equal(loaded.answer_boxes(boxes), grid.answer_boxes(boxes))
        assert np.array_equal(loaded.estimate_heatmap(), grid.estimate_heatmap())


class TestPlannerDrivenPipeline:
    def test_planned_mechanism_answers_the_planned_workload(self, points, boxes, truth):
        workload = BoxWorkload(SIDE, DIMS, boxes, name="pipeline-boxes")
        chosen = plan(
            workload, n_users=N_USERS, epsilon=EPSILON, branchings=(2, 4)
        )
        mechanism = chosen.mechanism()
        assert isinstance(mechanism, HierarchicalGridND)
        assert mechanism.dims == DIMS

        mechanism.fit_points(points, np.random.default_rng(78))
        mse = float(np.mean((mechanism.answer_boxes(boxes) - truth) ** 2))
        assert mse < chosen.predicted_variance
        assert mse < float(mechanism.theoretical_variance_bound(SIDE))

    def test_planner_pick_beats_worst_candidate(self):
        """The closed-form ranking's best candidate measures a lower box MSE
        than its worst one, fitted on the same points with the same seed."""
        side, n_users, epsilon = 16, 40_000, 1.1
        points = clustered_grid_points(side, n_users, random_state=21, dims=DIMS)
        boxes = random_boxes(side, 400, dims=DIMS, random_state=22)
        counts = np.zeros((side,) * DIMS)
        np.add.at(counts, tuple(points.T), 1)
        exact = evaluate_exact_boxes(counts, boxes, dims=DIMS)
        chosen = plan(
            BoxWorkload(side, DIMS, boxes),
            n_users=n_users,
            epsilon=epsilon,
            branchings=(2, 4, 16),
        )
        assert chosen.best.spec != chosen.worst.spec

        def measured_mse(spec):
            mechanism = mechanism_from_spec(spec, epsilon=epsilon, domain_size=side)
            mechanism.fit_points(points, random_state=28)
            return float(np.mean((mechanism.answer_boxes(boxes) - exact) ** 2))

        assert measured_mse(chosen.best.spec) < measured_mse(chosen.worst.spec)
