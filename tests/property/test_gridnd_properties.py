"""Property tests pinning the N-d grid refactor to the 2-D contract.

PR 9 re-expressed :class:`HierarchicalGrid2D` as the ``d = 2``
specialization of :class:`HierarchicalGridND`.  That refactor is only
safe if it is *invisible*: the 2-D mechanism must keep producing the
exact floats, names, merge signatures and snapshot headers it produced
before, and the generic machinery instantiated at ``dims=2`` must be
bit-identical to it across every collection path (one-shot aggregate,
per-user reports, and interleavings of ``partial_fit_points`` /
``merge_from`` / checkpoint-restore).

The ``GOLDEN`` block below was generated by running the pre-refactor
``HierarchicalGrid2D`` through the recipe in :func:`_run_recipe` and
hex-dumping every float.  It must never be regenerated from current
code — it is the externally pinned truth the refactor is held to.
"""

import numpy as np
import pytest

from repro.analysis.variance import grid_nd_box_variance
from repro.core.multidim import HierarchicalGrid2D, HierarchicalGridND
from repro.data.synthetic import clustered_grid_points
from repro.data.workloads import random_boxes
from repro.persist import snapshots

SIDE = 32
EPSILON = 1.2
BRANCHING = 4

# Hex dumps of the pre-refactor HierarchicalGrid2D outputs (see module
# docstring). Keys mirror the entries produced by _run_recipe.
GOLDEN = {
    "oneshot_aggregate": [
        "0x1.9519ebe3e29d2p-1", "0x1.90657dc73d908p-2",
        "-0x1.99c5e65791400p-10", "-0x1.6fcfa0fca7ce8p-5",
        "-0x1.a36fabf2ef04cp-4", "-0x1.360b6bf8fe9e0p-6",
        "0x1.ebc52b1e59f2ep-2", "0x1.c5ad6e61ce2e8p-5",
        "-0x1.89e2fbb5ee3e8p-4", "0x1.808d8648ac266p-2",
        "0x1.9129f036225efp-3", "0x1.527d66f9be63ap-1",
        "0x1.0fed97847e3e0p-6", "0x1.25c22da056e9cp-3",
        "0x1.cdf333ddf5772p-4", "-0x1.a9fd30faef6c8p-5",
        "0x1.2c5b6ed314485p-1", "0x1.ad8c1dc032e12p-1",
        "0x1.dea335888a708p-2", "-0x1.c8a236b521660p-3",
        "0x1.b34760b8d97dep-1", "-0x1.7d73bcbf0c30dp-3",
        "0x1.1f892d6c87aa0p+0", "0x1.f4afe1c956a80p-6",
    ],
    "oneshot_per_user": [
        "-0x1.b9cd20a316db8p-3", "0x1.b248fcc326bf4p+0",
        "0x1.91fd647e2d7ecp-2", "0x1.3fe8bd59821a0p-3",
        "-0x1.49def009e8ad8p-2", "-0x1.a7946385ffb70p-4",
        "0x1.90625537f3118p-5", "0x1.09f867abca698p-3",
        "0x1.5d91edca4fc78p-2", "-0x1.2c9ee10b945cep-2",
        "0x1.9a86851675ebcp+0", "0x1.783a230e2a939p-3",
        "-0x1.2c38449712e64p-4", "0x1.49ff8db2b7b07p-1",
        "-0x1.e1708cc2a232cp-5", "-0x1.aad1178d18c63p-2",
        "0x1.b9fd9d9448384p-1", "0x1.6ebab187a0ce7p-2",
        "-0x1.1b08f6afc0d5cp-3", "-0x1.008e758e1ff02p-1",
        "0x1.2fe253266ff9fp-2", "0x1.f7c7c4565feb6p-2",
        "0x1.83f6d4bb111e3p-1", "-0x1.64f8533bde560p-6",
    ],
    "interleaved": [
        "0x1.5a2ccf2f592b1p-1", "0x1.7e9b55f5973c8p-1",
        "-0x1.0b44fdcc26f28p-4", "0x1.40f65a7575e0cp-3",
        "0x1.d87fb0ea37c46p-4", "-0x1.7cef4f53b9c0fp-2",
        "0x1.b27c9fb147363p-2", "-0x1.da7054bc29130p-6",
        "0x1.f69bcafbbd259p-3", "-0x1.073a8ea594768p-5",
        "0x1.f33dada55fd4dp-1", "0x1.528108b7ff08cp-1",
        "0x1.99fc042db2cbap-2", "0x1.2fd62eab7fb1dp-2",
        "-0x1.451cf373bd960p-4", "0x1.19c5b801abd9dp+0",
        "0x1.6c2502b805ce0p-4", "0x1.095c59654e962p-1",
        "0x1.4482e5b249548p-3", "0x1.7406e9beef1cap-1",
        "0x1.726708a452aa0p-1", "-0x1.c1e7f0e6702e7p-3",
        "0x1.356a4b118bda2p-1", "-0x1.6195a80ee3ccap-4",
    ],
    # answer_box is row 0 of answer_boxes on the one-row batch.
    "interleaved_single": "0x1.e498badbc5f03p-2",
    "interleaved_heat_sum": "0x1.3a9f15c6885c2p+2",
    "interleaved_flat_range": "0x1.11ed7f40a4cfap+0",
    "variance_bound": "0x1.cc6d673e7aa39p+0",
}


def _hexes(values) -> list:
    return [float(v).hex() for v in np.asarray(values, dtype=float).ravel()]


def _run_recipe(make):
    """Exercise every collection path of a (dims = 2) grid mechanism.

    ``make`` builds a fresh mechanism; the recipe covers one-shot
    aggregate and per-user collection, then an interleaving of partial
    fits in both modes, a checkpoint-restore in the middle of a stream,
    and a merge — all on one shared RNG so report sampling order is part
    of what is being pinned.
    """
    points = clustered_grid_points(SIDE, 4000, random_state=7)
    rects = random_boxes(SIDE, 24, dims=2, random_state=8)
    out = {}

    one = make().fit_points(points, np.random.default_rng(11))
    out["oneshot_aggregate"] = one.answer_boxes(rects)

    per = make().fit_points(
        points[:1200], np.random.default_rng(12), mode="per_user"
    )
    out["oneshot_per_user"] = per.answer_boxes(rects)

    rng = np.random.default_rng(13)
    batches = np.array_split(points, 5)
    a, b = make(), make()
    a.partial_fit_points(batches[0], rng)
    a.partial_fit_points(batches[1], rng, mode="per_user")
    b.partial_fit_points(batches[2], rng)
    b2 = snapshots.from_bytes(snapshots.to_bytes(b))
    b2.partial_fit_points(batches[3], rng)
    a.merge_from(b2)
    a.partial_fit_points(batches[4], rng)

    out["interleaved"] = a.answer_boxes(rects)
    out["interleaved_single"] = a.answer_box(((3, 19), (5, 30)))
    out["interleaved_heat_sum"] = float(np.sum(a.estimate_heatmap()))
    out["interleaved_flat_range"] = a.answer_range(37, 901)
    # The grid closed form at the recipe's population, which pins n_users.
    out["variance_bound"] = grid_nd_box_variance(
        a.epsilon, a.n_users, 9, a.domain_size, a.branching, dims=a.dims
    )
    out["answer_variances"] = a.answer_variances(rects)
    out["heatmap"] = a.estimate_heatmap()
    out["user_counts"] = a.tuple_user_counts
    return out


@pytest.fixture(scope="module")
def recipe_2d():
    return _run_recipe(
        lambda: HierarchicalGrid2D(EPSILON, SIDE, branching=BRANCHING)
    )


@pytest.fixture(scope="module")
def recipe_nd():
    return _run_recipe(
        lambda: HierarchicalGridND(EPSILON, SIDE, dims=2, branching=BRANCHING)
    )


class TestGoldenRegression:
    """HierarchicalGrid2D still emits the pre-refactor floats, bit for bit."""

    @pytest.mark.parametrize(
        "key", ["oneshot_aggregate", "oneshot_per_user", "interleaved"]
    )
    def test_rectangle_answers_match_golden(self, recipe_2d, key):
        assert _hexes(recipe_2d[key]) == GOLDEN[key]

    @pytest.mark.parametrize(
        "key",
        [
            "interleaved_single",
            "interleaved_heat_sum",
            "interleaved_flat_range",
            "variance_bound",
        ],
    )
    def test_scalar_outputs_match_golden(self, recipe_2d, key):
        assert float(recipe_2d[key]).hex() == GOLDEN[key]


class TestGridNDBitIdentity:
    """HierarchicalGridND(dims=2) is the same mechanism as Grid2D."""

    @pytest.mark.parametrize(
        "key", ["oneshot_aggregate", "oneshot_per_user", "interleaved", "answer_variances"]
    )
    def test_rectangle_answers_identical(self, recipe_2d, recipe_nd, key):
        assert np.array_equal(recipe_nd[key], recipe_2d[key])

    @pytest.mark.parametrize(
        "key",
        [
            "interleaved_single",
            "interleaved_heat_sum",
            "interleaved_flat_range",
            "variance_bound",
        ],
    )
    def test_scalars_identical(self, recipe_2d, recipe_nd, key):
        assert float(recipe_nd[key]).hex() == float(recipe_2d[key]).hex()

    def test_heatmap_and_user_counts_identical(self, recipe_2d, recipe_nd):
        assert np.array_equal(recipe_nd["heatmap"], recipe_2d["heatmap"])
        assert np.array_equal(recipe_nd["user_counts"], recipe_2d["user_counts"])

    def test_nd_matches_golden_directly(self, recipe_nd):
        """Transitivity made explicit: the generic path hits the golden
        hexes itself, not merely whatever Grid2D currently produces."""
        assert _hexes(recipe_nd["interleaved"]) == GOLDEN["interleaved"]

    def test_cross_class_merge_rejected(self):
        """dims is part of the N-d merge signature, and Grid2D keeps its
        historical signature — the two classes never merge silently."""
        from repro.exceptions import ConfigurationError

        nd = HierarchicalGridND(EPSILON, SIDE, dims=2, branching=BRANCHING)
        flat = HierarchicalGridND(EPSILON, SIDE, dims=3, branching=BRANCHING)
        with pytest.raises(ConfigurationError):
            nd.merge_from(flat)


class TestPersistCompatibility:
    """Snapshot headers and merge signatures survive the refactor unchanged."""

    def test_grid2d_merge_signature_pinned(self):
        grid = HierarchicalGrid2D(1.2, 32, branching=4)
        assert grid._merge_signature() == (
            "HierarchicalGrid2D", 1.2, 1024, 32, "oue", 4, ()
        )
        assert grid.name == "Grid2DOUE_B4"

    def test_grid2d_snapshot_header_pinned(self):
        grid = HierarchicalGrid2D(1.2, 32, branching=4)
        header = snapshots.describe(snapshots.to_bytes(grid))
        assert header == {
            "config": {
                "branching": 4,
                "domain_size": 32,
                "epsilon": 1.2,
                "kind": "grid2d",
                "name": "Grid2DOUE_B4",
                "oracle": "oue",
                "oracle_kwargs": {},
            },
            "kind": "mechanism",
            "mechanism_class": "HierarchicalGrid2D",
            "signature": ["HierarchicalGrid2D", 1.2, 1024, 32, "oue", 4, []],
            "format_version": 1,
        }

    def test_gridnd_snapshot_carries_dims(self):
        grid = HierarchicalGridND(1.2, 8, dims=3, branching=2)
        header = snapshots.describe(snapshots.to_bytes(grid))
        assert header["config"]["kind"] == "gridnd"
        assert header["config"]["dims"] == 3
        restored = snapshots.from_bytes(snapshots.to_bytes(grid))
        assert isinstance(restored, HierarchicalGridND)
        assert restored.dims == 3


class TestHigherDimensionLaws:
    """The streaming laws the 2-D suite pins also hold at d = 3."""

    @pytest.fixture(scope="class")
    def points_3d(self):
        return clustered_grid_points(8, 12_000, random_state=51, dims=3)

    def test_merge_of_split_population_equals_one_mechanism(self, points_3d):
        batches = np.array_split(points_3d, 3)

        stream = np.random.default_rng(52)
        sequential = HierarchicalGridND(EPSILON, 8, dims=3)
        for batch in batches:
            sequential.partial_fit_points(batch, stream)

        stream = np.random.default_rng(52)
        shards = [
            HierarchicalGridND(EPSILON, 8, dims=3).fit_points(batch, stream)
            for batch in batches
        ]
        merged = HierarchicalGridND(EPSILON, 8, dims=3)
        for shard in shards:
            merged.merge_from(shard)

        assert merged.n_users == len(points_3d)
        assert np.array_equal(
            merged.estimate_heatmap(), sequential.estimate_heatmap()
        )
        assert np.array_equal(
            merged.tuple_user_counts, sequential.tuple_user_counts
        )

    def test_snapshot_round_trip_bit_exact(self, points_3d):
        from repro.data.workloads import random_boxes

        grid = HierarchicalGridND(EPSILON, 8, dims=3, branching=2, oracle="hrr")
        grid.fit_points(points_3d, np.random.default_rng(53))
        boxes = random_boxes(8, 32, dims=3, random_state=54)
        restored = snapshots.from_bytes(snapshots.to_bytes(grid))
        assert np.array_equal(restored.estimate_heatmap(), grid.estimate_heatmap())
        assert np.array_equal(restored.answer_boxes(boxes), grid.answer_boxes(boxes))
