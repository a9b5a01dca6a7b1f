"""Unit tests for repro.hierarchy.decomposition."""

import numpy as np
import pytest

from repro.exceptions import InvalidQueryError
from repro.hierarchy.decomposition import (
    NodeRun,
    batched_axis_runs,
    decompose_to_runs,
    runs_per_level,
)
from repro.hierarchy.tree import DomainTree


def _runs_to_items(tree: DomainTree, runs):
    """Expand runs back into the covered item set."""
    items = []
    for run in runs:
        for node in range(run.first, run.last + 1):
            start, end = tree.node_range(run.level, node)
            items.extend(range(start, end + 1))
    return sorted(items)


class TestDecomposeToRuns:
    @pytest.mark.parametrize("branching", [2, 4, 8, 16])
    def test_runs_cover_query_exactly(self, branching):
        tree = DomainTree(256, branching)
        for start, end in [(0, 255), (3, 200), (17, 17), (128, 255), (1, 254)]:
            runs = decompose_to_runs(tree, start, end)
            assert _runs_to_items(tree, runs) == list(range(start, end + 1))

    def test_runs_on_padded_domain(self):
        tree = DomainTree(100, 4)
        runs = decompose_to_runs(tree, 0, 99)
        assert _runs_to_items(tree, runs) == list(range(0, 100))

    def test_point_query_is_single_leaf(self):
        tree = DomainTree(64, 4)
        runs = decompose_to_runs(tree, 10, 10)
        assert runs == [NodeRun(level=3, first=10, last=10)]

    def test_whole_domain_is_level_one(self):
        tree = DomainTree(64, 4)
        runs = decompose_to_runs(tree, 0, 63)
        assert runs == [NodeRun(level=1, first=0, last=3)]

    def test_adjacent_nodes_merge_into_one_run(self):
        tree = DomainTree(64, 4)
        # [0, 31] is exactly the first two level-1 nodes for B=4, D=64.
        runs = decompose_to_runs(tree, 0, 31)
        assert runs == [NodeRun(level=1, first=0, last=1)]

    def test_run_counts_are_logarithmic(self):
        tree = DomainTree(1 << 14, 2)
        runs = decompose_to_runs(tree, 3, (1 << 14) - 5)
        assert len(runs) <= 2 * tree.height

    def test_invalid_query(self):
        tree = DomainTree(64, 4)
        with pytest.raises(InvalidQueryError):
            decompose_to_runs(tree, 10, 64)
        with pytest.raises(InvalidQueryError):
            decompose_to_runs(tree, 5, 4)

    def test_node_run_count_property(self):
        assert NodeRun(level=2, first=3, last=7).count == 5


class TestRunsPerLevel:
    def test_grouping(self):
        tree = DomainTree(256, 2)
        runs = decompose_to_runs(tree, 3, 200)
        grouped = runs_per_level(runs)
        assert sum(len(v) for v in grouped.values()) == len(runs)
        for level, level_runs in grouped.items():
            assert all(run.level == level for run in level_runs)
            # At most a left and a right fringe run per level.
            assert len(level_runs) <= 2


class TestBatchedAxisRuns:
    def _slot_nodes(self, runs, query_index):
        """Node set per level covered by one query's run slots."""
        covered = {}
        for level, slots in enumerate(runs, start=1):
            nodes = []
            for first, last in slots:
                nodes.extend(range(int(first[query_index]), int(last[query_index])))
            covered[level] = sorted(nodes)
        return covered

    @pytest.mark.parametrize("domain,branching", [(256, 2), (256, 4), (100, 4), (81, 3)])
    def test_matches_decompose_to_runs(self, domain, branching):
        tree = DomainTree(domain, branching)
        rng = np.random.default_rng(7)
        endpoints = np.sort(rng.integers(0, domain, size=(64, 2)), axis=1)
        queries = np.concatenate(
            [endpoints, [[0, domain - 1], [0, 0], [domain - 1, domain - 1]]]
        )
        runs = batched_axis_runs(tree, queries[:, 0], queries[:, 1])
        for index, (start, end) in enumerate(queries):
            expected = {level: [] for level in tree.levels}
            for run in decompose_to_runs(tree, int(start), int(end)):
                expected[run.level].extend(range(run.first, run.last + 1))
            got = self._slot_nodes(runs, index)
            for level in tree.levels:
                assert got.get(level, []) == sorted(expected[level]), (
                    f"level {level} mismatch for query [{start}, {end}]"
                )

    def test_empty_slots_have_zero_width(self):
        tree = DomainTree(64, 2)
        runs = batched_axis_runs(tree, np.array([10]), np.array([10]))
        total = sum(
            int(last[0] - first[0])
            for slots in runs
            for first, last in slots
        )
        # A point query covers exactly one leaf node.
        assert total == 1

    @pytest.mark.parametrize("domain,branching", [(64, 2), (64, 4), (81, 3)])
    def test_full_domain_folds_into_level_one(self, domain, branching):
        """The implicit root of a full-padded-domain query is the whole
        level-1 run in slot 1; every other slot of it is empty, and every
        level always has exactly two slots."""
        tree = DomainTree(domain, branching)
        runs = batched_axis_runs(tree, np.array([0, 3]), np.array([domain - 1, 9]))
        assert runs.shape == (tree.height, 2, 2, 2)
        first, last = runs[..., 0][:, :, 0], runs[..., 0][:, :, 1]
        widths = last - first
        assert widths[0, 1] == tree.nodes_at_level(1)
        widths[0, 1] = 0
        assert not widths.any()
