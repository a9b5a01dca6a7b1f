"""Unit tests for repro.hierarchy.decomposition."""

import numpy as np
import pytest

from repro.hierarchy.decomposition import batched_axis_runs
from repro.hierarchy.tree import DomainTree


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
    def test_runs_cover_each_query_exactly(self, domain, branching):
        tree = DomainTree(domain, branching)
        rng = np.random.default_rng(7)
        endpoints = np.sort(rng.integers(0, domain, size=(64, 2)), axis=1)
        queries = np.concatenate(
            [endpoints, [[0, domain - 1], [0, 0], [domain - 1, domain - 1]]]
        )
        runs = batched_axis_runs(tree, queries[:, 0], queries[:, 1])
        for index, (start, end) in enumerate(queries):
            items = []
            for level, nodes in self._slot_nodes(runs, index).items():
                size = tree.block_size(level)
                for node in nodes:
                    items.extend(range(node * size, (node + 1) * size))
            assert sorted(items) == list(range(start, end + 1)), (
                f"query [{start}, {end}] not covered exactly"
            )

    def test_adjacent_nodes_share_one_run(self):
        tree = DomainTree(64, 4)
        # [0, 31] is exactly the first two level-1 nodes for B=4, D=64: one
        # run, in the level's right-peel slot.
        runs = batched_axis_runs(tree, np.array([0]), np.array([31]))
        widths = (runs[..., 1, 0] - runs[..., 0, 0]).tolist()
        assert widths == [[0, 2], [0, 0], [0, 0]]

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
