"""Range query decomposition onto tree nodes.

A range query ``[a, b]`` is answered by summing the estimated weights of the
nodes in its B-adic decomposition.  To make evaluating large query workloads
cheap, the decomposition is expressed as *runs*: per tree level, a contiguous
span of node indices.  With per-level prefix sums of the estimates, each run
costs O(1) to evaluate, so a query costs ``O(B log_B D)`` regardless of its
length.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Sequence, Tuple

import numpy as np

from repro import kernels
from repro.exceptions import InvalidQueryError
from repro.hierarchy.tree import DomainTree
from repro.transforms.badic import badic_decompose

__all__ = [
    "NodeRun",
    "batched_axis_runs",
    "batched_range_sums",
    "decompose_box_to_runs",
    "decompose_to_runs",
    "runs_per_level",
]


@dataclass(frozen=True)
class NodeRun:
    """A contiguous run of node indices at one tree level.

    Attributes
    ----------
    level:
        Tree level of the run (1 = children of the root, ``h`` = leaves).
    first, last:
        Inclusive node-index bounds of the run.
    """

    level: int
    first: int
    last: int

    @property
    def count(self) -> int:
        return self.last - self.first + 1


def decompose_to_runs(tree: DomainTree, start: int, end: int) -> List[NodeRun]:
    """Decompose a range query into per-level runs of tree nodes.

    Parameters
    ----------
    tree:
        Domain tree describing the hierarchy geometry.
    start, end:
        Inclusive item bounds of the query; must lie inside the original
        domain.

    Returns
    -------
    list of :class:`NodeRun`
        Runs over *tree* levels.  Adjacent B-adic intervals of the same size
        are merged into a single run, so the number of runs is at most two
        per level.
    """
    if not 0 <= start <= end < tree.domain_size:
        raise InvalidQueryError(
            f"invalid range [{start}, {end}] for domain of size {tree.domain_size}"
        )
    intervals = badic_decompose(start, end, tree.branching, domain_size=tree.padded_size)
    runs: List[NodeRun] = []
    for interval in intervals:
        # A B-adic interval of length B^j corresponds to a node at tree level
        # h - j with node index `interval.index`.
        level = tree.height - interval.level
        if level == 0:
            # The whole (padded) domain: weight is the root, which is exactly
            # the total fraction.  Express it as the full run of level-1
            # nodes so that callers never need a special root estimate.
            runs.append(NodeRun(level=1, first=0, last=tree.nodes_at_level(1) - 1))
            continue
        index = interval.index
        if runs and runs[-1].level == level and runs[-1].last == index - 1:
            runs[-1] = NodeRun(level=level, first=runs[-1].first, last=index)
        else:
            runs.append(NodeRun(level=level, first=index, last=index))
    return runs


def decompose_box_to_runs(
    tree: DomainTree,
    ranges: Sequence[Tuple[int, int]],
) -> List[List[NodeRun]]:
    """Per-axis run decompositions of an axis-aligned box query.

    The product-decomposition step of the paper's Section 6 argument: a
    ``d``-dimensional box splits into the Cartesian product of its per-axis
    B-adic decompositions, so the box is covered by the run products
    ``itertools.product(*result)`` and each product evaluates via
    inclusion–exclusion over its ``2^d`` corners.  Every axis shares the
    same *tree* geometry (square domains); bounds are inclusive
    ``(start, end)`` pairs, validated per axis by :func:`decompose_to_runs`.
    """
    return [
        decompose_to_runs(tree, int(start), int(end)) for start, end in ranges
    ]


def runs_per_level(runs: List[NodeRun]) -> Dict[int, List[NodeRun]]:
    """Group runs by tree level (helper for per-level evaluation)."""
    grouped: Dict[int, List[NodeRun]] = {}
    for run in runs:
        grouped.setdefault(run.level, []).append(run)
    return grouped


def batched_axis_runs(
    tree: DomainTree,
    starts: np.ndarray,
    ends: np.ndarray,
) -> np.ndarray:
    """Per-level node runs of many 1-D B-adic decompositions at once.

    Vectorised counterpart of grouping :func:`decompose_to_runs` output with
    :func:`runs_per_level` for a whole workload.  Returns an ``int64``
    array of shape ``(h, 2, 2, n)``: ``runs[level - 1, slot]`` is the pair
    ``(first, last_exclusive)`` of per-query node-index bounds, in
    prefix-sum coordinates, of one contiguous run at that tree level
    (``first == last_exclusive`` marks an empty run for that query, which
    contributes zero through any prefix-difference evaluation).  Every
    level has exactly two slots.

    This is the single authoritative peeling schedule: slot 0 holds the
    left peel of a level (up to the next coarser alignment) and slot 1 the
    right peel (down from the last one).  A query that survives every level
    covers the whole padded domain — the implicit root — and is charged as
    the full level-1 run, the same convention as :func:`decompose_to_runs`.
    That run takes level-1 slot 1.  Slot 0 takes the survivor's right peel:
    it is empty, but it sits at the far edge of the prefix grid, where a
    d-dimensional inclusion–exclusion can leave a rounding residue, so it
    stays ahead of the root run in every sum.  The survivor's left peel is
    dropped: it is empty at the prefix origin and contributes exactly
    ``+0.0`` in any dimension.  :func:`batched_range_sums`
    evaluates the slots as 1-D prefix differences, and
    :meth:`repro.core.multidim.HierarchicalGridND.answer_boxes` combines
    ``d`` axis decompositions into B-adic box products with one gather.

    Parameters
    ----------
    tree:
        Domain tree describing the hierarchy geometry.
    starts, ends:
        Length-``n`` arrays of inclusive, already validated query bounds
        inside the original domain.
    """
    starts = np.asarray(starts, dtype=np.int64)
    ends = np.asarray(ends, dtype=np.int64)
    # The peel itself is a pure int64 kernel returning bounds finest level
    # first, which this wrapper views level-ascending.
    bounds, survivors = kernels.badic_axis_runs(
        starts, ends, tree.branching, tree.height
    )
    runs = bounds[::-1].reshape(tree.height, 2, 2, starts.shape[0])
    if np.any(survivors):
        top = runs[0]
        top[0] = np.where(survivors, top[1], top[0])
        top[1, 0] = np.where(survivors, 0, top[1, 0])
    return runs


def batched_range_sums(
    tree: DomainTree,
    level_prefix: Mapping[int, np.ndarray],
    queries: np.ndarray,
) -> np.ndarray:
    """Evaluate many B-adic decompositions at once from per-level prefix sums.

    Vectorised equivalent of summing :func:`decompose_to_runs` runs for every
    query: all queries walk the tree together, one level per iteration, so a
    workload of ``n`` queries costs ``O(h)`` numpy passes over length-``n``
    arrays instead of ``n`` Python-level decompositions.

    The decomposition itself lives in :func:`batched_axis_runs` (the single
    authoritative peel, shared with the box path); this function just
    evaluates each run slot as a prefix difference.

    Parameters
    ----------
    tree:
        Domain tree describing the hierarchy geometry.
    level_prefix:
        For every tree level, the prefix-sum array of that level's node
        estimates (length ``nodes_at_level(level) + 1``).
    queries:
        ``(n, 2)`` array of inclusive, already validated ``[start, end]``
        pairs inside the original domain.

    Returns
    -------
    numpy.ndarray
        Length-``n`` float vector of range sums, identical (up to float
        rounding) to evaluating each decomposition separately.
    """
    queries = np.asarray(queries, dtype=np.int64)
    if queries.ndim != 2 or queries.shape[1] != 2:
        raise InvalidQueryError("queries must be an (n, 2) array")
    answers = np.zeros(queries.shape[0], dtype=np.float64)
    runs = batched_axis_runs(tree, queries[:, 0], queries[:, 1])
    for level in range(tree.height, 0, -1):
        prefix = level_prefix[level]
        for first, last in runs[level - 1]:
            answers += prefix[last] - prefix[first]
    return answers
