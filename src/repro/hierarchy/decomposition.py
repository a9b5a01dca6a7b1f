"""Range query decomposition onto tree nodes — the library's one B-adic
decomposer.

A range query ``[a, b]`` is answered by summing the estimated weights of the
nodes in its B-adic decomposition (Facts 2 and 3 of the paper: an interval
is *B-adic* if it has the form ``[k B^j, (k + 1) B^j - 1]``, and a range of
length ``r`` splits into at most ``(B - 1)(2 log_B r + 1)`` disjoint B-adic
intervals).  For example with ``B = 2`` the range ``[2, 22]`` decomposes
into ``[2,3] [4,7] [8,15] [16,19] [20,21] [22,22]``.

To make evaluating large query workloads cheap, the decomposition is
expressed as *runs*: per tree level, a contiguous span of node indices.
With per-level prefix sums of the estimates, each run costs O(1) to
evaluate, so a query costs ``O(B log_B D)`` regardless of its length.  The
peel itself is :func:`repro.kernels.badic_axis_runs`, run for a whole batch
at once; a single query is a one-row batch.  A range's boundary nodes also
give its detail energies (:func:`batched_detail_energies`), from which the
consistency and Haar answer variances follow in ``O(h B)`` per query.
"""

from __future__ import annotations

from typing import Mapping

import numpy as np

from repro import kernels
from repro.hierarchy.tree import DomainTree

__all__ = [
    "batched_axis_runs",
    "batched_detail_energies",
    "batched_node_counts",
    "batched_range_sums",
]


def batched_axis_runs(
    tree: DomainTree,
    starts: np.ndarray,
    ends: np.ndarray,
) -> np.ndarray:
    """Per-level node runs of many 1-D B-adic decompositions at once.

    Returns an ``int64``
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
    the full level-1 run, so callers never need a root estimate.  That run
    takes level-1 slot 1.  Slot 0 takes the survivor's right peel:
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


def batched_node_counts(tree: DomainTree, starts: np.ndarray, ends: np.ndarray) -> np.ndarray:
    """Nodes per level of many 1-D B-adic decompositions: the ``(h, n)``
    run lengths of :func:`batched_axis_runs`, summed over both slots."""
    runs = batched_axis_runs(tree, starts, ends)
    return (runs[:, :, 1] - runs[:, :, 0]).sum(axis=1)


def batched_detail_energies(
    branching: int, height: int, starts: np.ndarray, ends: np.ndarray
) -> np.ndarray:
    """Row ``k - 1`` of the ``(h, n)`` result is ``E_k``: the squared norm
    of each range's padded-leaf indicator projected onto the depth-``k``
    detail subspace (vectors constant on depth-``k`` nodes that sum to zero
    inside each depth-``k - 1`` node).  A depth-``k - 1`` node the range
    covers wholly or misses has no detail, so only the at most two holding
    ``start`` and ``end`` add ``(B sum s_c^2 - (sum s_c)^2) / (B c)`` over
    their ``B`` child overlaps ``s_c``, ``c = B^(h - k)`` the child size.
    The numerator is exact ``int64`` arithmetic, so a node whose children
    the range covers evenly adds exactly ``0.0``."""
    parents = branching ** np.arange(height, 0, -1, dtype=np.int64)[:, None]
    bounds = parents // branching * np.arange(branching + 1)[:, None, None]
    numerators = []
    for position in (starts, ends):
        edges = np.clip(position // parents * parents + bounds, starts, ends + 1)
        overlaps = np.diff(edges, axis=0)
        numerators.append(branching * (overlaps**2).sum(axis=0) - overlaps.sum(axis=0) ** 2)
    shared = starts // parents == ends // parents
    return (numerators[0] + np.where(shared, 0, numerators[1])) / parents


def batched_range_sums(
    tree: DomainTree,
    level_prefix: Mapping[int, np.ndarray],
    queries: np.ndarray,
) -> np.ndarray:
    """Evaluate many B-adic decompositions at once from per-level prefix sums.

    All queries walk the tree together, one level per iteration, so a
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
        ``(n, 2)`` ``int64`` array of inclusive, already validated
        ``[start, end]`` pairs inside the original domain
        (:func:`repro.core.base.validate_queries`).

    Returns
    -------
    numpy.ndarray
        Length-``n`` float vector of range sums, each summed finest level
        first, left slot before right slot.
    """
    answers = np.zeros(queries.shape[0], dtype=np.float64)
    runs = batched_axis_runs(tree, queries[:, 0], queries[:, 1])
    for level in range(tree.height, 0, -1):
        prefix = level_prefix[level]
        for first, last in runs[level - 1]:
            answers += prefix[last] - prefix[first]
    return answers
