"""Constrained inference ("consistency") for hierarchical histograms.

Section 4.5 of the paper: the hierarchical histogram materialises redundant
information — a parent's weight should equal the sum of its children's — and
exploiting that redundancy with a least-squares fit reduces the variance of
every node estimate by a factor of at least ``B / (B + 1)``.

Two implementations are provided:

* :func:`enforce_consistency` — the linear-time two-stage algorithm of Hay
  et al. translated to the local model (the paper works with *fractions*
  per level rather than counts, because level sampling means per-level user
  counts do not sum up exactly):

  1. *Weighted averaging* (bottom-up): each internal node's estimate is
     replaced by the optimal convex combination of its own noisy estimate
     and the sum of its (already adjusted) children.
  2. *Mean consistency* (top-down): the difference between a parent's value
     and the sum of its children is spread equally over the children so the
     hierarchy becomes exactly consistent.

* :func:`least_squares_consistency` — an explicit ordinary-least-squares
  solve of the same problem via the normal equations.  It is cubic in the
  number of leaves and exists purely as a reference implementation for the
  tests, which check the two agree.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from repro.exceptions import ConfigurationError, InvalidDomainError

__all__ = ["enforce_consistency", "least_squares_consistency", "subtree_counts"]


def _validate_levels(levels: Sequence[np.ndarray], branching: int) -> List[np.ndarray]:
    if not isinstance(branching, (int, np.integer)) or branching < 2:
        raise ConfigurationError(
            f"branching factor must be an integer >= 2, got {branching!r}"
        )
    if not levels:
        raise InvalidDomainError("need at least one level of estimates")
    arrays = [np.asarray(level, dtype=np.float64) for level in levels]
    for depth, array in enumerate(arrays, start=1):
        expected = (branching**depth,)
        if array.shape != expected:
            raise InvalidDomainError(
                f"level {depth} must have shape {expected}, got {array.shape}"
            )
    return arrays


def _child_sums(level: np.ndarray, branching: int) -> np.ndarray:
    """Sums of each parent's ``B`` consecutive children."""
    return level.reshape(len(level) // branching, branching).sum(axis=1)


def subtree_counts(height_from_leaves: int, branching: int) -> int:
    """Number of nodes in a complete subtree of the given height.

    ``height_from_leaves = 1`` is a single leaf; ``2`` is a node plus its
    ``B`` children, and so on.  For ``h - k + 1`` it is the eigenvalue of
    ``H^T H`` on the depth-``k`` detail subspace, which ``hhc_*`` weights use.
    """
    return (branching**height_from_leaves - 1) // (branching - 1)


def enforce_consistency(
    levels: Sequence[np.ndarray],
    branching: int,
    root_value: Optional[float] = None,
) -> List[np.ndarray]:
    """Apply the two-stage constrained-inference algorithm.

    Parameters
    ----------
    levels:
        Per-level estimate arrays, ``levels[0]`` being level 1 (the ``B``
        children of the root) down to ``levels[-1]`` being the ``B^h``
        leaves.  All estimates are *fractions* of the population.
    branching:
        Tree fan-out ``B``.
    root_value:
        If given (the mechanisms pass ``1.0``), the implicit root is treated
        as an exactly-known node with this value and the top estimated level
        receives the corresponding mean-consistency adjustment.  If ``None``
        the top level is left as the tree's frontier, which is the classic
        Hay et al. setting and what :func:`least_squares_consistency`
        reproduces exactly.

    Returns
    -------
    list of numpy arrays
        Adjusted estimates with the same shapes as the input, satisfying
        ``parent == sum(children)`` exactly for every internal node (and
        ``sum(level 1) == root_value`` when a root value is supplied).
    """
    noisy = _validate_levels(levels, branching)
    height = len(noisy)

    # ------------------------------------------------------------------
    # Stage 1: weighted averaging, bottom-up.  A node at distance `i` from
    # the leaves (leaves have i = 1) mixes its own estimate with the sum of
    # its children using weights (B^i - B^{i-1}) / (B^i - 1) and
    # (B^{i-1} - 1) / (B^i - 1) respectively.
    # ------------------------------------------------------------------
    averaged: List[np.ndarray] = [None] * height  # type: ignore[list-item]
    averaged[height - 1] = noisy[height - 1].copy()
    for depth in range(height - 2, -1, -1):
        distance = height - depth  # leaves are distance 1
        child_sums = _child_sums(averaged[depth + 1], branching)
        own_weight = (branching**distance - branching ** (distance - 1)) / (
            branching**distance - 1
        )
        child_weight = (branching ** (distance - 1) - 1) / (branching**distance - 1)
        averaged[depth] = own_weight * noisy[depth] + child_weight * child_sums

    # ------------------------------------------------------------------
    # Stage 2: mean consistency, top-down.  Divide the parent/children
    # mismatch equally among the children.
    # ------------------------------------------------------------------
    adjusted: List[np.ndarray] = [level.copy() for level in averaged]
    if root_value is not None:
        mismatch = float(root_value) - adjusted[0].sum()
        adjusted[0] = adjusted[0] + mismatch / branching
    for depth in range(1, height):
        parent_values = adjusted[depth - 1]
        child_sums = _child_sums(averaged[depth], branching)
        corrections = (parent_values - child_sums) / branching
        adjusted[depth] = averaged[depth] + np.repeat(corrections, branching)
    return adjusted


def least_squares_consistency(
    levels: Sequence[np.ndarray], branching: int
) -> List[np.ndarray]:
    """Exact least-squares solution of the consistency problem.

    Solves ``min ||H f - x||_2`` where ``x`` stacks all per-node noisy
    estimates and ``H`` maps leaf frequencies to every node of the hierarchy
    (Lemma 4.6 of the paper), then rebuilds each level from the fitted leaf
    vector.  Complexity is cubic in the number of leaves — reference use
    only.
    """
    noisy = _validate_levels(levels, branching)
    height = len(noisy)
    leaves = branching**height

    # Each level contributes a block-diagonal band: node `i` at depth `d`
    # covers the `leaves / B^d` consecutive leaves of its subtree, i.e. the
    # identity of size B^d with every column repeated `block` times.  Built
    # level-wise with array ops rather than one Python row at a time.
    blocks: List[np.ndarray] = []
    for depth in range(1, height + 1):
        nodes = branching**depth
        block = leaves // nodes
        blocks.append(np.repeat(np.eye(nodes), block, axis=1))
    design = np.vstack(blocks)
    target = np.concatenate(noisy)
    fitted_leaves, *_ = np.linalg.lstsq(design, target, rcond=None)

    result: List[np.ndarray] = []
    for depth in range(1, height + 1):
        block = leaves // branching**depth
        result.append(fitted_leaves.reshape(-1, block).sum(axis=1))
    return result
