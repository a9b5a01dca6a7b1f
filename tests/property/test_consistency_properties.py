"""Property-based tests for constrained inference (Section 4.5)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hierarchy.consistency import enforce_consistency, least_squares_consistency

configurations = st.tuples(
    st.integers(min_value=2, max_value=4),  # branching
    st.integers(min_value=1, max_value=3),  # height
    st.integers(min_value=0, max_value=2**31 - 1),  # seed
)


def _random_levels(branching, height, seed):
    rng = np.random.default_rng(seed)
    leaves = rng.dirichlet(np.ones(branching**height))
    levels = []
    for depth in range(1, height + 1):
        block = branching ** (height - depth)
        exact = leaves.reshape(-1, block).sum(axis=1)
        levels.append(exact + rng.normal(0, 0.05, size=exact.shape))
    return levels


@given(config=configurations)
@settings(max_examples=100, deadline=None)
def test_consistency_invariant_holds(config):
    branching, height, seed = config
    adjusted = enforce_consistency(_random_levels(branching, height, seed), branching)
    for depth in range(len(adjusted) - 1):
        parents = adjusted[depth]
        child_sums = adjusted[depth + 1].reshape(-1, branching).sum(axis=1)
        np.testing.assert_allclose(parents, child_sums, atol=1e-8)


@given(config=configurations)
@settings(max_examples=100, deadline=None)
def test_root_value_is_enforced_everywhere(config):
    branching, height, seed = config
    adjusted = enforce_consistency(
        _random_levels(branching, height, seed), branching, root_value=1.0
    )
    for level in adjusted:
        np.testing.assert_allclose(level.sum(), 1.0, atol=1e-8)


@given(config=configurations)
@settings(max_examples=60, deadline=None)
def test_two_stage_matches_exact_least_squares(config):
    branching, height, seed = config
    levels = _random_levels(branching, height, seed)
    fast = enforce_consistency(levels, branching, root_value=None)
    exact = least_squares_consistency(levels, branching)
    for fast_level, exact_level in zip(fast, exact):
        np.testing.assert_allclose(fast_level, exact_level, atol=1e-6)


@given(config=configurations)
@settings(max_examples=60, deadline=None)
def test_idempotence(config):
    # Applying the post-processing to an already-consistent tree is a no-op.
    branching, height, seed = config
    once = enforce_consistency(_random_levels(branching, height, seed), branching)
    twice = enforce_consistency(once, branching)
    for first, second in zip(once, twice):
        np.testing.assert_allclose(first, second, atol=1e-8)


@given(config=configurations)
@settings(max_examples=60, deadline=None)
def test_total_mass_preserved_without_root_constraint(config):
    # Without a root value the least-squares fit preserves the average of
    # the per-level totals seen in the noisy input only in expectation, but
    # the leaf total must equal the adjusted top level total exactly.
    branching, height, seed = config
    adjusted = enforce_consistency(_random_levels(branching, height, seed), branching)
    np.testing.assert_allclose(adjusted[0].sum(), adjusted[-1].sum(), atol=1e-8)


def _projection_matrix(branching, height):
    """The stacked-levels matrix of ``enforce_consistency(., B, 0.0)``:
    column ``j`` is the map applied to unit vector ``j``, one 1-D call
    per column."""
    sizes = [branching**depth for depth in range(1, height + 1)]
    bounds = np.cumsum(sizes)[:-1]
    columns = [
        np.concatenate(enforce_consistency(np.split(unit, bounds), branching, root_value=0.0))
        for unit in np.eye(sum(sizes))
    ]
    return np.stack(columns, axis=1)


@pytest.mark.parametrize("branching", [2, 3, 4, 5])
@pytest.mark.parametrize("height", [1, 2, 3])
def test_zero_root_map_is_an_orthogonal_projection(branching, height):
    """Symmetric and idempotent: the linear part of the mechanisms'
    consistency step is the least-squares projection, so a query's
    squared weights on the raw levels are the squared norms of the map
    applied to its leaf indicator."""
    matrix = _projection_matrix(branching, height)
    np.testing.assert_allclose(matrix, matrix.T, rtol=0, atol=1e-12)
    np.testing.assert_allclose(matrix @ matrix, matrix, rtol=0, atol=1e-12)
