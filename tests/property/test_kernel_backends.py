"""Property tests: the :mod:`repro.kernels` loops are bit-identical to naive
references.

The contract is *exact* equality, not tolerance: all three hot kernels are
pure integer functions, so blocking and vectorisation may change wall time
but never a single output bit.  Each test compares the kernel against an
independent naive formula.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import kernels

_PRIME = (1 << 31) - 1

#: Block budgets from degenerate (single-row / single-user blocks) to "one
#: block fits everything" — the blocking must be invisible in the results.
block_targets = st.sampled_from([1, 8, 64, 4096, 1 << 22])

seeds = st.integers(min_value=0, max_value=2**32 - 1)


# ---------------------------------------------------------------------------
# unary_column_sums
# ---------------------------------------------------------------------------


@given(
    seed=seeds,
    n_rows=st.integers(min_value=0, max_value=70),
    n_bits=st.integers(min_value=1, max_value=67),
    density=st.sampled_from([0.0, 0.3, 1.0]),
    block_target=block_targets,
)
@settings(max_examples=150, deadline=None)
def test_unary_column_sums_matches_unpackbits(seed, n_rows, n_bits, density, block_target):
    rng = np.random.default_rng(seed)
    bits = (rng.random((n_rows, n_bits)) < density).astype(np.uint8)
    packed = np.packbits(bits, axis=1)
    expected = (
        np.unpackbits(packed, axis=1, count=n_bits).sum(axis=0).astype(np.int64)
        if n_rows
        else np.zeros(n_bits, dtype=np.int64)
    )
    result = kernels.unary_column_sums(packed, n_bits, block_target)
    assert result.dtype == np.int64
    assert np.array_equal(result, expected)


# ---------------------------------------------------------------------------
# olh_decode
# ---------------------------------------------------------------------------


@given(
    seed=seeds,
    n_users=st.integers(min_value=0, max_value=50),
    domain_size=st.integers(min_value=1, max_value=40),
    hash_range=st.integers(min_value=2, max_value=16),
    block_target=block_targets,
)
@settings(max_examples=150, deadline=None)
def test_olh_decode_matches_direct_formula(seed, n_users, domain_size, hash_range, block_target):
    rng = np.random.default_rng(seed)
    a = rng.integers(1, _PRIME, size=n_users, dtype=np.int64)
    b = rng.integers(0, _PRIME, size=n_users, dtype=np.int64)
    values = rng.integers(0, hash_range, size=n_users, dtype=np.int64)
    items = np.arange(domain_size, dtype=np.int64)
    expected = (
        ((a[:, None] * items[None, :] + b[:, None]) % _PRIME % hash_range == values[:, None])
        .sum(axis=0)
        .astype(np.int64)
        if n_users
        else np.zeros(domain_size, dtype=np.int64)
    )
    result = kernels.olh_decode(a, b, values, domain_size, hash_range, _PRIME, block_target)
    assert result.dtype == np.int64
    assert np.array_equal(result, expected)


# ---------------------------------------------------------------------------
# badic_axis_runs
# ---------------------------------------------------------------------------


def _scalar_axis_runs(start, end, branching, height):
    """Per-query plain-Python peel: the reference the vectorised kernel
    must reproduce exactly."""
    lo, hi = int(start), int(end) + 1
    rows = []
    block = 1
    for _ in range(height):
        coarse = block * branching
        left_end = min(hi, ((lo + coarse - 1) // coarse) * coarse)
        right_start = max(left_end, (hi // coarse) * coarse)
        rows.append((lo // block, left_end // block, right_start // block, hi // block))
        lo, hi = left_end, right_start
        block = coarse
    return rows, lo < hi


geometries = st.tuples(
    st.integers(min_value=2, max_value=4),  # branching
    st.integers(min_value=1, max_value=8),  # height
)


@given(
    seed=seeds,
    geometry=geometries,
    n_queries=st.integers(min_value=0, max_value=30),
)
@settings(max_examples=150, deadline=None)
def test_badic_axis_runs_matches_scalar_peel(seed, geometry, n_queries):
    branching, height = geometry
    domain = branching**height
    rng = np.random.default_rng(seed)
    endpoints = np.sort(rng.integers(0, domain, size=(n_queries, 2)), axis=1)
    starts = endpoints[:, 0].astype(np.int64)
    ends = endpoints[:, 1].astype(np.int64)

    expected_runs = np.empty((height, 4, n_queries), dtype=np.int64)
    expected_survivors = np.empty(n_queries, dtype=bool)
    for q in range(n_queries):
        rows, survived = _scalar_axis_runs(starts[q], ends[q], branching, height)
        for level, row in enumerate(rows):
            expected_runs[level, :, q] = row
        expected_survivors[q] = survived

    runs, survivors = kernels.badic_axis_runs(starts, ends, branching, height)
    assert runs.shape == (height, 4, n_queries)
    assert runs.dtype == np.int64
    assert np.array_equal(runs, expected_runs)
    assert np.array_equal(survivors, expected_survivors)


@given(seed=seeds, geometry=geometries)
@settings(max_examples=100, deadline=None)
def test_badic_axis_runs_covers_exactly_the_range(seed, geometry):
    """Semantic check, independent of the peel algorithm: expanding every
    run to leaf indices reproduces the query range exactly (disjoint cover),
    unless the query survives as the whole padded domain."""
    branching, height = geometry
    domain = branching**height
    rng = np.random.default_rng(seed)
    lo, hi = np.sort(rng.integers(0, domain, size=2))
    starts = np.array([lo], dtype=np.int64)
    ends = np.array([hi], dtype=np.int64)
    runs, survivors = kernels.badic_axis_runs(starts, ends, branching, height)
    covered = np.zeros(domain, dtype=np.int64)
    if survivors[0]:
        covered += 1  # charged as the implicit root: the full domain
    for level in range(height):
        block = branching**level
        for first, last in ((runs[level, 0, 0], runs[level, 1, 0]),
                            (runs[level, 2, 0], runs[level, 3, 0])):
            covered[first * block : last * block] += 1
    expected = np.zeros(domain, dtype=np.int64)
    expected[lo : hi + 1] = 1
    assert np.array_equal(covered, expected)


def test_degenerate_queries_single_point_and_full_domain():
    branching, height = 2, 6
    domain = branching**height
    starts = np.array([0, domain - 1, 0, 5], dtype=np.int64)
    ends = np.array([0, domain - 1, domain - 1, 5], dtype=np.int64)
    runs, survivors = kernels.badic_axis_runs(starts, ends, branching, height)
    # Only the full-domain query survives every peel.
    assert survivors.tolist() == [False, False, True, False]
    # Single points cover one leaf at the finest level (left or right
    # peel depending on alignment): exactly one unit-length run.
    assert runs[0, :, 0].tolist() == [0, 0, 0, 1]
    assert runs[0, :, 3].tolist() == [5, 6, 6, 6]


def test_empty_query_batch():
    starts = np.empty(0, dtype=np.int64)
    ends = np.empty(0, dtype=np.int64)
    runs, survivors = kernels.badic_axis_runs(starts, ends, 2, 4)
    assert runs.shape == (4, 4, 0)
    assert survivors.shape == (0,)


# ---------------------------------------------------------------------------
# Example-based edges the random draws rarely reach
# ---------------------------------------------------------------------------


def test_module_holds_exactly_the_three_kernels():
    assert sorted(kernels.__all__) == ["badic_axis_runs", "olh_decode", "unary_column_sums"]
    assert all(callable(getattr(kernels, name)) for name in kernels.__all__)
    # A plain module, not a package of interchangeable backends.
    assert not hasattr(kernels, "__path__")


@pytest.mark.parametrize("n_rows", [65535, 65536, 131071])
def test_unary_column_sums_past_the_uint16_block_cap(n_rows):
    # Blocks cap at 65535 rows so the uint16 accumulator cannot wrap; the
    # int64 totals must still count every row of an all-ones matrix.
    packed = np.packbits(np.ones((n_rows, 3), dtype=np.uint8), axis=1)
    result = kernels.unary_column_sums(packed, 3, 1 << 30)
    assert result.tolist() == [n_rows] * 3


def test_unary_column_sums_ignores_padding_bits():
    # Only the first n_bits columns count, whatever the padding holds.
    packed = np.full((6, 1), 0xFF, dtype=np.uint8)
    result = kernels.unary_column_sums(packed, 5, 64)
    assert result.tolist() == [6] * 5


def test_olh_decode_exact_at_the_largest_coefficients():
    domain_size, hash_range = 4096, 7
    a = np.array([_PRIME - 1, _PRIME - 2], dtype=np.int64)
    b = np.array([_PRIME - 1, 0], dtype=np.int64)
    values = np.array([3, 0], dtype=np.int64)
    expected = [
        sum(((int(a_u) * j + int(b_u)) % _PRIME) % hash_range == int(v_u)
            for a_u, b_u, v_u in zip(a, b, values))
        for j in range(domain_size)
    ]
    result = kernels.olh_decode(a, b, values, domain_size, hash_range, _PRIME, 1 << 16)
    assert result.tolist() == expected


def test_olh_decode_value_outside_hash_range_supports_nothing():
    a = np.array([1, 5, 9], dtype=np.int64)
    b = np.array([0, 2, 4], dtype=np.int64)
    values = np.full(3, 4, dtype=np.int64)  # == hash_range: never a match
    result = kernels.olh_decode(a, b, values, 10, 4, _PRIME, 1 << 16)
    assert result.tolist() == [0] * 10


def test_badic_axis_runs_accepts_int32_and_leaves_inputs_untouched():
    starts = np.array([0, 3, 7], dtype=np.int32)
    ends = np.array([5, 3, 15], dtype=np.int32)
    before = (starts.copy(), ends.copy())
    runs, survivors = kernels.badic_axis_runs(starts, ends, 2, 4)
    expected_runs, expected_survivors = kernels.badic_axis_runs(
        starts.astype(np.int64), ends.astype(np.int64), 2, 4
    )
    assert np.array_equal(runs, expected_runs)
    assert np.array_equal(survivors, expected_survivors)
    assert np.array_equal(starts, before[0]) and np.array_equal(ends, before[1])
