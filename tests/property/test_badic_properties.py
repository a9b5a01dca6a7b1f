"""The B-adic decomposition (Facts 2 and 3) as the batched run decomposer
:func:`repro.hierarchy.decomposition.batched_axis_runs` computes it.

Every node of a query's runs is one B-adic interval; the intervals of a
query must cover it exactly and disjointly, and their number must respect
the Fact 3 bound.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hierarchy.decomposition import batched_axis_runs
from repro.hierarchy.tree import DomainTree


def badic_pieces(tree, queries):
    """The B-adic intervals ``(start, end)`` of every query, left to right.

    Expands each level's run slots into their nodes; a node at level ``l``
    is the interval ``[k B^(h-l), (k + 1) B^(h-l) - 1]``.
    """
    queries = np.asarray(queries, dtype=np.int64).reshape(-1, 2)
    runs = batched_axis_runs(tree, queries[:, 0], queries[:, 1])
    pieces = []
    for index in range(queries.shape[0]):
        query_pieces = []
        for level, slots in enumerate(runs, start=1):
            size = tree.block_size(level)
            for first, last in slots:
                for node in range(int(first[index]), int(last[index])):
                    query_pieces.append((node * size, (node + 1) * size - 1))
        pieces.append(sorted(query_pieces))
    return pieces


def is_badic(start, end, branching):
    """Fact 2: the length is a power of ``B`` and the start a multiple of it."""
    length = end - start + 1
    power = 1
    while power < length:
        power *= branching
    return power == length and start % length == 0


def fact3_bound(range_length, branching):
    """Fact 3: ``(B - 1)(2 log_B r + 1)`` intervals suffice."""
    log_term = math.log(range_length, branching) if range_length > 1 else 0.0
    return math.ceil((branching - 1) * (2 * log_term + 1) - 1e-9)


@st.composite
def geometries_and_queries(draw):
    branching = draw(st.integers(min_value=2, max_value=16))
    domain = draw(st.integers(min_value=1, max_value=4096))
    start, end = sorted(
        draw(st.tuples(st.integers(0, domain - 1), st.integers(0, domain - 1)))
    )
    return DomainTree(domain, branching), start, end


@given(case=geometries_and_queries())
@settings(max_examples=300, deadline=None)
def test_pieces_cover_the_range_exactly_and_disjointly(case):
    tree, start, end = case
    (pieces,) = badic_pieces(tree, [[start, end]])
    covered = []
    for piece_start, piece_end in pieces:
        covered.extend(range(piece_start, piece_end + 1))
    assert covered == list(range(start, end + 1)), "every item covered exactly once"


@given(case=geometries_and_queries())
@settings(max_examples=300, deadline=None)
def test_every_piece_is_badic(case):
    tree, start, end = case
    (pieces,) = badic_pieces(tree, [[start, end]])
    for piece_start, piece_end in pieces:
        assert is_badic(piece_start, piece_end, tree.branching)


@given(case=geometries_and_queries())
@settings(max_examples=300, deadline=None)
def test_piece_count_respects_fact3_bound(case):
    tree, start, end = case
    (pieces,) = badic_pieces(tree, [[start, end]])
    assert len(pieces) <= fact3_bound(end - start + 1, tree.branching)


def test_paper_worked_example():
    # The example after Fact 3: [2, 22] with B = 2 decomposes into
    # [2,3] [4,7] [8,15] [16,19] [20,21] [22,22].
    (pieces,) = badic_pieces(DomainTree(32, 2), [[2, 22]])
    assert pieces == [(2, 3), (4, 7), (8, 15), (16, 19), (20, 21), (22, 22)]


def test_point_query_is_one_leaf():
    (pieces,) = badic_pieces(DomainTree(64, 2), [[7, 7]])
    assert pieces == [(7, 7)]


@pytest.mark.parametrize("domain,branching", [(64, 2), (64, 4), (81, 3)])
def test_whole_padded_domain_is_the_level_one_nodes(domain, branching):
    """The implicit root is charged as the full level-1 run: ``B`` pieces."""
    tree = DomainTree(domain, branching)
    (pieces,) = badic_pieces(tree, [[0, domain - 1]])
    size = tree.block_size(1)
    assert pieces == [(k * size, (k + 1) * size - 1) for k in range(branching)]


def test_non_power_domain_covers_the_original_domain():
    tree = DomainTree(100, 4)
    (pieces,) = badic_pieces(tree, [[0, 99]])
    assert tree.padded_size == 256
    assert pieces == [(0, 63), (64, 79), (80, 95), (96, 99)]


def test_pieces_within_bound_on_fixed_cases():
    for branching in (2, 4, 16):
        tree = DomainTree(1024, branching)
        for start, end in [(3, 61), (0, 1023), (100, 900)]:
            (pieces,) = badic_pieces(tree, [[start, end]])
            assert len(pieces) <= fact3_bound(end - start + 1, branching)


def test_fact3_bound_formula():
    assert fact3_bound(1, 2) == 1
    assert fact3_bound(16, 2) == 9
    assert fact3_bound(16, 4) == 15
