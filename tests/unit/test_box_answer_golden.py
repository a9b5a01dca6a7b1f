"""Golden answers pinning the batched box and range read paths bit-for-bit.

``HierarchicalGridND.answer_boxes`` sums, per query, one inclusion–exclusion
term per (level tuple, run-slot combination) in a fixed order, and
``batched_range_sums`` does the same per (level, run slot) in one
dimension.  Any rewrite of those paths (gather layout, chunking, where the
implicit-root run of a full-axis query is charged) must keep every float
of every answer.  The hex strings in ``box_answer_golden.json`` were
captured from the per-tuple loop implementation; the batches cover
``d`` in {2, 3}, ``B`` in {2, 4}, sides that are and are not powers of
``B``, full-axis boxes on one axis and on every axis, single-cell boxes,
and a long batch.  Long batches are pinned by a sha256 digest of their
float64 bytes rather than by one hex string per row.

Run ``PYTHONPATH=src python tests/unit/test_box_answer_golden.py`` to print
the current values as JSON (for re-pinning after a deliberate, documented
change only).
"""

from __future__ import annotations

import hashlib
import itertools
import json
from pathlib import Path

import numpy as np
import pytest

from repro.core.factory import mechanism_from_spec
from repro.core.multidim import HierarchicalGridND
from repro.data.workloads import random_boxes

GOLDEN_PATH = Path(__file__).with_name("box_answer_golden.json")

#: (dims, side, branching) of every pinned grid: powers and non-powers of B.
GRIDS = (
    (2, 37, 2),
    (2, 37, 4),
    (2, 64, 2),
    (2, 64, 4),
    (3, 27, 2),
    (3, 27, 4),
    (3, 16, 2),
    (3, 16, 4),
)
#: (spec, domain) of the pinned non-consistent hierarchical range paths.
RANGE_SPECS = (("hh_2", 64), ("hh_4", 64), ("hh_4", 100), ("hh_2", 37))
LONG_BATCH = 1200


def _fitted_grid(dims: int, side: int, branching: int) -> HierarchicalGridND:
    rng = np.random.default_rng(100 * dims + side + branching)
    points = np.minimum(rng.geometric(4.0 / side, size=(30_000, dims)) - 1, side - 1)
    grid = HierarchicalGridND(1.1, side, dims=dims, branching=branching)
    grid.fit_points(points, random_state=rng)
    return grid.set_answer_cache_size(0)


def structured_boxes(dims: int, side: int) -> np.ndarray:
    """Random boxes interleaved with the edge cases the read path special-cases:
    boxes spanning a full axis (one axis at a time and every axis at once),
    single cells, and full axes crossed with single cells."""
    rows = [row for row in random_boxes(side, 24, dims=dims, random_state=side + dims)]
    full = np.tile([0, side - 1], dims)
    rows.append(full)
    rng = np.random.default_rng(7 * side + dims)
    for axis in range(dims):
        for template in random_boxes(side, 3, dims=dims, random_state=rng):
            row = template.copy()
            row[2 * axis : 2 * axis + 2] = (0, side - 1)
            rows.append(row)
        partial = full.copy()
        partial[2 * axis : 2 * axis + 2] = (side // 3, side // 3)
        rows.append(partial)
    for cell in rng.integers(0, side, size=(4, dims)):
        rows.append(np.repeat(cell, 2))
    rows.append(np.zeros(2 * dims, dtype=np.int64))
    rows.append(np.full(2 * dims, side - 1))
    return np.asarray(rows, dtype=np.int64)


def long_boxes(dims: int, side: int) -> np.ndarray:
    """A batch longer than any gather chunk, with full-axis rows mixed in."""
    boxes = random_boxes(side, LONG_BATCH, dims=dims, random_state=3 * side + dims)
    # A full trailing axis crossed with a partial leading one is where the
    # order of the implicit-root term among its empty neighbours shows.
    for axis in range(dims):
        boxes[axis::dims + 1, 2 * axis : 2 * axis + 2] = (0, side - 1)
    boxes[::53, :] = np.tile([0, side - 1], dims)
    return boxes


def range_queries(domain: int) -> np.ndarray:
    rng = np.random.default_rng(domain)
    queries = np.sort(rng.integers(0, domain, size=(40, 2)), axis=1)
    edges = [[0, domain - 1], [0, 0], [domain - 1, domain - 1], [0, domain // 2]]
    return np.concatenate([edges, queries, [[0, domain - 1]]]).astype(np.int64)


def _fitted_hh(spec: str, domain: int):
    rng = np.random.default_rng(domain + len(spec))
    items = np.minimum(rng.geometric(4.0 / domain, size=30_000) - 1, domain - 1)
    mechanism = mechanism_from_spec(spec, epsilon=1.1, domain_size=domain)
    mechanism.fit_items(items, random_state=rng)
    return mechanism.set_answer_cache_size(0)


def _hexes(values: np.ndarray) -> list:
    return [float(value).hex() for value in values]


def _digest(values: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(values, dtype=np.float64).tobytes()).hexdigest()


def _grid_key(dims: int, side: int, branching: int) -> str:
    return f"grid{dims}d_side{side}_B{branching}"


def current_values() -> dict:
    values = {}
    for dims, side, branching in GRIDS:
        grid = _fitted_grid(dims, side, branching)
        key = _grid_key(dims, side, branching)
        values[key] = _hexes(grid.answer_boxes(structured_boxes(dims, side)))
        values[key + "_long"] = _digest(grid.answer_boxes(long_boxes(dims, side)))
    for spec, domain in RANGE_SPECS:
        mechanism = _fitted_hh(spec, domain)
        values[f"{spec}_D{domain}_ranges"] = _hexes(
            mechanism.answer_ranges(range_queries(domain))
        )
    return values


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN_PATH.read_text())


@pytest.mark.parametrize("dims,side,branching", GRIDS)
def test_structured_box_answers_match_golden(golden, dims, side, branching):
    grid = _fitted_grid(dims, side, branching)
    answers = grid.answer_boxes(structured_boxes(dims, side))
    assert _hexes(answers) == golden[_grid_key(dims, side, branching)]


@pytest.mark.parametrize("dims,side,branching", GRIDS)
def test_long_box_batch_matches_golden(golden, dims, side, branching):
    grid = _fitted_grid(dims, side, branching)
    answers = grid.answer_boxes(long_boxes(dims, side))
    assert _digest(answers) == golden[_grid_key(dims, side, branching) + "_long"]


@pytest.mark.parametrize("spec,domain", RANGE_SPECS)
def test_non_consistent_range_answers_match_golden(golden, spec, domain):
    mechanism = _fitted_hh(spec, domain)
    answers = mechanism.answer_ranges(range_queries(domain))
    assert _hexes(answers) == golden[f"{spec}_D{domain}_ranges"]


def per_axis_runs(tree, start, end):
    """Plain-Python B-adic peel of one axis range, independent of the
    batched decomposer: ``{level: [(first node, end node), ...]}`` with the
    node indices of each fringe run at that level (half-open).  Each level,
    finest first, gives up its left fringe up to the next coarser
    alignment, then its right fringe; a range left after the top level is
    the whole padded axis, all level-1 nodes."""
    runs = {level: [] for level in range(1, tree.height + 1)}
    lo, hi = int(start), int(end) + 1
    block = 1
    for level in range(tree.height, 0, -1):
        coarse = block * tree.branching
        left_end = min(hi, -(-lo // coarse) * coarse)
        right_start = max(left_end, hi // coarse * coarse)
        if lo < left_end:
            runs[level].append((lo // block, left_end // block))
        if right_start < hi:
            runs[level].append((right_start // block, hi // block))
        lo, hi = left_end, right_start
        block = coarse
    if lo < hi:
        runs[1].append((0, tree.nodes_at_level(1)))
    return runs


def per_box_run_product_sum(grid, estimates, row):
    """Reference box answer: per level tuple, every product of the axes'
    runs at that tuple's levels, each summed straight from the tuple's cell
    estimates (no prefix sums, no inclusion–exclusion)."""
    runs = [
        per_axis_runs(grid.tree, row[2 * axis], row[2 * axis + 1])
        for axis in range(grid.dims)
    ]
    answer = 0.0
    for levels in grid.level_tuples:
        axis_runs = [runs[axis][level] for axis, level in enumerate(levels)]
        for product in itertools.product(*axis_runs):
            cells = tuple(slice(first, end) for first, end in product)
            answer += estimates[levels][cells].sum()
    return answer


@pytest.mark.parametrize("dims,side,branching", GRIDS)
def test_box_answers_match_a_per_box_run_product_reference(dims, side, branching):
    """The batched gather against an independent per-box decomposition:
    a different summation order, so equal up to rounding only."""
    grid = _fitted_grid(dims, side, branching)
    estimates = grid.tuple_estimates()
    boxes = np.concatenate([structured_boxes(dims, side), long_boxes(dims, side)[:150]])
    np.testing.assert_allclose(
        grid.answer_boxes(boxes),
        [per_box_run_product_sum(grid, estimates, row) for row in boxes.tolist()],
        rtol=0,
        atol=1e-12,
    )


def test_boxes_agree_with_the_per_box_path():
    """Every scalar box answer is its batched row, bit for bit."""
    grid = _fitted_grid(2, 64, 2)
    boxes = structured_boxes(2, 64)
    per_box = [
        grid.answer_box([(row[0], row[1]), (row[2], row[3])]) for row in boxes
    ]
    np.testing.assert_array_equal(grid.answer_boxes(boxes), per_box)


if __name__ == "__main__":  # pragma: no cover - re-pinning helper
    print(json.dumps(current_values(), indent=1))
