"""``answer_boxes`` against a straightforward per-tuple reference, bit for bit.

The batched box path fetches every inclusion–exclusion corner with one
gather and folds the implicit-root run of a full-axis query into level-1
slot 1.  Both are only valid if every answer keeps every bit of the plain
evaluation: for each level tuple in order, for each combination of that
tuple's per-axis run slots in ``itertools.product`` order, add the
``2^d``-corner inclusion–exclusion of the tuple's prefix-sum grid to an
answer that starts at ``0.0`` — with the survivor charged as a third
level-1 slot.  The reference below is that evaluation, written against
the unchanged peel kernel; answers are compared as raw float64 bits, so
even a signed-zero difference fails.
"""

import itertools

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import kernels
from repro.core.multidim import HierarchicalGridND


def _reference_axis_slots(tree, starts, ends):
    bounds, survivors = kernels.badic_axis_runs(
        starts, ends, tree.branching, tree.height
    )
    slots = {
        level: [
            (bounds[index, 0], bounds[index, 1]),
            (bounds[index, 2], bounds[index, 3]),
        ]
        for index, level in enumerate(range(tree.height, 0, -1))
    }
    if np.any(survivors):
        slots[1].append(
            (
                np.zeros(starts.shape[0], dtype=np.int64),
                np.where(survivors, tree.nodes_at_level(1), 0),
            )
        )
    return slots


def reference_answer_boxes(grid, queries):
    dims = grid.dims
    axis_slots = [
        _reference_axis_slots(grid.tree, queries[:, 2 * axis], queries[:, 2 * axis + 1])
        for axis in range(dims)
    ]
    answers = np.zeros(queries.shape[0], dtype=np.float64)
    for levels in grid.level_tuples:
        prefix = grid._tuple_prefix[levels]
        slot_lists = [axis_slots[axis][levels[axis]] for axis in range(dims)]
        for combo in itertools.product(*slot_lists):
            value = prefix[tuple(slot[1] for slot in combo)]
            for corner in range(1, 1 << dims):
                index = tuple(
                    combo[axis][0] if (corner >> axis) & 1 else combo[axis][1]
                    for axis in range(dims)
                )
                if bin(corner).count("1") % 2:
                    value = value - prefix[index]
                else:
                    value = value + prefix[index]
            answers += value
    return answers


@st.composite
def grids_and_boxes(draw):
    dims = draw(st.integers(min_value=1, max_value=3))
    branching = draw(st.integers(min_value=2, max_value=4))
    side = draw(st.integers(min_value=2, max_value=40 if dims < 3 else 12))
    if draw(st.booleans()):
        # Powers of B are the sides on which full-axis queries survive
        # every level of the peel.
        side = branching ** max(1, min(draw(st.integers(1, 5)), 5 - dims))
    count = draw(st.integers(min_value=1, max_value=60))
    seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    rng = np.random.default_rng(seed)
    boxes = np.sort(rng.integers(0, side, size=(count, dims, 2)), axis=2)
    full = rng.random((count, dims)) < draw(st.sampled_from([0.0, 0.3, 0.8]))
    boxes[full] = (0, side - 1)
    return dims, side, branching, seed, boxes.reshape(count, 2 * dims)


@given(case=grids_and_boxes())
@settings(max_examples=60, deadline=None)
def test_answer_boxes_matches_the_per_tuple_reference_bitwise(case):
    dims, side, branching, seed, boxes = case
    grid = HierarchicalGridND(1.1, side, dims=dims, branching=branching)
    rng = np.random.default_rng(seed)
    grid.fit_points(rng.integers(0, side, size=(3000, dims)), random_state=rng)
    grid.set_answer_cache_size(0)
    answers = grid.answer_boxes(boxes)
    expected = reference_answer_boxes(grid, boxes)
    np.testing.assert_array_equal(answers.view(np.int64), expected.view(np.int64))
