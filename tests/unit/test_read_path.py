"""One read path: every scalar read surface is a one-row batched call.

``answer_range`` / ``answer_prefix`` are row 0 of ``answer_ranges`` on a
one-row batch, and ``answer_box`` / ``answer_rectangle`` are row 0 of
``answer_boxes``: one query gets one float, bit for bit, whatever the
surface, and the scalar call shares the batch's cache entry.  The shared
gate refuses non-integer bounds instead of truncating them.
"""

import numpy as np
import pytest

from repro.centralized.hierarchical import CentralHierarchicalHistogram
from repro.centralized.wavelet import PriveletWavelet
from repro.core.factory import mechanism_from_spec
from repro.exceptions import InvalidQueryError

DOMAIN = 1024
RANGE_SPECS = ["flat_oue", "hh_4", "hhc_4", "hh_16", "haar"]


def _ranges(domain, n, seed):
    rng = np.random.default_rng(seed)
    queries = np.sort(rng.integers(0, domain, size=(n, 2)), axis=1)
    special = [[0, domain - 1], [0, 0], [domain - 1, domain - 1], [3, 3]]
    return np.concatenate([queries, special]).astype(np.int64)


def _boxes(side, dims, n, seed):
    rng = np.random.default_rng(seed)
    bounds = np.sort(rng.integers(0, side, size=(n, dims, 2)), axis=2)
    return bounds.reshape(n, 2 * dims).astype(np.int64)


@pytest.fixture(scope="module", params=RANGE_SPECS)
def fitted(request):
    mechanism = mechanism_from_spec(request.param, epsilon=1.0, domain_size=DOMAIN)
    items = np.random.default_rng(1).integers(0, DOMAIN, size=20_000)
    return mechanism.fit_items(items, random_state=2)


@pytest.fixture(
    scope="module",
    params=[
        lambda: CentralHierarchicalHistogram(1.0, DOMAIN, branching=4),
        lambda: PriveletWavelet(1.0, DOMAIN),
    ],
    ids=["central_hh", "privelet"],
)
def central(request):
    counts = np.random.default_rng(3).multinomial(20_000, np.full(DOMAIN, 1 / DOMAIN))
    return request.param().fit_counts(counts, random_state=4)


@pytest.fixture(scope="module", params=[(2, 64), (3, 16)])
def grid(request):
    dims, side = request.param
    mechanism = mechanism_from_spec(f"grid{dims}d_2", epsilon=1.0, domain_size=side)
    points = np.random.default_rng(5).integers(0, side, size=(20_000, dims))
    return mechanism.fit_points(points, random_state=6)


def _same_bits(scalar, row):
    assert float(scalar).hex() == float(row).hex()


class TestScalarIsOneBatchedRow:
    def test_answer_range_is_its_batched_row(self, fitted):
        fitted.set_answer_cache_size(0)
        for start, end in _ranges(DOMAIN, 200, 7).tolist():
            row = fitted.answer_ranges(np.array([[start, end]]))[0]
            _same_bits(fitted.answer_range(start, end), row)
        for end in (0, 17, DOMAIN - 1):
            _same_bits(fitted.answer_prefix(end), fitted.answer_ranges([[0, end]])[0])

    def test_rows_of_a_batch_are_the_scalar_answers(self, fitted):
        queries = _ranges(DOMAIN, 200, 8)
        batch = fitted.answer_ranges(queries)
        for (start, end), row in zip(queries.tolist(), batch):
            _same_bits(fitted.answer_range(start, end), row)

    def test_central_baselines(self, central):
        queries = _ranges(DOMAIN, 200, 9)
        batch = central.answer_ranges(queries)
        for (start, end), row in zip(queries.tolist(), batch):
            _same_bits(central.answer_range(start, end), row)
        raw = central.answer_ranges(queries, normalized=False)
        for (start, end), row in zip(queries.tolist(), raw):
            _same_bits(central.answer_range(start, end, normalized=False), row)

    def test_box_and_rectangle_are_batched_rows(self, grid):
        dims, side = grid.dims, grid.domain_size
        boxes = _boxes(side, dims, 100, 10)
        batch = grid.answer_boxes(boxes)
        for row, value in zip(boxes.tolist(), batch):
            pairs = [(row[2 * axis], row[2 * axis + 1]) for axis in range(dims)]
            _same_bits(grid.answer_box(pairs), value)
            if dims == 2:
                _same_bits(grid.answer_rectangle(*pairs), value)

    def test_grid_flat_ranges_are_batched_rows(self, grid):
        queries = _ranges(grid.flat_domain_size, 100, 11)
        batch = grid.answer_ranges(queries)
        for (start, end), row in zip(queries.tolist(), batch):
            _same_bits(grid.answer_range(start, end), row)

    def test_grid_flat_range_sums_its_boxes_in_order(self, grid):
        start, end = 37, grid.flat_domain_size - 40
        boxes = grid._flat_range_boxes(start, end, grid.dims)
        rows = np.array([[b for pair in box for b in pair] for box in boxes])
        expected = 0.0
        for value in grid.answer_boxes(rows):
            expected += value
        _same_bits(grid.answer_range(start, end), expected)


class TestScalarSharesTheBatchCacheEntry:
    def test_range_then_batch_is_one_miss(self, fitted):
        fitted.set_answer_cache_size(64)
        before = fitted.answer_cache_stats()
        scalar = fitted.answer_range(11, 500)
        row = fitted.answer_ranges(np.array([[11, 500]]))[0]
        after = fitted.answer_cache_stats()
        _same_bits(scalar, row)
        assert after["misses"] - before["misses"] == 1
        assert after["hits"] - before["hits"] == 1

    def test_box_then_batch_is_one_miss(self, grid):
        grid.set_answer_cache_size(64)
        dims = grid.dims
        before = grid.answer_cache_stats()
        scalar = grid.answer_box([(1, 9)] * dims)
        row = grid.answer_boxes(np.array([[1, 9] * dims]))[0]
        after = grid.answer_cache_stats()
        _same_bits(scalar, row)
        assert after["misses"] - before["misses"] == 1
        assert after["hits"] - before["hits"] == 1


class TestIntegerBoundsOnly:
    @pytest.mark.parametrize(
        "queries",
        [
            np.array([[0.5, 10.9]]),
            np.array([[2.0, 10.0]]),
            np.array([[True, False]]),
            np.array([["0", "1"]]),
            [[0.5, 10.9]],
            [[True, 10]],
            [[np.True_, 10]],
        ],
    )
    def test_answer_ranges_refuses_non_integer_bounds(self, fitted, queries):
        with pytest.raises(InvalidQueryError, match="query bounds must be integers"):
            fitted.answer_ranges(queries)

    @pytest.mark.parametrize("bounds", [(2.9, 10), (2, 10.0), (True, 10), ("2", 10)])
    def test_answer_range_refuses_non_integer_bounds(self, fitted, bounds):
        with pytest.raises(InvalidQueryError, match="query bounds must be integers"):
            fitted.answer_range(*bounds)

    def test_central_baselines_refuse_non_integer_bounds(self, central):
        with pytest.raises(InvalidQueryError, match="query bounds must be integers"):
            central.answer_range(2.9, 10)
        with pytest.raises(InvalidQueryError, match="query bounds must be integers"):
            central.answer_ranges(np.array([[0.5, 10.9]]))
        with pytest.raises(InvalidQueryError, match="query bounds must be integers"):
            central.answer_ranges([[True, 10]])

    def test_box_surfaces_refuse_non_integer_bounds(self, grid):
        dims = grid.dims
        box = [(0, 3)] * (dims - 1) + [(1.5, 4)]
        with pytest.raises(InvalidQueryError, match="query bounds must be integers"):
            grid.answer_box(box)
        with pytest.raises(InvalidQueryError, match="query bounds must be integers"):
            grid.answer_box([(True, 3)] + [(0, 3)] * (dims - 1))
        with pytest.raises(InvalidQueryError, match="query bounds must be integers"):
            grid.answer_boxes(np.array([[0.0, 3.0] * dims]))
        if dims == 2:
            with pytest.raises(InvalidQueryError, match="query bounds must be integers"):
                grid.answer_rectangle((0, 3.0), (1, 4))

    def test_integer_dtypes_of_any_width_are_accepted(self, fitted):
        expected = fitted.answer_ranges(np.array([[3, 40]], dtype=np.int64))
        for dtype in (np.int8, np.int32, np.uint16):
            np.testing.assert_array_equal(
                fitted.answer_ranges(np.array([[3, 40]], dtype=dtype)), expected
            )
        _same_bits(fitted.answer_range(np.int32(3), np.int64(40)), expected[0])

    def test_empty_batches_pass_whatever_their_dtype(self, fitted, grid):
        assert fitted.answer_ranges(np.zeros((0, 2))).shape == (0,)
        assert grid.answer_boxes(np.zeros((0, 2 * grid.dims))).shape == (0,)
        assert grid.answer_ranges(np.zeros((0, 2), dtype=np.int64)).shape == (0,)


class TestFirstBadRowIsReported:
    def test_ranges(self, fitted):
        queries = [[0, 1], [5, 3], [0, DOMAIN + 9]]
        with pytest.raises(
            InvalidQueryError, match=rf"invalid range \[5, 3\] for domain of size {DOMAIN}$"
        ):
            fitted.answer_ranges(queries)
        with pytest.raises(
            InvalidQueryError, match=rf"invalid range \[0, {DOMAIN}\] for domain of size"
        ):
            fitted.answer_range(0, DOMAIN)

    def test_central_baselines(self, central):
        with pytest.raises(
            InvalidQueryError, match=rf"invalid range \[-1, 5\] for domain of size {DOMAIN}$"
        ):
            central.answer_ranges([[0, 5], [-1, 5], [7, 3]])
        with pytest.raises(InvalidQueryError, match=r"invalid range \[0, 1024\]"):
            central.answer_range(0, DOMAIN)

    def test_boxes(self, grid):
        dims, side = grid.dims, grid.domain_size
        rows = [[0, 1] * dims, [0, 1] * (dims - 1) + [-2, 1], [4, 3] * dims]
        with pytest.raises(
            InvalidQueryError, match=rf"invalid range \[-2, 1\] for domain of size {side}$"
        ):
            grid.answer_boxes(rows)
        with pytest.raises(InvalidQueryError, match="one \\(start, end\\) pair per axis"):
            grid.answer_box([(0, 1)] * (dims + 1))

    def test_shape(self, fitted, grid):
        with pytest.raises(InvalidQueryError, match=r"\(n, 2\)"):
            fitted.answer_ranges(np.array([0, 1, 2]))
        with pytest.raises(InvalidQueryError, match="rectangular"):
            fitted.answer_ranges([[0, 1], [2]])
        with pytest.raises(InvalidQueryError, match=rf"\(n, {2 * grid.dims}\)"):
            grid.answer_boxes(np.zeros((1, 3), dtype=np.int64))
