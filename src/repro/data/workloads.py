"""Range-query workloads.

A *workload* is an array of closed intervals ``[a, b]`` over the domain plus
the machinery to evaluate them exactly (for ground truth) and to summarise a
mechanism's squared error over them.  The generators mirror how the paper
samples queries:

* for small / medium domains, **all** ``D (D + 1) / 2`` closed intervals are
  evaluated (Section 5, "Sampling range queries for evaluation");
* for large domains, evenly spaced starting points are chosen and every
  range beginning at one of them is evaluated;
* Figure 4 uses all ranges of a **fixed length** ``r``;
* Section 5.3 evaluates every **prefix** query;
* Section 5.5 targets the deciles (quantiles 0.1 .. 0.9).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

import numpy as np

from repro.exceptions import ConfigurationError, InvalidQueryError
from repro.privacy.randomness import RandomState, as_generator

__all__ = [
    "BoxWorkload",
    "RangeWorkload",
    "all_range_queries",
    "sampled_range_queries",
    "fixed_length_queries",
    "prefix_queries",
    "random_range_queries",
    "random_boxes",
    "evaluate_exact",
    "evaluate_exact_boxes",
]


def _as_query_array(queries: Iterable) -> np.ndarray:
    array = np.asarray(list(queries) if not isinstance(queries, np.ndarray) else queries)
    if array.size == 0:
        return np.empty((0, 2), dtype=np.int64)
    array = array.astype(np.int64)
    if array.ndim != 2 or array.shape[1] != 2:
        raise InvalidQueryError("queries must be an (n, 2) array of [start, end] pairs")
    if np.any(array[:, 0] > array[:, 1]) or np.any(array[:, 0] < 0):
        raise InvalidQueryError("every query must satisfy 0 <= start <= end")
    return array


@dataclass(frozen=True)
class RangeWorkload:
    """An immutable batch of range queries over a fixed domain.

    Attributes
    ----------
    domain_size:
        The domain ``D`` the queries are posed over.
    queries:
        Integer array of shape ``(n, 2)`` holding inclusive ``[start, end]``
        pairs.
    name:
        Human-readable label used by the experiment reports.
    """

    domain_size: int
    queries: np.ndarray
    name: str = "workload"

    def __post_init__(self) -> None:
        queries = _as_query_array(self.queries)
        if queries.size and queries[:, 1].max() >= self.domain_size:
            raise InvalidQueryError("queries exceed the domain")
        object.__setattr__(self, "queries", queries)

    def __len__(self) -> int:
        return self.queries.shape[0]

    @property
    def lengths(self) -> np.ndarray:
        """Lengths ``b - a + 1`` of every query."""
        if len(self) == 0:
            return np.empty(0, dtype=np.int64)
        return self.queries[:, 1] - self.queries[:, 0] + 1

    def true_answers(self, counts: np.ndarray) -> np.ndarray:
        """Exact normalized answers of every query on per-item counts."""
        return evaluate_exact(counts, self.queries)

    def subset(self, max_queries: int, random_state: RandomState = None) -> "RangeWorkload":
        """Uniformly subsample at most ``max_queries`` queries.

        Used to keep benchmark runtimes bounded; the subsample is reported
        with the same name suffixed by ``~``.
        """
        if max_queries <= 0:
            raise ConfigurationError(f"max_queries must be positive, got {max_queries!r}")
        if len(self) <= max_queries:
            return self
        rng = as_generator(random_state)
        chosen = rng.choice(len(self), size=max_queries, replace=False)
        return RangeWorkload(
            domain_size=self.domain_size,
            queries=self.queries[np.sort(chosen)],
            name=f"{self.name}~{max_queries}",
        )


def evaluate_exact(counts: np.ndarray, queries: np.ndarray) -> np.ndarray:
    """Exact normalized range answers ``R[a, b]`` from per-item counts.

    Answers are fractions of the population, matching the paper's problem
    definition (Section 4.1).  Uses a prefix-sum so evaluating a workload of
    ``n`` queries costs ``O(D + n)``.
    """
    counts = np.asarray(counts, dtype=np.float64)
    queries = _as_query_array(queries)
    if queries.size and queries[:, 1].max() >= counts.shape[0]:
        raise InvalidQueryError("queries exceed the counts vector")
    total = counts.sum()
    if total <= 0:
        return np.zeros(queries.shape[0])
    prefix = np.concatenate([[0.0], np.cumsum(counts)])
    sums = prefix[queries[:, 1] + 1] - prefix[queries[:, 0]]
    return sums / total


@dataclass(frozen=True)
class BoxWorkload:
    """An immutable batch of axis-aligned box queries over a ``[D]^d`` grid.

    The d-dimensional counterpart of :class:`RangeWorkload` and the planning
    input of :func:`repro.planner.plan`, which ranks candidate
    configurations by their mean answer variance over its queries.

    Attributes
    ----------
    domain_size:
        Per-axis side length ``D`` of the grid the boxes are posed over.
    dims:
        Number of axes ``d``.
    queries:
        Integer array of shape ``(n, 2d)`` holding inclusive per-axis
        ``(start, end)`` pairs in axis order —
        ``(a_1, b_1, a_2, b_2, ..., a_d, b_d)``; for ``d = 2`` this is the
        ``(x_start, x_end, y_start, y_end)`` layout of
        :func:`random_boxes` and
        :meth:`~repro.core.multidim.HierarchicalGridND.answer_boxes`.
    name:
        Human-readable label used by experiment and planner reports.
    """

    domain_size: int
    dims: int
    queries: np.ndarray
    name: str = "boxes"

    def __post_init__(self) -> None:
        dims = int(self.dims)
        if dims < 1:
            raise ConfigurationError(f"dims must be a positive integer, got {self.dims!r}")
        queries = np.asarray(self.queries)
        if queries.size == 0:
            queries = np.empty((0, 2 * dims), dtype=np.int64)
        queries = queries.astype(np.int64)
        if queries.ndim != 2 or queries.shape[1] != 2 * dims:
            raise InvalidQueryError(
                f"box queries must be an (n, {2 * dims}) array of per-axis "
                "(start, end) pairs"
            )
        starts, ends = queries[:, 0::2], queries[:, 1::2]
        if queries.size and (starts.min() < 0 or np.any(starts > ends)):
            raise InvalidQueryError("every axis must satisfy 0 <= start <= end")
        if queries.size and ends.max() >= self.domain_size:
            raise InvalidQueryError("box queries exceed the domain")
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "queries", queries)

    def __len__(self) -> int:
        return self.queries.shape[0]

    @property
    def axis_lengths(self) -> np.ndarray:
        """Per-axis side lengths ``b_k - a_k + 1`` of every box, ``(n, d)``."""
        if len(self) == 0:
            return np.empty((0, self.dims), dtype=np.int64)
        return self.queries[:, 1::2] - self.queries[:, 0::2] + 1

    def true_answers(self, counts: np.ndarray) -> np.ndarray:
        """Exact normalized box answers on a d-dimensional count grid."""
        return evaluate_exact_boxes(counts, self.queries, dims=self.dims)

    def subset(self, max_queries: int, random_state: RandomState = None) -> "BoxWorkload":
        """Uniformly subsample at most ``max_queries`` boxes."""
        if max_queries <= 0:
            raise ConfigurationError(f"max_queries must be positive, got {max_queries!r}")
        if len(self) <= max_queries:
            return self
        rng = as_generator(random_state)
        chosen = rng.choice(len(self), size=max_queries, replace=False)
        return BoxWorkload(
            domain_size=self.domain_size,
            dims=self.dims,
            queries=self.queries[np.sort(chosen)],
            name=f"{self.name}~{max_queries}",
        )


def evaluate_exact_boxes(
    counts: np.ndarray, queries: np.ndarray, dims: Optional[int] = None
) -> np.ndarray:
    """Exact normalized box answers from a d-dimensional count grid.

    ``counts`` is a ``D x ... x D`` array of per-cell counts; ``queries``
    follows the ``(n, 2d)`` axis-blocked layout of :class:`BoxWorkload`.
    Uses a d-dimensional prefix sum and one fancy-indexed gather per corner,
    so a workload of ``n`` boxes costs ``O(D^d + 2^d n)``.
    """
    counts = np.asarray(counts, dtype=np.float64)
    if dims is None:
        dims = counts.ndim
    if counts.ndim != dims:
        raise InvalidQueryError(
            f"counts must be a {dims}-dimensional grid, got shape {counts.shape}"
        )
    queries = np.asarray(queries)
    if queries.size == 0:
        queries = np.empty((0, 2 * dims), dtype=np.int64)
    queries = queries.astype(np.int64)
    if queries.ndim != 2 or queries.shape[1] != 2 * dims:
        raise InvalidQueryError(
            f"box queries must be an (n, {2 * dims}) array of per-axis "
            "(start, end) pairs"
        )
    starts, ends = queries[:, 0::2], queries[:, 1::2]
    if queries.size and (starts.min() < 0 or np.any(starts > ends)):
        raise InvalidQueryError("every axis must satisfy 0 <= start <= end")
    for axis in range(dims):
        if queries.size and ends[:, axis].max() >= counts.shape[axis]:
            raise InvalidQueryError("box queries exceed the counts grid")
    total = counts.sum()
    if total <= 0:
        return np.zeros(queries.shape[0])
    prefix = np.zeros(tuple(n + 1 for n in counts.shape))
    inner = counts
    for axis in range(dims):
        inner = np.cumsum(inner, axis=axis)
    prefix[(slice(1, None),) * dims] = inner
    sums = np.zeros(queries.shape[0], dtype=np.float64)
    for corner in range(1 << dims):
        index = tuple(
            starts[:, axis] if (corner >> axis) & 1 else ends[:, axis] + 1
            for axis in range(dims)
        )
        term = prefix[index]
        sums += -term if bin(corner).count("1") % 2 else term
    return sums / total


def all_range_queries(domain_size: int, name: str = "all-ranges") -> RangeWorkload:
    """Every closed interval ``[a, b]`` with ``0 <= a <= b < D``.

    There are ``D (D + 1) / 2`` of them; intended for ``D`` up to a few
    thousand (the paper evaluates all queries up to ``D = 2^16``; here the
    exhaustive workload is used for the small-domain cells and the sampled
    workload everywhere else).
    """
    rows, cols = np.tril_indices(int(domain_size))
    # tril gives pairs with cols <= rows, i.e. [start=cols, end=rows].
    queries = np.stack([cols, rows], axis=1)
    return RangeWorkload(domain_size=int(domain_size), queries=queries, name=name)


def sampled_range_queries(
    domain_size: int, start_step: int, name: Optional[str] = None
) -> RangeWorkload:
    """All ranges beginning at evenly spaced starting points.

    This is the paper's strategy for ``D = 2^20`` and ``2^22`` (start points
    every ``2^15`` / ``2^16`` items).  Every range ``[s, b]`` with ``s`` a
    sampled start and ``b >= s`` is included.
    """
    domain_size = int(domain_size)
    if start_step < 1:
        raise ConfigurationError(f"start_step must be >= 1, got {start_step!r}")
    starts = np.arange(0, domain_size, int(start_step), dtype=np.int64)
    pieces = [
        np.stack([np.full(domain_size - s, s, dtype=np.int64), np.arange(s, domain_size)], axis=1)
        for s in starts
    ]
    queries = np.concatenate(pieces, axis=0)
    return RangeWorkload(
        domain_size=domain_size,
        queries=queries,
        name=name or f"sampled-starts-{start_step}",
    )


def fixed_length_queries(
    domain_size: int, length: int, name: Optional[str] = None
) -> RangeWorkload:
    """All ``D - r + 1`` ranges of a fixed length ``r`` (Figure 4's x-axis)."""
    domain_size = int(domain_size)
    if not 1 <= length <= domain_size:
        raise InvalidQueryError(
            f"length must be in [1, {domain_size}], got {length!r}"
        )
    starts = np.arange(0, domain_size - length + 1, dtype=np.int64)
    queries = np.stack([starts, starts + length - 1], axis=1)
    return RangeWorkload(
        domain_size=domain_size, queries=queries, name=name or f"length-{length}"
    )


def prefix_queries(domain_size: int, name: str = "prefixes") -> RangeWorkload:
    """Every prefix query ``[0, b]`` (Section 4.7 / Table 6)."""
    domain_size = int(domain_size)
    ends = np.arange(domain_size, dtype=np.int64)
    queries = np.stack([np.zeros(domain_size, dtype=np.int64), ends], axis=1)
    return RangeWorkload(domain_size=domain_size, queries=queries, name=name)


def random_range_queries(
    domain_size: int,
    count: int,
    random_state: RandomState = None,
    name: Optional[str] = None,
) -> RangeWorkload:
    """Uniformly random ranges (endpoints drawn independently and sorted)."""
    domain_size = int(domain_size)
    if count < 0:
        raise ConfigurationError(f"count must be non-negative, got {count!r}")
    rng = as_generator(random_state)
    endpoints = rng.integers(0, domain_size, size=(int(count), 2))
    queries = np.sort(endpoints, axis=1)
    return RangeWorkload(
        domain_size=domain_size, queries=queries, name=name or f"random-{count}"
    )


def random_boxes(
    side: int,
    count: int,
    dims: int = 2,
    random_state: RandomState = None,
) -> np.ndarray:
    """Uniformly random axis-aligned boxes on a ``[side]^dims`` grid.

    Returns a ``(count, 2 * dims)`` ``int64`` array of per-axis inclusive
    ``(start, end)`` pairs in axis order (each axis's endpoints drawn
    independently and sorted) — the query format of
    :meth:`repro.core.multidim.HierarchicalGridND.answer_boxes` and
    :class:`BoxWorkload`.  Axes consume the random stream in order, so
    ``dims=2`` reproduces the historical 2-D rectangle draws exactly.
    """
    side = int(side)
    if side < 1:
        raise ConfigurationError(f"side must be a positive integer, got {side!r}")
    if count < 0:
        raise ConfigurationError(f"count must be non-negative, got {count!r}")
    if not isinstance(dims, (int, np.integer)) or dims < 1:
        raise ConfigurationError(f"dims must be a positive integer, got {dims!r}")
    rng = as_generator(random_state)
    axes = [
        np.sort(rng.integers(0, side, size=(int(count), 2)), axis=1)
        for _ in range(int(dims))
    ]
    return np.concatenate(axes, axis=1)
