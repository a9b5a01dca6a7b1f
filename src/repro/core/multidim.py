"""Multi-dimensional extension (Section 6 of the paper).

The hierarchical decomposition generalises to ``d`` dimensions by taking the
product of per-axis B-adic decompositions: any axis-aligned box splits into
``O(log_B^d D)`` "B-adic boxes", and a user's point lies in exactly one box
per *tuple* of axis levels.  The protocol therefore becomes:

* each user samples a level tuple ``(l_1, ..., l_d)`` uniformly at random;
* she forms the one-hot vector over the ``B^{l_1} * ... * B^{l_d}`` grid
  cells of that resolution and perturbs it with a frequency oracle;
* the aggregator reconstructs one fraction estimate per cell of every level
  tuple and answers a box query by summing the cells of its product
  decomposition (inclusion–exclusion over the ``2^d`` corners of each
  run product, evaluated on d-dimensional prefix sums).

The variance of a box query grows as ``log^{2d}_B D``, matching the
discussion in the paper; Section 6 notes that for higher dimensions coarse
gridding becomes preferable — :mod:`repro.planner` turns exactly that
trade-off (mechanism family x branching factor x oracle) into a runtime
decision from each candidate's :meth:`answer_variances`.

Since every level tuple's aggregation is an
:class:`~repro.frequency_oracles.accumulators.OracleAccumulator` over the
flattened cell domain, the mechanism is a full
:class:`~repro.core.base.RangeQueryMechanism` citizen: incremental
collection (:meth:`~HierarchicalGridND.partial_fit` /
:meth:`~HierarchicalGridND.partial_fit_points`), shard combination
(:meth:`~HierarchicalGridND.merge_from`) and bit-exact snapshots
(:meth:`~HierarchicalGridND.state_dict`, :mod:`repro.persist`) all work,
so the sharded / async / durable pipeline serves box workloads too.
Internally the base class sees the *flattened* row-major domain of size
``D^d`` — a point ``(x_1, ..., x_d)`` is the item
``x_1 * D^{d-1} + ... + x_d`` — while the d-dimensional surface
(:meth:`~HierarchicalGridND.fit_points`,
:meth:`~HierarchicalGridND.answer_box`,
:meth:`~HierarchicalGridND.estimate_heatmap`) speaks coordinates.

:class:`HierarchicalGrid2D` is the ``d = 2`` specialization — the original
two-dimensional mechanism, re-expressed on top of the generic machinery
with bit-identical answers, persist signatures and snapshot layout.
"""

from __future__ import annotations

import itertools
import math
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.base import RangeQueryMechanism, validate_queries
from repro.exceptions import (
    InvalidDomainError,
    InvalidQueryError,
)
from repro.frequency_oracles.base import integer_array
from repro.frequency_oracles.registry import make_oracle
from repro.hierarchy.decomposition import batched_axis_runs, batched_node_counts
from repro.hierarchy.tree import DomainTree
from repro.privacy.randomness import RandomState

__all__ = ["HierarchicalGrid2D", "HierarchicalGridND", "validate_points"]

#: A level tuple ``(l_1, ..., l_d)`` indexing one resolution grid.
LevelTuple = Tuple[int, ...]

#: Largest flattened domain the row-major item encoding can address without
#: risking int64 overflow in the flatten / unflatten arithmetic.
_MAX_FLAT_DOMAIN = 1 << 62

#: Most level tuples ``h^d`` a grid builds, one oracle each.  The largest
#: grid the tests, benchmarks and perfbench workloads build has 5^3 = 125
#: (side 32, three axes, B = 2); a header claiming many axes is refused by
#: this arithmetic before any tuple exists.
_MAX_LEVEL_TUPLES = 1 << 10

#: Gathered prefix-sum entries per chunk of ``answer_boxes``: a batch is
#: answered in chunks of ``max(1, _GATHER_ENTRIES // (h^d 4^d))`` queries,
#: which bounds the gather's index and value temporaries (~0.5 MB each).
_GATHER_ENTRIES = 1 << 16


def validate_points(points: np.ndarray, dims: int, side: int) -> np.ndarray:
    """Validate an ``(n, dims)`` integer point array (shared point gate).

    The single authoritative input check of every point-collection path —
    :meth:`HierarchicalGridND.flatten_points` and through it
    :class:`~repro.streaming.ShardedCollector.submit_points`,
    :class:`~repro.service.IngestionService` and the HTTP ``/v1/points``
    endpoint.  Float coordinates are refused by :func:`integer_array`
    (``[[0.9, 0.2]]`` is not ``[[0, 0]]``), and out-of-bounds coordinates
    are reported against the ``[0, D)^d`` cube.
    Returns the points as ``int64`` (no copy when already integral).
    """
    points = integer_array(points, "points")
    if points.ndim != 2 or points.shape[1] != dims:
        raise InvalidQueryError(
            f"points must be an (n, {dims}) array of grid coordinates"
        )
    if points.size and (points.min() < 0 or points.max() >= side):
        raise InvalidQueryError(f"points must lie in [0, {side})^{dims}")
    return points.astype(np.int64, copy=False)


class HierarchicalGridND(RangeQueryMechanism):
    """LDP box-query mechanism over a ``d``-dimensional grid domain.

    Parameters
    ----------
    epsilon:
        Per-user privacy budget.
    domain_size:
        Per-axis side length ``D`` of the ``[D]^d`` grid.
    dims:
        Number of axes ``d`` (default 2).
    branching:
        Per-axis fan-out ``B`` of the hierarchical decomposition.
    oracle:
        Frequency oracle used for every level tuple (default ``"oue"``).

    Notes
    -----
    As a :class:`~repro.core.base.RangeQueryMechanism` the instance also
    answers *flattened* row-major queries (``fit_items`` /
    ``answer_range`` over the domain ``[0, D^d)``), which is what the
    sharded and streaming layers route through; the d-dimensional methods
    are thin coordinate adapters over the same accumulated state.
    """

    def __init__(
        self,
        epsilon: float,
        domain_size: int,
        dims: int = 2,
        branching: int = 2,
        oracle: str = "oue",
        name: Optional[str] = None,
        **oracle_kwargs,
    ) -> None:
        if not isinstance(domain_size, (int, np.integer)) or domain_size < 2:
            raise InvalidDomainError(
                f"domain side length must be an integer >= 2, got {domain_size!r}"
            )
        if not isinstance(dims, (int, np.integer)) or dims < 1:
            raise InvalidDomainError(
                f"dims must be a positive integer, got {dims!r}"
            )
        side = int(domain_size)
        dims = int(dims)
        # side >= 2, so more than 62 axes overflow before the power is taken.
        if dims >= _MAX_FLAT_DOMAIN.bit_length() or side**dims > _MAX_FLAT_DOMAIN:
            raise InvalidDomainError(
                f"flattened domain {side}^{dims} exceeds the int64-addressable "
                "item space; reduce the side length or the dimensionality"
            )
        tree = DomainTree(side, branching)
        if tree.height**dims > _MAX_LEVEL_TUPLES:
            raise InvalidDomainError(
                f"a side-{side} grid over {dims} axes has {tree.height}^{dims} "
                f"level tuples, more than {_MAX_LEVEL_TUPLES}; reduce the side "
                "length or the dimensionality, or raise the branching factor"
            )
        default_name = f"Grid{dims}D{str(oracle).upper()}_B{branching}"
        # The base class owns the flattened row-major domain of D^d cells.
        super().__init__(epsilon, side**dims, name=name or default_name)
        self._side = side
        self._dims = dims
        self._tree = tree
        self._oracle_name = str(oracle)
        self._oracle_kwargs = dict(oracle_kwargs)
        # itertools.product enumerates the first axis slowest — for d = 2
        # this is exactly the historical `for lx: for ly:` pair order, which
        # every random stream below depends on.
        self._tuples: List[LevelTuple] = list(
            itertools.product(self._tree.levels, repeat=dims)
        )
        self._init_labels(
            {
                levels: make_oracle(
                    self._oracle_name,
                    epsilon=self.epsilon,
                    domain_size=math.prod(map(self._tree.nodes_at_level, levels)),
                    **self._oracle_kwargs,
                )
                for levels in self._tuples
            }
        )  # default shares: level tuples are sampled uniformly
        self._estimates: Optional[Dict[LevelTuple, np.ndarray]] = None
        self._init_prefix_layout()
        # _label_cells's (items, per-axis coordinates, per-axis nodes).
        self._cells_memo: Tuple[Any, Tuple[np.ndarray, ...], dict] = (None, (), {})

    def _init_prefix_layout(self) -> None:
        """Where each level tuple's prefix-sum grid lives in one flat buffer.

        Tuple ``t``'s grid of shape ``(n_1 + 1, ..., n_d + 1)`` occupies
        ``[offset[t], offset[t] + size)`` row-major, so its entry at
        ``(i_1, ..., i_d)`` is ``flat[offset[t] + sum(i_a * stride[t, a])]``
        — the addressing :meth:`answer_boxes` gathers with.
        """
        shapes = [
            tuple(self._tree.nodes_at_level(level) + 1 for level in levels)
            for levels in self._tuples
        ]
        sizes = [math.prod(shape) for shape in shapes]
        self._prefix_shapes = shapes
        self._prefix_offsets = np.cumsum([0] + sizes[:-1], dtype=np.int64)
        self._prefix_strides = np.array(
            [[math.prod(shape[axis + 1 :]) for axis in range(self._dims)] for shape in shapes],
            dtype=np.int64,
        )
        self._prefix_size = sum(sizes)
        # Row of each tuple's per-axis level in a batched_axis_runs array.
        self._tuple_level_rows = np.array(self._tuples, dtype=np.int64) - 1
        self._prefix_flat: Optional[np.ndarray] = None
        self._tuple_prefix: Optional[Dict[LevelTuple, np.ndarray]] = None

    # ------------------------------------------------------------------
    # Configuration
    # ------------------------------------------------------------------
    config_kind = "gridnd"
    config_optional = frozenset({"name", "oracle_kwargs", "branching", "oracle"})

    def config_dict(self) -> Dict[str, Any]:
        config = super().config_dict()  # domain_size: the side length
        config.update(
            dims=self._dims,
            branching=int(self.branching),
            oracle=self._oracle_name,
            oracle_kwargs=dict(self._oracle_kwargs),
        )
        return config

    @property
    def domain_size(self) -> int:
        """Per-axis side length ``D`` of the grid (the flattened item domain
        is ``D^d``, see :attr:`flat_domain_size`)."""
        return self._side

    @property
    def flat_domain_size(self) -> int:
        """Number of grid cells ``D^d`` — the row-major item domain the
        base-class collection API (``fit_items`` etc.) operates on."""
        return self._domain_size

    @property
    def dims(self) -> int:
        """Number of axes ``d``."""
        return self._dims

    @property
    def tree(self) -> DomainTree:
        """The per-axis domain-tree geometry (shared by every axis)."""
        return self._tree

    @property
    def branching(self) -> int:
        return self._tree.branching

    @property
    def height(self) -> int:
        """Per-axis tree height ``h``."""
        return self._tree.height

    @property
    def level_tuples(self) -> List[LevelTuple]:
        """The ``h^d`` level tuples ``(l_1, ..., l_d)``, one resolution grid
        each."""
        return list(self._tuples)

    @property
    def tuple_user_counts(self) -> Optional[np.ndarray]:
        """Users that reported each level tuple so far (``None`` unfitted)."""
        return self._user_counts()

    def tuple_estimates(self) -> Dict[LevelTuple, np.ndarray]:
        """Per-level-tuple cell estimates as d-dimensional grids."""
        self._require_fitted()
        return {levels: grid.copy() for levels, grid in self._estimates.items()}

    # ------------------------------------------------------------------
    # Point validation / flattening
    # ------------------------------------------------------------------
    def flatten_points(self, points: np.ndarray) -> np.ndarray:
        """Validate an ``(n, d)`` integer point array and flatten it.

        Returns the row-major item indices accepted by the base-class
        collection API (and therefore by
        :class:`~repro.streaming.ShardedCollector` /
        :class:`~repro.service.IngestionService`); validation lives in the
        shared :func:`validate_points` gate.
        """
        points = validate_points(points, self._dims, self._side)
        return np.ravel_multi_index(tuple(points.T), (self._side,) * self._dims)

    # ------------------------------------------------------------------
    # Collection
    # ------------------------------------------------------------------
    def fit_points(
        self,
        points: np.ndarray,
        random_state: RandomState = None,
        mode: str = "aggregate",
    ) -> "HierarchicalGridND":
        """Collect a population of d-dimensional points (one-shot).

        Each user is assigned one level tuple uniformly at random; her cell
        index at that resolution is perturbed with the configured oracle.
        ``mode="aggregate"`` (default) samples the aggregator's view
        directly; ``mode="per_user"`` runs the real local protocol per user.
        """
        return self.fit_items(
            self.flatten_points(points), random_state=random_state, mode=mode
        )

    def partial_fit_points(
        self,
        points: np.ndarray,
        random_state: RandomState = None,
        mode: str = "aggregate",
    ) -> "HierarchicalGridND":
        """Collect one additional batch of points incrementally.

        The d-dimensional counterpart of
        :meth:`~repro.core.base.RangeQueryMechanism.partial_fit`: batches
        accumulate on top of everything collected so far, and each user must
        appear in exactly one batch overall.
        """
        return self.partial_fit(
            self.flatten_points(points), random_state=random_state, mode=mode
        )

    def _draw_labels(self, rng: np.random.Generator, n_users: int) -> np.ndarray:
        """Each user samples one level tuple uniformly (``rng.integers``)."""
        return rng.integers(0, len(self._tuples), size=n_users)

    def _label_cells(self, levels: LevelTuple, items: np.ndarray) -> np.ndarray:
        """Flattened row-major cell indices of row-major items in the
        resolution grid at a level tuple.  The aggregate fold maps one
        support array through all ``h^d`` tuples, so the last array's
        per-axis nodes are kept: split once per batch, not once per tuple.
        """
        if items is not self._cells_memo[0]:
            self._cells_memo = (items, np.unravel_index(items, (self._side,) * self._dims), {})
        _, axes, nodes = self._cells_memo
        cells = 0
        for axis, level in enumerate(levels):
            if (axis, level) not in nodes:
                nodes[axis, level] = self._tree.nodes_of_items(level, axes[axis])
            cells = cells * self._tree.nodes_at_level(level) + nodes[axis, level]
        return cells

    # ------------------------------------------------------------------
    # Merging / estimates
    # ------------------------------------------------------------------
    def _merge_signature(self) -> tuple:
        return super()._merge_signature() + (
            self._side,
            self._dims,
            self._oracle_name,
            self.branching,
            tuple(sorted(self._oracle_kwargs.items())),
        )

    def _refresh_estimates(self) -> None:
        estimates: Dict[LevelTuple, np.ndarray] = {}
        prefixes: Dict[LevelTuple, np.ndarray] = {}
        flat = np.zeros(self._prefix_size, dtype=np.float64)
        for levels, offset, shape in zip(
            self._tuples, self._prefix_offsets, self._prefix_shapes
        ):
            grid = np.asarray(
                self._accumulators[levels].estimate(), dtype=np.float64
            ).reshape(tuple(n - 1 for n in shape))
            estimates[levels] = grid
            # Each tuple's prefix grid is a view into the flat buffer.
            prefix = flat[offset : offset + math.prod(shape)].reshape(shape)
            inner = np.cumsum(grid, axis=0)
            for axis in range(1, self._dims):
                inner = np.cumsum(inner, axis=axis)
            prefix[(slice(1, None),) * self._dims] = inner
            prefixes[levels] = prefix
        self._estimates = estimates
        self._prefix_flat = flat
        self._tuple_prefix = prefixes
        leaves = estimates[(self._tree.height,) * self._dims]
        self._frequencies = leaves[(slice(None, self._side),) * self._dims].reshape(-1)
        self._prefix = np.concatenate([[0.0], np.cumsum(self._frequencies)])

    # ------------------------------------------------------------------
    # Query answering
    # ------------------------------------------------------------------
    def answer_box(self, ranges: Sequence[Tuple[int, int]]) -> float:
        """Estimated fraction of users inside an axis-aligned box.

        ``ranges`` holds one inclusive ``[start, end]`` pair per axis.  The
        answer is row 0 of :meth:`answer_boxes` on the one-row batch, and
        shares its cache entry.
        """
        if len(ranges) != self._dims:
            raise InvalidQueryError(
                f"box queries need one (start, end) pair per axis; "
                f"got {len(ranges)} pairs for {self._dims} axes"
            )
        return float(self.answer_boxes([[bound for pair in ranges for bound in pair]])[0])

    def answer_boxes(self, queries: np.ndarray) -> np.ndarray:
        """Vectorised :meth:`answer_box` over ``(n, 2d)`` rows holding the
        per-axis inclusive bounds ``(a_1, b_1, ..., a_d, b_d)``.

        All queries are decomposed together per axis
        (:func:`~repro.hierarchy.decomposition.batched_axis_runs`, two run
        slots per level), and every inclusion–exclusion corner of every
        (level tuple, slot combination) is then fetched from the flat
        prefix-sum buffer with one gather per chunk of queries, so a batch
        costs a fixed handful of numpy passes instead of ``O(h^d 4^d)``
        small fancy-index calls or ``n`` Python-level run products.
        """
        self._require_fitted()
        queries = self._answer_rows(queries)
        if queries.shape[0] == 0:
            return np.zeros(0, dtype=np.float64)
        return self._answer_batch("answer_boxes", queries, self._gather_boxes)

    def _gather_boxes(self, queries: np.ndarray) -> np.ndarray:
        """Uncached body of :meth:`answer_boxes` for a validated,
        non-empty batch.

        Per query the answer is the sum, in level-tuple order and within
        it ``itertools.product`` slot-combination order, of one ``2^d``
        corner inclusion–exclusion per combination (``A - B - C + D`` for
        ``d = 2``, corners in ascending bit order), starting from ``0.0``.
        That fixed evaluation order is what keeps answers bit-identical
        across chunkings and coalesced batches, and what the goldens pin.
        """
        dims = self._dims
        n_tuples = len(self._tuples)
        corners = 1 << dims
        axis_runs = [
            batched_axis_runs(self._tree, queries[:, 2 * axis], queries[:, 2 * axis + 1])
            for axis in range(dims)
        ]
        # Index dims: (tuple, slot_1..slot_d, bit_d..bit_1, query).  Slots
        # enumerate like itertools.product (first axis slowest); corner
        # ``c`` takes axis ``a``'s run start when bit ``a`` of ``c`` is set
        # and its exclusive end otherwise, hence the reversed bound axis.
        layouts = []
        for axis in range(dims):
            layout = [n_tuples] + [1] * (2 * dims)
            layout[1 + axis] = 2
            layout[2 * dims - axis] = 2
            layouts.append(tuple(layout))
        offsets = self._prefix_offsets.reshape((n_tuples,) + (1,) * (2 * dims + 1))
        answers = np.empty(queries.shape[0], dtype=np.float64)
        chunk = max(1, _GATHER_ENTRIES // (n_tuples * corners * corners))
        for low in range(0, queries.shape[0], chunk):
            high = min(low + chunk, queries.shape[0])
            index = offsets
            for axis, runs in enumerate(axis_runs):
                bounds = runs[self._tuple_level_rows[:, axis], :, ::-1, low:high]
                bounds = bounds * self._prefix_strides[:, axis, None, None, None]
                index = index + bounds.reshape(layouts[axis] + (high - low,))
            values = self._prefix_flat[index].reshape(
                n_tuples * corners, corners, high - low
            )
            terms = values[:, 0]
            for corner in range(1, corners):
                if bin(corner).count("1") % 2:
                    terms = terms - values[:, corner]
                else:
                    terms = terms + values[:, corner]
            # add.accumulate is a strictly sequential sum over (tuple,
            # combo); adding it to 0.0 reproduces `answers = 0; answers +=
            # term` exactly, signed zeros included.
            answers[low:high] = 0.0 + np.add.accumulate(terms, axis=0)[-1]
        return answers

    def _flat_range_boxes(
        self, start: int, end: int, dims: int
    ) -> List[List[Tuple[int, int]]]:
        """Decompose a flat row-major range into axis-aligned boxes.

        The d-dimensional generalisation of "partial first row, full middle
        rows, partial last row": the leading coordinate splits the range
        into a partial first slab, a partial last slab and full middle
        slabs, with the partial slabs recursing into ``d - 1`` dimensions.
        At most ``2^d - 1`` boxes result.
        """
        if dims == 1:
            return [[(start, end)]]
        stride = self._side ** (dims - 1)
        first, first_rem = divmod(start, stride)
        last, last_rem = divmod(end, stride)
        if first == last:
            return [
                [(first, first)] + tail
                for tail in self._flat_range_boxes(first_rem, last_rem, dims - 1)
            ]
        boxes = [
            [(first, first)] + tail
            for tail in self._flat_range_boxes(first_rem, stride - 1, dims - 1)
        ]
        boxes += [
            [(last, last)] + tail
            for tail in self._flat_range_boxes(0, last_rem, dims - 1)
        ]
        if last > first + 1:
            boxes.append(
                [(first + 1, last - 1)] + [(0, self._side - 1)] * (dims - 1)
            )
        return boxes

    def _range_answers(self, queries: np.ndarray) -> np.ndarray:
        """Flattened row-major ranges: each is a union of axis-aligned boxes
        (:meth:`_flat_range_boxes`).  Every box of the batch is answered by
        one :meth:`_gather_boxes`, and each range sums its boxes in order,
        starting from ``0.0``."""
        per_range = [
            self._flat_range_boxes(start, end, self._dims)
            for start, end in queries.tolist()
        ]
        if not per_range:
            return np.zeros(0, dtype=np.float64)
        rows = [[bound for pair in box for bound in pair] for boxes in per_range for box in boxes]
        owners = [index for index, boxes in enumerate(per_range) for _ in boxes]
        positions = [position for boxes in per_range for position in range(len(boxes))]
        slots = np.zeros((len(per_range), max(positions) + 1), dtype=np.float64)
        slots[owners, positions] = self._gather_boxes(np.array(rows, dtype=np.int64))
        # The zero padding of ranges with fewer boxes adds exactly +0.0 to a
        # sum that starts at 0.0, so each range reproduces `answer = 0.0;
        # answer += box` over its own boxes.
        answers = np.zeros(len(per_range), dtype=np.float64)
        for column in slots.T:
            answers += column
        return answers

    def estimate_heatmap(self) -> np.ndarray:
        """Leaf-resolution estimate of the d-dimensional density
        (a ``D x ... x D`` grid): :meth:`estimate_frequencies`, the
        flattened row-major leaf estimates, in grid shape."""
        return self.estimate_frequencies().reshape((self._side,) * self._dims)

    def _answer_rows(self, queries: Any) -> np.ndarray:
        """Boxes: ``(n, 2d)`` rows of per-axis bounds inside the side."""
        return validate_queries(queries, 2 * self._dims, self._side)

    def _answer_weights(self, queries: np.ndarray) -> np.ndarray:
        """A box sums the cells of its per-axis run products, so a level
        tuple's weight is the product of the per-axis node counts at its
        levels."""
        weights = np.ones((len(self._tuples), queries.shape[0]))
        for axis in range(self._dims):
            counts = batched_node_counts(self._tree, queries[:, 2 * axis], queries[:, 2 * axis + 1])
            weights *= counts[self._tuple_level_rows[:, axis]]
        return weights.T


class HierarchicalGrid2D(HierarchicalGridND):
    """:class:`HierarchicalGridND` at ``d = 2``, kept for its persist identity.

    Protocol, answers, snapshot layout and random streams are the generic
    grid's (the generic machinery preserves the historical level-pair
    enumeration and noise order exactly); rectangles are asked through
    :meth:`~HierarchicalGridND.answer_box` /
    :meth:`~HierarchicalGridND.answer_boxes`.  The class exists because
    stored ``grid2d`` snapshots and checkpoints name it: its class name,
    its ``grid2d`` config kind and its merge signature without a ``dims``
    entry are what those files record.
    """

    def __init__(
        self,
        epsilon: float,
        domain_size: int,
        branching: int = 2,
        oracle: str = "oue",
        name: Optional[str] = None,
        **oracle_kwargs,
    ) -> None:
        super().__init__(
            epsilon,
            domain_size,
            dims=2,
            branching=branching,
            oracle=oracle,
            name=name,
            **oracle_kwargs,
        )

    config_kind = "grid2d"

    def config_dict(self) -> Dict[str, Any]:
        config = super().config_dict()
        del config["dims"]  # not a constructor keyword: d = 2 is the class
        return config

    def _merge_signature(self) -> tuple:
        # Kept verbatim from before the ND refactor (no dims component) so
        # pre-existing grid2d snapshots and checkpoints stay compatible.
        return RangeQueryMechanism._merge_signature(self) + (
            self._side,
            self._oracle_name,
            self.branching,
            tuple(sorted(self._oracle_kwargs.items())),
        )
