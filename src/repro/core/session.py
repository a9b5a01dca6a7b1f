"""High-level session API.

:class:`LdpRangeQuerySession` bundles the pieces a deployment needs — pick a
mechanism, collect a population once, then answer arbitrary analytic
questions (ranges, CDF, quantiles, histograms) — behind a single object, so
the examples and downstream users do not have to assemble the lower-level
components by hand.

:class:`Grid2DSession` is the two-dimensional counterpart: the same
collect / persist / async surface over a
:class:`~repro.core.multidim.HierarchicalGrid2D`, speaking ``(x, y)`` points
and rectangle queries instead of items and ranges.
"""

from __future__ import annotations

import math
from pathlib import Path
from typing import List, Optional, Sequence, Union

import numpy as np

from repro.core.base import RangeQueryMechanism
from repro.core.factory import mechanism_from_spec
from repro.core.quantiles import DECILES, estimate_cdf, estimate_quantiles
from repro.data.workloads import RangeWorkload
from repro.exceptions import ConfigurationError, NotFittedError
from repro.privacy.randomness import RandomState

__all__ = ["Grid2DSession", "LdpRangeQuerySession"]


def _unfitted_clone(mechanism: RangeQueryMechanism) -> RangeQueryMechanism:
    """Fresh unfitted mechanism configured like ``mechanism`` (lazy import
    keeps ``repro.core`` free of a hard dependency on the persist layer)."""
    from repro.persist.snapshots import clone_unfitted

    return clone_unfitted(mechanism)


class LdpRangeQuerySession:
    """Convenience wrapper around one mechanism and one collected population.

    Parameters
    ----------
    epsilon:
        Per-user privacy budget for the whole session (each user reports
        exactly once).
    domain_size:
        Number of items ``D`` of the discretised attribute.
    mechanism:
        Specification string (see :func:`repro.core.factory.mechanism_from_spec`)
        or an already-constructed mechanism instance.  Defaults to the
        paper's all-round recommendation ``HaarHRR`` for strong privacy and
        competitive accuracy everywhere.
    """

    def __init__(
        self,
        epsilon: float,
        domain_size: int,
        mechanism: "str | RangeQueryMechanism" = "haar",
        **mechanism_kwargs,
    ) -> None:
        if isinstance(mechanism, RangeQueryMechanism):
            # A pre-built instance must agree with the session parameters,
            # otherwise `session.epsilon` would silently misreport the
            # privacy budget the mechanism actually spends.
            if not math.isclose(mechanism.epsilon, float(epsilon), rel_tol=1e-9):
                raise ConfigurationError(
                    f"session epsilon {float(epsilon)!r} does not match the "
                    f"mechanism's epsilon {mechanism.epsilon!r}"
                )
            if mechanism.domain_size != int(domain_size):
                raise ConfigurationError(
                    f"session domain_size {int(domain_size)!r} does not match the "
                    f"mechanism's domain_size {mechanism.domain_size!r}"
                )
            self._mechanism = mechanism
        else:
            self._mechanism = mechanism_from_spec(
                mechanism, epsilon=epsilon, domain_size=domain_size, **mechanism_kwargs
            )
        self._epsilon = float(epsilon)
        self._domain_size = int(domain_size)
        #: Throughput report of the most recent :meth:`collect_async` sweep.
        self.last_ingestion_report = None

    # ------------------------------------------------------------------
    # Collection
    # ------------------------------------------------------------------
    def collect(
        self,
        items: np.ndarray,
        random_state: RandomState = None,
        mode: str = "aggregate",
    ) -> "LdpRangeQuerySession":
        """Collect one report from every user in ``items``."""
        self._mechanism.fit_items(items, random_state=random_state, mode=mode)
        return self

    def collect_counts(
        self,
        counts: np.ndarray,
        random_state: RandomState = None,
        mode: str = "aggregate",
    ) -> "LdpRangeQuerySession":
        """Collect a population described by exact per-item counts."""
        self._mechanism.fit_counts(counts, random_state=random_state, mode=mode)
        return self

    def collect_batch(
        self,
        items: np.ndarray,
        random_state: RandomState = None,
        mode: str = "aggregate",
    ) -> "LdpRangeQuerySession":
        """Collect one batch of users on top of everything collected so far.

        Incremental counterpart of :meth:`collect` (each user must still
        appear in exactly one batch); answers are queryable after every
        batch.  Batches only accumulate sufficient statistics — the
        estimates are rebuilt lazily on the next query (or an explicit
        :meth:`materialize`), so tight ingest loops pay pure accumulation
        cost.  See :meth:`RangeQueryMechanism.partial_fit`.
        """
        self._mechanism.partial_fit(items, random_state=random_state, mode=mode)
        return self

    def merge_from(
        self, other: "Union[LdpRangeQuerySession, RangeQueryMechanism]"
    ) -> "LdpRangeQuerySession":
        """Fold another session's (or mechanism's) collected state into this one.

        The source must wrap an identically configured, fitted mechanism —
        typically a shard of a distributed collection (see
        :class:`repro.streaming.ShardedCollector`).
        """
        source = other.mechanism if isinstance(other, LdpRangeQuerySession) else other
        self._mechanism.merge_from(source)
        return self

    def collect_async(
        self,
        batches: Sequence[np.ndarray],
        n_shards: int = 4,
        n_producers: int = 2,
        random_state: RandomState = None,
        mode: str = "aggregate",
        queue_size: int = 8,
    ) -> "LdpRangeQuerySession":
        """Collect ``batches`` through the async multi-producer ingestion tier.

        Spins up a :class:`repro.service.IngestionService` over ``n_shards``
        shards configured like this session's mechanism, fans the batches
        across ``n_producers`` concurrent producers (with per-shard
        backpressure), reduces the shards and folds the result into this
        session — on top of anything collected before, exactly like
        :meth:`collect_batch`.  Each user must still appear in exactly one
        batch overall.  The throughput report of the sweep is kept on
        :attr:`last_ingestion_report`.

        Must be called from synchronous code; inside a running event loop
        drive :class:`repro.service.IngestionService` directly.
        """
        from repro.service.ingestion import run_ingestion
        from repro.streaming.sharded import ShardedCollector

        collector = ShardedCollector(
            _unfitted_clone(self._mechanism),
            n_shards=n_shards,
            random_state=random_state,
            mode=mode,
        )
        self.last_ingestion_report = run_ingestion(
            collector, batches, n_producers=n_producers, queue_size=queue_size
        )
        self._mechanism.merge_from(collector.reduce())
        return self

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------
    def save(self, path: "Union[str, Path]") -> Path:
        """Snapshot the fitted mechanism to ``path`` (see :mod:`repro.persist`).

        The file is self-contained: :meth:`load` rebuilds the mechanism and
        the session around it, with bit-identical estimates.
        """
        from repro.persist import snapshots

        return snapshots.save(self._mechanism, path)

    def to_bytes(self) -> bytes:
        """The session's mechanism as one snapshot byte string."""
        from repro.persist import snapshots

        return snapshots.to_bytes(self._mechanism)

    @classmethod
    def load(cls, path: "Union[str, Path]") -> "LdpRangeQuerySession":
        """Rebuild a session from a :meth:`save` file."""
        from repro.persist import snapshots

        mechanism = snapshots.load(path)
        return cls._wrap(mechanism)

    @classmethod
    def from_bytes(cls, data: bytes) -> "LdpRangeQuerySession":
        """Rebuild a session from :meth:`to_bytes` output."""
        from repro.persist import snapshots

        mechanism = snapshots.from_bytes(data)
        return cls._wrap(mechanism)

    @classmethod
    def _wrap(cls, mechanism) -> "LdpRangeQuerySession":
        if not isinstance(mechanism, RangeQueryMechanism):
            raise ConfigurationError(
                "snapshot does not hold a mechanism; sessions load mechanism "
                f"snapshots only, got {type(mechanism).__name__}"
            )
        return cls(
            epsilon=mechanism.epsilon,
            domain_size=mechanism.domain_size,
            mechanism=mechanism,
        )

    # ------------------------------------------------------------------
    # Analysis
    # ------------------------------------------------------------------
    @property
    def mechanism(self) -> RangeQueryMechanism:
        """The underlying mechanism (exposes the full low-level API)."""
        return self._mechanism

    @property
    def epsilon(self) -> float:
        return self._epsilon

    @property
    def domain_size(self) -> int:
        return self._domain_size

    @property
    def n_users(self) -> Optional[int]:
        return self._mechanism.n_users

    @property
    def is_materialized(self) -> bool:
        """Whether the mechanism's estimates reflect everything collected."""
        return self._mechanism.is_materialized

    def materialize(self) -> "LdpRangeQuerySession":
        """Rebuild the queryable estimates now instead of on the next query.

        Collection (``collect_batch``, ``merge_from``, ``collect_async``)
        only accumulates sufficient statistics; the first query after a
        mutation pays one reconstruction.  Call this to move that cost off a
        latency-critical read path — it is idempotent and answers are
        bit-identical either way.
        """
        self._mechanism.materialize()
        return self

    def set_answer_cache_size(self, maxsize: int) -> "LdpRangeQuerySession":
        """Bound the mechanism's generation-keyed answer cache (``0``
        disables it); see
        :meth:`repro.core.base.RangeQueryMechanism.set_answer_cache_size`."""
        self._mechanism.set_answer_cache_size(maxsize)
        return self

    def answer_cache_stats(self) -> dict:
        """Hit/miss/eviction counters of the mechanism's answer cache."""
        return self._mechanism.answer_cache_stats()

    def range_query(self, start: int, end: int) -> float:
        """Estimated fraction of the population inside ``[start, end]``."""
        return self._mechanism.answer_range(start, end)

    def range_queries(self, queries: np.ndarray) -> np.ndarray:
        """Vectorised range queries over an ``(n, 2)`` array."""
        return self._mechanism.answer_ranges(queries)

    def workload(self, workload: RangeWorkload) -> np.ndarray:
        """Answer a full workload object."""
        return self._mechanism.answer_workload(workload)

    def histogram(self) -> np.ndarray:
        """Estimated per-item fractions."""
        return self._mechanism.estimate_frequencies()

    def cdf(self) -> np.ndarray:
        """Monotone estimate of the cumulative distribution."""
        return estimate_cdf(self._mechanism)

    def quantiles(self, targets: Sequence[float] = DECILES) -> List[int]:
        """Estimated quantile items for the given targets (deciles default)."""
        return estimate_quantiles(self._mechanism, targets)

    def median(self) -> int:
        """Estimated median item."""
        return self.quantiles((0.5,))[0]

    def summary(self) -> dict:
        """Small status dictionary used by the examples' printouts."""
        if not self._mechanism.is_fitted:
            raise NotFittedError("collect a population before asking for a summary")
        return {
            "mechanism": self._mechanism.name,
            "epsilon": self._epsilon,
            "domain_size": self._domain_size,
            "n_users": self._mechanism.n_users,
        }


class GridNDSession(LdpRangeQuerySession):
    """Session over a ``d``-dimensional grid population (Section 6).

    Wraps a :class:`~repro.core.multidim.HierarchicalGridND` with the same
    lifecycle as :class:`LdpRangeQuerySession` — one-shot, batched or async
    collection, snapshots, shard merging — but the collection surface takes
    ``(n, d)`` integer point arrays and the query surface answers axis-
    aligned boxes.  ``domain_size`` is the grid *side length* ``D``; pass
    ``dims=`` (with a spec-string mechanism) to choose the dimensionality.

    The inherited item/range API remains available and operates on the
    flattened row-major domain ``[0, D^d)`` (a point ``(x_1, ..., x_d)`` is
    the item ``x_1 D^{d-1} + ... + x_d``), which is the representation the
    sharded and async pipelines transport.
    """

    def __init__(
        self,
        epsilon: float,
        domain_size: int,
        mechanism: "str | RangeQueryMechanism" = "gridnd",
        **mechanism_kwargs,
    ) -> None:
        super().__init__(epsilon, domain_size, mechanism=mechanism, **mechanism_kwargs)
        from repro.core.multidim import HierarchicalGridND

        if not isinstance(self._mechanism, HierarchicalGridND):
            raise ConfigurationError(
                f"{type(self).__name__} requires a HierarchicalGridND mechanism, "
                f"got {type(self._mechanism).__name__}"
            )

    @property
    def dims(self) -> int:
        """Number of grid axes ``d``."""
        return self._mechanism.dims

    # ------------------------------------------------------------------
    # Point collection
    # ------------------------------------------------------------------
    def collect_points(
        self,
        points: np.ndarray,
        random_state: RandomState = None,
        mode: str = "aggregate",
    ) -> "GridNDSession":
        """Collect one report from every user's d-dimensional point
        (one-shot)."""
        self._mechanism.fit_points(points, random_state=random_state, mode=mode)
        return self

    def collect_points_batch(
        self,
        points: np.ndarray,
        random_state: RandomState = None,
        mode: str = "aggregate",
    ) -> "GridNDSession":
        """Collect one batch of points on top of everything collected so far."""
        self._mechanism.partial_fit_points(points, random_state=random_state, mode=mode)
        return self

    def collect_points_async(
        self,
        point_batches: Sequence[np.ndarray],
        **kwargs,
    ) -> "GridNDSession":
        """Collect d-dimensional point batches through the async ingestion
        tier.

        Each batch is validated and flattened to row-major items, then fed
        through :meth:`LdpRangeQuerySession.collect_async` (same sharding,
        backpressure and accuracy contract).
        """
        flattened = [self._mechanism.flatten_points(batch) for batch in point_batches]
        self.collect_async(flattened, **kwargs)
        return self

    # ------------------------------------------------------------------
    # Box analysis
    # ------------------------------------------------------------------
    def box_query(self, ranges: "Sequence[tuple[int, int]]") -> float:
        """Estimated fraction of users inside an axis-aligned box (one
        inclusive ``(start, end)`` pair per axis)."""
        return self._mechanism.answer_box(ranges)

    def box_queries(self, queries: np.ndarray) -> np.ndarray:
        """Vectorised box queries over ``(n, 2d)`` rows of per-axis
        ``(start, end)`` pairs."""
        return self._mechanism.answer_boxes(queries)

    def heatmap(self) -> np.ndarray:
        """Leaf-resolution ``D x ... x D`` density estimate."""
        return self._mechanism.estimate_heatmap()


class Grid2DSession(GridNDSession):
    """Session over a two-dimensional grid population — the rectangle-
    flavoured ``d = 2`` specialization of :class:`GridNDSession`.

    Wraps a :class:`~repro.core.multidim.HierarchicalGrid2D`; the inherited
    item/range API operates on the flattened row-major domain ``[0, D^2)``
    (a point ``(x, y)`` is the item ``x * D + y``).
    """

    def __init__(
        self,
        epsilon: float,
        domain_size: int,
        mechanism: "str | RangeQueryMechanism" = "grid2d",
        **mechanism_kwargs,
    ) -> None:
        LdpRangeQuerySession.__init__(
            self, epsilon, domain_size, mechanism=mechanism, **mechanism_kwargs
        )
        from repro.core.multidim import HierarchicalGrid2D

        if not isinstance(self._mechanism, HierarchicalGrid2D):
            raise ConfigurationError(
                "Grid2DSession requires a HierarchicalGrid2D mechanism, got "
                f"{type(self._mechanism).__name__}"
            )

    # ------------------------------------------------------------------
    # Rectangle analysis
    # ------------------------------------------------------------------
    def rectangle_query(
        self, x_range: "tuple[int, int]", y_range: "tuple[int, int]"
    ) -> float:
        """Estimated fraction of users inside an axis-aligned rectangle."""
        return self._mechanism.answer_rectangle(x_range, y_range)

    def rectangle_queries(self, queries: np.ndarray) -> np.ndarray:
        """Vectorised rectangle queries over ``(n, 4)`` rows
        ``(x_start, x_end, y_start, y_end)``."""
        return self._mechanism.answer_rectangles(queries)
