"""Abstract interface shared by every range-query mechanism.

A mechanism's lifecycle has two phases:

1. **Collection** — the private inputs of ``N`` users are turned into noisy
   aggregate state.  Two one-shot entry points exist: :meth:`fit_items` (an
   array of individual user items, supporting both ``per_user`` and
   ``aggregate`` simulation) and :meth:`fit_counts` (exact per-item counts,
   ``aggregate`` simulation only).  Mechanisms backed by mergeable oracle
   accumulators additionally support *incremental* collection
   (:meth:`partial_fit`, callable any number of times) and *shard
   combination* (:meth:`merge_from`, folding another instance's accumulated
   state into this one) — the substrate of
   :class:`repro.streaming.ShardedCollector`.
2. **Query answering** — once fitted, :meth:`answer_ranges`,
   :meth:`answer_range`, :meth:`answer_prefix`,
   :meth:`estimate_frequencies`, :meth:`estimate_cdf` and :meth:`quantile`
   are available.  All answers are *fractions of the population*, matching
   the problem definition in Section 4.1 of the paper.  There is one read
   path: a scalar surface is a one-row call of its batched surface, so one
   query gets one float (and one cache entry) whatever the surface.

The two phases are decoupled by **lazy estimate materialization**: the
collection entry points only accumulate sufficient statistics and bump a
dirty generation counter; the post-processed estimates (consistency least
squares, inverse transforms, prefix sums) are rebuilt at most once per
generation, on the first read after a mutation (every query surface calls
:meth:`_require_fitted`, which calls :meth:`materialize`).  A streaming run
of ``k`` small batches therefore pays the reconstruction cost once instead
of ``k`` times, and the answers are bit-identical to refreshing after every
batch because the estimates are a deterministic function of the accumulated
statistics (no randomness is consumed by a refresh).

Subclasses implement :meth:`_collect` (store aggregate state) and
:meth:`_range_answers` (answer a validated ``(n, 2)`` ``int64`` batch of
ranges, every row independently); the base class provides the one
validation gate (:func:`validate_queries`), the answer
cache, the scalar surfaces, workload evaluation and the quantile search.
Accumulator-backed subclasses additionally implement
:meth:`_refresh_estimates` and call :meth:`_mark_dirty` from every path
that mutates their sufficient statistics without refreshing.

:class:`LevelSampledMechanism` is the skeleton of the hierarchical
histograms, the Haar wavelet and the N-d grids, whose users each sample one
*label* (a tree level, or a tuple of per-axis levels) and report through
that label's oracle.  It owns the label-keyed accumulators, the per-label
user counts, collection, merging and snapshots.  A subclass calls
``_init_labels`` with one oracle per label, in label order; implements
``_accumulate_per_user`` (draw each user's label, fold the groups of
``_group_by_label``) and ``_accumulate_aggregate`` (fold each label's share
of the counts as split by ``_thinned``); and implements
:meth:`_refresh_estimates` and the read paths.  A subclass whose users
report several labels (HH budget splitting) also overrides ``_accumulate``
and ``_label_counts_fit``.
"""

from __future__ import annotations

import abc
from typing import (
    Any,
    Callable,
    Hashable,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

import numpy as np

from repro.core.cache import MISS, AnswerCache
from repro.data.workloads import RangeWorkload
from repro.exceptions import (
    ConfigurationError,
    InvalidDomainError,
    InvalidQueryError,
    NotFittedError,
)
from repro.frequency_oracles.accumulators import checked_state_count
from repro.privacy.budget import PrivacyBudget
from repro.privacy.randomness import RandomState, as_generator

__all__ = [
    "LevelSampledMechanism",
    "RangeQueryMechanism",
    "SIMULATION_MODES",
    "integer_queries",
    "normalize_level_probabilities",
    "validate_queries",
]

#: Supported simulation modes for the collection phase.
SIMULATION_MODES = ("per_user", "aggregate")


def normalize_level_probabilities(
    probabilities: Optional[Sequence[float]], n_levels: int
) -> np.ndarray:
    """Validate a level-sampling distribution and scale it to sum to one.

    ``None`` gives the uniform distribution, the variance-optimal choice of
    Lemma 4.4.  Anything else must be ``n_levels`` finite, non-negative
    numbers with a positive sum.
    """
    if probabilities is None:
        return np.full(n_levels, 1.0 / n_levels)
    array = np.asarray(probabilities, dtype=np.float64)
    if array.shape != (n_levels,):
        raise ConfigurationError(
            f"level_probabilities must have {n_levels} entries, got shape {array.shape}"
        )
    if not np.all(np.isfinite(array)) or np.any(array < 0) or array.sum() <= 0:
        raise ConfigurationError(
            "level_probabilities must be finite, non-negative and sum > 0"
        )
    return array / array.sum()


def integer_queries(queries: Any) -> np.ndarray:
    """A query batch as an array, refusing every bound that is not an integer.

    The dtype policy of every read surface, and of the HTTP decoders, which
    apply it to query bounds before refreshing their view and to submitted
    ``items`` and ``points`` before any batch is queued.  Float, bool and
    string values raise :class:`~repro.exceptions.InvalidQueryError`
    instead of being cast: an ``int64`` cast would answer ``[0.5, 10.9]``
    as ``[0, 10]`` and ``true`` as ``1`` without any error.  Python bools
    mixed into integer lists hide in an ``int64`` array, so the entries of
    a 1-D or 2-D list that read 0 or 1 (the only values a bool becomes) are
    checked too.  Empty batches pass whatever their dtype.
    """
    try:
        array = np.asarray(queries)
    except (TypeError, ValueError) as error:
        raise InvalidQueryError(
            f"queries must be a rectangular array of integer bounds: {error}"
        ) from None
    if not array.size:
        return array
    dtype = array.dtype
    if dtype.kind in "iu" and array.ndim in (1, 2) and not isinstance(queries, np.ndarray):
        width = array.shape[-1]
        for index in np.flatnonzero((array == 0) | (array == 1)).tolist():
            entry = (
                queries[index]
                if array.ndim == 1
                else queries[index // width][index % width]
            )
            if type(entry) in _BOOL_TYPES:
                dtype = np.dtype(np.bool_)
                break
    if dtype.kind not in "iu":
        raise InvalidQueryError(
            f"query bounds must be integers, got {dtype}; "
            "round or cast explicitly before querying"
        )
    return array


_BOOL_TYPES = frozenset({bool, np.bool_})


def validate_queries(queries: Any, width: int, size: int) -> np.ndarray:
    """The one validation gate of the batched read surfaces.

    ``queries`` must pass :func:`integer_queries` and have shape ``(n,
    width)``; each consecutive column pair is an inclusive ``[start, end]``
    range that must lie inside ``[0, size)``.  The first bad pair, in
    row-major order, is reported.  Returns the queries as ``int64``.
    """
    queries = integer_queries(queries)
    if queries.ndim != 2 or queries.shape[1] != width:
        raise InvalidQueryError(
            f"queries must be an (n, {width}) array of (start, end) pairs"
        )
    queries = queries.astype(np.int64, copy=False)
    pairs = queries.reshape(-1, 2)
    bad = (pairs[:, 0] < 0) | (pairs[:, 0] > pairs[:, 1]) | (pairs[:, 1] >= size)
    if bad.any():
        start, end = pairs[int(np.argmax(bad))].tolist()
        raise InvalidQueryError(
            f"invalid range [{start}, {end}] for domain of size {size}"
        )
    return queries


class RangeQueryMechanism(abc.ABC):
    """Base class of all LDP range-query mechanisms.

    Parameters
    ----------
    epsilon:
        Privacy budget each user's report must satisfy.
    domain_size:
        Number of items ``D`` of the (one-dimensional, discrete) domain.
    name:
        Optional human-readable identifier used in experiment reports.
    """

    def __init__(self, epsilon: float, domain_size: int, name: Optional[str] = None) -> None:
        self._budget = PrivacyBudget(epsilon)
        if not isinstance(domain_size, (int, np.integer)) or domain_size < 1:
            raise InvalidDomainError(
                f"domain size must be a positive integer, got {domain_size!r}"
            )
        self._domain_size = int(domain_size)
        self._n_users: Optional[int] = None
        self._name = name
        # Lazy materialization bookkeeping: every mutation of the sufficient
        # statistics bumps the ingest generation; the estimates are rebuilt
        # (at most once per generation) when a read surface needs them.
        self._ingest_generation = 0
        self._materialized_generation = 0
        self._n_materializations = 0
        # Answer cache, keyed by (ingest_generation, canonical query key):
        # read surfaces consult it after _require_fitted() settles the
        # generation; write paths never touch it — a statistics mutation
        # invalidates every entry for free by bumping the generation.
        self._answer_cache = AnswerCache()

    # ------------------------------------------------------------------
    # Configuration
    # ------------------------------------------------------------------
    @property
    def epsilon(self) -> float:
        """Per-report privacy budget."""
        return self._budget.epsilon

    @property
    def domain_size(self) -> int:
        """Number of items ``D``."""
        return self._domain_size

    @property
    def name(self) -> str:
        """Identifier used in reports (defaults to the class name)."""
        return self._name or type(self).__name__

    @property
    def n_users(self) -> Optional[int]:
        """Population size seen during collection (``None`` before fitting)."""
        return self._n_users

    @property
    def is_fitted(self) -> bool:
        """Whether the collection phase has run."""
        return self._n_users is not None

    # ------------------------------------------------------------------
    # Lazy materialization
    # ------------------------------------------------------------------
    @property
    def is_materialized(self) -> bool:
        """Whether the queryable estimates reflect the current statistics.

        ``True`` for a freshly constructed mechanism (there is nothing to
        materialize) and after every read; ``False`` between a statistics
        mutation (``partial_fit``, ``merge_from``, ``fit_*``,
        ``load_state_dict``) and the next read or :meth:`materialize` call.
        """
        return self._materialized_generation == self._ingest_generation

    @property
    def ingest_generation(self) -> int:
        """Number of statistics mutations absorbed so far (monotone)."""
        return self._ingest_generation

    @property
    def materialization_count(self) -> int:
        """Number of estimate rebuilds actually performed so far.

        Under lazy materialization this stays far below
        :attr:`ingest_generation` on streaming workloads; the difference is
        the number of reconstructions the laziness saved (the ``deferred``
        counter exported by :meth:`repro.service.IngestionService.stats`).
        """
        return self._n_materializations

    def materialize(self) -> "RangeQueryMechanism":
        """Rebuild the queryable estimates if they are stale.

        Idempotent and cheap when already materialized (one integer
        comparison).  Called automatically by every read surface via
        :meth:`_require_fitted`; exposed publicly so callers can move the
        reconstruction cost off a latency-critical read path (e.g. after a
        shard reduce, before serving queries).
        """
        if self.is_fitted and not self.is_materialized:
            self._refresh_estimates()
            self._materialized_generation = self._ingest_generation
            self._n_materializations += 1
        return self

    def _mark_dirty(self) -> None:
        """Record a statistics mutation: estimates are stale until the next
        :meth:`materialize`.  Accumulator-backed subclasses call this from
        ``_collect`` and ``load_state_dict``; the base class calls it for
        ``partial_fit`` and ``merge_from`` (which only ever succeed on
        mechanisms with accumulator support)."""
        self._ingest_generation += 1

    def _mark_clean(self) -> None:
        """Reset the dirty tracking (state was cleared, nothing to rebuild)."""
        self._materialized_generation = self._ingest_generation

    # ------------------------------------------------------------------
    # Answer cache
    # ------------------------------------------------------------------
    def set_answer_cache_size(self, maxsize: int) -> "RangeQueryMechanism":
        """Bound the generation-keyed answer cache (``0`` disables it).

        The cache memoizes range/box/quantile answers under a
        ``(ingest_generation, query)`` key, so repeated queries between
        writes skip the run-decomposition + gather entirely; any write
        invalidates every entry by bumping the generation.  Cached answers
        are bit-identical to recomputed ones (the estimates are a pure
        function of the statistics at a fixed generation).
        """
        self._answer_cache.resize(maxsize)
        return self

    def answer_cache_stats(self) -> dict:
        """Hit/miss/eviction counters and size/bound of the answer cache."""
        return self._answer_cache.stats()

    def _cached(self, key: Hashable, compute: Callable[[], Any]) -> Any:
        """The one answer-cache hook of every read surface.

        Returns the answer cached under ``key`` at the current ingest
        generation, or computes it with ``compute()`` and stores it.
        Callers run :meth:`_require_fitted` first, which settles the
        generation.
        """
        generation = self._ingest_generation
        value = self._answer_cache.get(generation, key)
        if value is MISS:
            value = compute()
            self._answer_cache.put(generation, key, value)
        return value

    @staticmethod
    def _batch_key(surface: str, queries: np.ndarray) -> tuple:
        """Canonical cache key of one batch of a batched surface: the
        surface name, the row count and the ``int64`` query bytes."""
        return (surface, queries.shape[0], queries.tobytes())

    def _answer_batch(
        self,
        surface: str,
        queries: np.ndarray,
        compute: Callable[[np.ndarray], np.ndarray],
    ) -> np.ndarray:
        """Template of the batched surfaces (``answer_ranges``,
        ``answer_boxes``): the cached answer of this exact batch, or
        ``compute(queries)`` stored under the batch's canonical key."""
        return self._cached(self._batch_key(surface, queries), lambda: compute(queries))

    def answer_requests(
        self, surface: str, requests: Sequence[np.ndarray]
    ) -> List[np.ndarray]:
        """Answer several requests of one batched surface with at most one
        batched call, caching per request.

        ``surface`` names a batched surface (``"answer_ranges"`` or
        ``"answer_boxes"``) and each request is an ``int64`` query array
        for it.  Every request is looked up under its own canonical key;
        only the misses are stacked into a single ``surface`` call, and
        each miss's slice of the stacked answers is stored under its own
        key.  The stacked batch itself is neither looked up nor stored —
        it will not be asked again.  Because the batched surfaces answer
        every row independently, the result is bit-identical to calling
        ``surface`` once per request.  Used by
        :class:`repro.service.QueryCoalescer`.
        """
        self._require_fitted()
        generation = self._ingest_generation
        keys = [self._batch_key(surface, queries) for queries in requests]
        answers = [self._answer_cache.get(generation, key) for key in keys]
        missing = [index for index, answer in enumerate(answers) if answer is MISS]
        if not missing:
            return answers
        cache, self._answer_cache = self._answer_cache, AnswerCache(maxsize=0)
        try:
            stacked = getattr(self, surface)(
                np.concatenate([requests[index] for index in missing])
            )
        finally:
            self._answer_cache = cache
        offset = 0
        for index in missing:
            count = int(requests[index].shape[0])
            answers[index] = stacked[offset : offset + count]
            cache.put(generation, keys[index], answers[index])
            offset += count
        return answers

    # ------------------------------------------------------------------
    # Collection phase
    # ------------------------------------------------------------------
    def fit_items(
        self,
        items: np.ndarray,
        random_state: RandomState = None,
        mode: str = "aggregate",
    ) -> "RangeQueryMechanism":
        """Collect the population given each user's private item.

        Parameters
        ----------
        items:
            Integer array with one entry per user, each in ``[0, D)``.
        random_state:
            Seed or generator driving both the protocol randomness and any
            simulation sampling.
        mode:
            ``"per_user"`` runs the actual local protocol for every user;
            ``"aggregate"`` samples the aggregator's view directly (much
            faster, statistically equivalent — see the oracle docstrings).
        """
        items = self._validate_items(items)
        self._check_mode(mode)
        rng = as_generator(random_state)
        self._collect(
            items=items, counts=self._counts_for(items, mode), rng=rng, mode=mode
        )
        self._n_users = int(items.shape[0])
        return self

    def partial_fit(
        self,
        items: np.ndarray,
        random_state: RandomState = None,
        mode: str = "aggregate",
    ) -> "RangeQueryMechanism":
        """Collect one additional batch of users, keeping earlier batches.

        Each call accumulates the batch's sufficient statistics on top of
        whatever has been collected so far (by previous :meth:`partial_fit`
        calls, a one-shot :meth:`fit_items` / :meth:`fit_counts`, or
        :meth:`merge_from`) and marks the estimates dirty; the post-processed
        estimates are rebuilt lazily on the next read (see
        :meth:`materialize`), so a stream of small batches pays pure
        accumulation cost per batch.  The final state follows the same
        distribution as a one-shot fit of the concatenated population.
        Every user must still appear in exactly one batch for the privacy
        accounting to hold.

        Pass a shared :class:`numpy.random.Generator` (or distinct seeds)
        across batches: repeating the same integer seed replays the same
        randomness for every batch, so the noise adds coherently instead of
        cancelling.

        Raises :class:`~repro.exceptions.ConfigurationError` for mechanisms
        without accumulator support.
        """
        items = self._validate_items(items)
        self._check_mode(mode)
        rng = as_generator(random_state)
        self._partial_collect(
            items=items, counts=self._counts_for(items, mode), rng=rng, mode=mode
        )
        self._mark_dirty()
        self._n_users = (self._n_users or 0) + int(items.shape[0])
        return self

    def _counts_for(self, items: np.ndarray, mode: str) -> Optional[np.ndarray]:
        """Per-item counts of a batch, or ``None`` when the mode ignores them.

        Only the ``aggregate`` simulation consumes per-item counts; the
        ``per_user`` protocol paths work from the item array directly, so
        skipping the ``O(D)`` bincount keeps tiny streaming batches at
        ``O(batch)`` validation cost.
        """
        if mode != "aggregate":
            return None
        return np.bincount(items, minlength=self._domain_size)

    def merge_from(self, other: "RangeQueryMechanism") -> "RangeQueryMechanism":
        """Fold another (identically configured) instance's state into this one.

        The other mechanism must be fitted; this one may be fresh or already
        hold accumulated state.  After the merge, this mechanism answers
        queries as if it had collected both populations itself — the shard
        reduction step of distributed collection.

        Only the sufficient statistics are touched: the queryable estimates
        are rebuilt lazily on the next read, so folding ``K`` shards costs
        ``K`` statistic merges plus one reconstruction, no matter how the
        merges interleave with other ingestion.  (Earlier versions exposed a
        ``refresh=`` flag for exactly this batching — and with it a
        stale-answer footgun when a caller forgot the final refreshing
        merge; lazy materialization made the flag redundant and it has been
        removed.)

        Raises :class:`~repro.exceptions.ConfigurationError` when the
        configurations differ or the mechanism has no accumulator support,
        and :class:`~repro.exceptions.NotFittedError` when ``other`` has not
        collected anything.
        """
        if type(other) is not type(self):
            raise ConfigurationError(
                f"cannot merge a {type(other).__name__} into a {type(self).__name__}"
            )
        if self._merge_signature() != other._merge_signature():
            raise ConfigurationError(
                "cannot merge differently configured mechanisms: "
                f"{self._merge_signature()} != {other._merge_signature()}"
            )
        if not other.is_fitted:
            raise NotFittedError("merge_from requires a fitted source mechanism")
        self._merge_state(other)
        self._mark_dirty()
        self._n_users = (self._n_users or 0) + int(other._n_users)
        return self

    def fit_counts(
        self,
        counts: np.ndarray,
        random_state: RandomState = None,
        mode: str = "aggregate",
    ) -> "RangeQueryMechanism":
        """Collect the population given exact per-item counts.

        ``mode="per_user"`` is also accepted: the counts are expanded into an
        explicit item vector first (costs ``O(N)`` memory).
        """
        counts = np.asarray(counts, dtype=np.int64)
        if counts.ndim != 1 or counts.shape[0] != self._domain_size:
            raise InvalidDomainError(
                f"expected {self._domain_size} per-item counts, got shape {counts.shape}"
            )
        if np.any(counts < 0):
            raise InvalidQueryError("per-item counts must be non-negative")
        self._check_mode(mode)
        rng = as_generator(random_state)
        items = None
        if mode == "per_user":
            items = np.repeat(np.arange(self._domain_size, dtype=np.int64), counts)
        self._collect(items=items, counts=counts, rng=rng, mode=mode)
        self._n_users = int(counts.sum())
        return self

    @abc.abstractmethod
    def _collect(
        self,
        items: Optional[np.ndarray],
        counts: Optional[np.ndarray],
        rng: np.random.Generator,
        mode: str,
    ) -> None:
        """Store the mechanism's aggregate state for the given population.

        ``items`` is guaranteed to be present when ``mode == "per_user"``;
        ``counts`` is guaranteed to be present when ``mode == "aggregate"``
        (and always from :meth:`fit_counts`) — the per-user protocol paths
        never consume counts, so the item-fit entry points skip building
        them.  One-shot semantics: any previously accumulated state is
        discarded.  Accumulator-backed implementations only touch
        sufficient statistics and call :meth:`_mark_dirty`; implementations
        that build their estimates eagerly (no :meth:`_refresh_estimates`)
        simply never mark dirty.
        """

    def _partial_collect(
        self,
        items: np.ndarray,
        counts: Optional[np.ndarray],
        rng: np.random.Generator,
        mode: str,
    ) -> None:
        """Accumulate one batch on top of the existing state (streaming hook).

        Mechanisms backed by oracle accumulators override this; the default
        refuses so that one-shot-only mechanisms keep a precise error.
        """
        raise ConfigurationError(
            f"{self.name} does not support incremental collection"
        )

    def _merge_state(self, other: "RangeQueryMechanism") -> None:
        """Fold ``other``'s accumulated statistics into this mechanism's.

        Called by :meth:`merge_from` after the configuration check; ``self``
        may be unfitted (treat as empty).  Must only update the sufficient
        statistics — :meth:`merge_from` marks the estimates dirty and
        :meth:`materialize` rebuilds them on the next read.  Default refuses.
        """
        raise ConfigurationError(f"{self.name} does not support state merging")

    def _refresh_estimates(self) -> None:
        """Rebuild the queryable estimates from the accumulated statistics.

        Implemented by every mechanism that implements :meth:`_merge_state`.
        Must be a pure function of the sufficient statistics (no randomness,
        no statistic mutation) — that determinism is what makes lazy and
        eager materialization bit-identical.  Only ever called through
        :meth:`materialize`, which handles the generation bookkeeping.
        """
        raise ConfigurationError(f"{self.name} does not support state merging")

    def _merge_signature(self) -> tuple:
        """Configuration fingerprint deciding :meth:`merge_from` compatibility.

        Subclasses extend the tuple with every parameter that changes the
        interpretation of their sufficient statistics (oracle configuration,
        tree geometry, ...).
        """
        return (type(self).__name__, float(self.epsilon), int(self._domain_size))

    # ------------------------------------------------------------------
    # Persistence (see repro.persist)
    # ------------------------------------------------------------------
    def state_dict(self) -> dict:
        """Nested ``{str: array-or-dict}`` snapshot of the collected state.

        ``n_users`` is encoded as ``-1`` when the mechanism is unfitted so
        that empty shards can be checkpointed too.  Implemented by every
        accumulator-backed mechanism; the default refuses.
        """
        raise ConfigurationError(f"{self.name} does not support state snapshots")

    def load_state_dict(self, state: dict) -> "RangeQueryMechanism":
        """Replace the collected state with a :meth:`state_dict`.

        The mechanism must be configured identically to the one that
        produced the state (``load`` callers verify the merge signature
        first; shape checks here catch the rest).  Only the sufficient
        statistics are restored — the queryable estimates are rebuilt
        lazily on the first read and equal the snapshotted mechanism's
        bit-for-bit (a snapshot taken dirty and one taken materialized hold
        the same statistics, so round-trips are bit-exact either way).
        """
        raise ConfigurationError(f"{self.name} does not support state snapshots")

    def _pack_n_users(self) -> np.ndarray:
        return np.asarray(-1 if self._n_users is None else int(self._n_users), dtype=np.int64)

    def _unpack_n_users(self, state: dict) -> Optional[int]:
        if not isinstance(state, Mapping):
            raise ConfigurationError("mechanism state must be a mapping of arrays")
        if "n_users" not in state:
            raise ConfigurationError("mechanism state is missing 'n_users'")
        n_users = checked_state_count(state["n_users"], "snapshotted n_users", lower=-1)
        return None if n_users == -1 else n_users

    # ------------------------------------------------------------------
    # Query answering
    # ------------------------------------------------------------------
    def answer_range(self, start: int, end: int) -> float:
        """Estimated fraction of users whose item lies in ``[start, end]``:
        row 0 of :meth:`answer_ranges` on the one-row batch, sharing its
        cache entry."""
        return float(self.answer_ranges([[start, end]])[0])

    def answer_ranges(self, queries: np.ndarray) -> np.ndarray:
        """Answer an ``(n, 2)`` array of inclusive ``[start, end]`` ranges."""
        return self._answer_batch(
            "answer_ranges", self._range_batch(queries), self._range_answers
        )

    def _range_batch(self, queries: np.ndarray) -> np.ndarray:
        """Read gate of ``answer_ranges``: fitted check, then
        :func:`validate_queries` over the item domain."""
        self._require_fitted()
        return validate_queries(queries, 2, self._domain_size)

    @staticmethod
    def _prefix_ranges(queries: np.ndarray, prefix: np.ndarray) -> np.ndarray:
        """Range answers as differences of one prefix-sum array (O(1) per
        query)."""
        return prefix[queries[:, 1] + 1] - prefix[queries[:, 0]]

    def answer_workload(self, workload: RangeWorkload) -> np.ndarray:
        """Answer every query of a :class:`~repro.data.workloads.RangeWorkload`."""
        if workload.domain_size != self._domain_size:
            raise InvalidQueryError(
                "workload domain does not match the mechanism domain"
            )
        return self.answer_ranges(workload.queries)

    def answer_prefix(self, end: int) -> float:
        """Estimated fraction of users with item ``<= end`` (prefix query)."""
        return self.answer_range(0, end)

    def estimate_frequencies(self) -> np.ndarray:
        """Estimated per-item fractions (point queries for every item).

        The default implementation answers one point range per item;
        subclasses override it with their natural reconstruction.
        """
        self._require_fitted()
        return self._range_answers(
            np.repeat(np.arange(self._domain_size, dtype=np.int64), 2).reshape(-1, 2)
        )

    def estimate_cdf(self) -> np.ndarray:
        """Estimated cumulative distribution ``F(b) = R[0, b]`` for every b."""
        self._require_fitted()
        frequencies = self.estimate_frequencies()
        return np.cumsum(frequencies)

    def quantile(self, phi: float) -> int:
        """Estimate the ``phi``-quantile from the monotone CDF (Section 4.7).

        The returned item ``j`` is the smallest item whose estimated
        cumulative mass reaches ``phi``.  The raw noisy prefix estimates can
        be locally decreasing, which would make a naive binary search
        disagree with the batched CDF path for the same target; both paths
        therefore share the monotone-CDF reconstruction of
        :func:`repro.core.quantiles.estimate_quantiles` and always agree.
        """
        return self.quantiles((phi,))[0]

    def quantiles(self, phis: Sequence[float]) -> List[int]:
        """Estimate several quantiles (e.g. the deciles of Section 5.5).

        All quantiles are answered from a single monotone CDF
        reconstruction, so a batch costs no more than one quantile.
        """
        from repro.core.quantiles import estimate_quantiles

        self._require_fitted()
        try:
            key = ("quantiles", tuple(float(phi) for phi in phis))
        except (TypeError, ValueError):
            # Unkeyable targets bypass the cache; estimate_quantiles owns
            # the precise validation error.
            return estimate_quantiles(self, phis)
        return list(self._cached(key, lambda: tuple(estimate_quantiles(self, phis))))

    @abc.abstractmethod
    def _range_answers(self, queries: np.ndarray) -> np.ndarray:
        """Answer a validated ``(n, 2)`` ``int64`` batch of ranges (bounds
        already checked), every row independently of the others."""

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------
    def _require_fitted(self) -> None:
        """Gate of every read surface: fitted check + lazy materialization."""
        if not self.is_fitted:
            raise NotFittedError(
                f"{self.name} has not collected any reports yet; call fit_items/fit_counts"
            )
        self.materialize()

    def _validate_items(self, items: np.ndarray) -> np.ndarray:
        """Validate a per-user item array and return it as ``int64``.

        Non-integer dtypes are rejected outright: silently truncating a
        float array via ``astype`` would map item 2.9 to 2 without any
        error, corrupting the collected distribution.
        """
        items = np.asarray(items)
        if items.ndim != 1:
            raise InvalidQueryError("items must be a one-dimensional array")
        if (
            items.size
            and not np.issubdtype(items.dtype, np.integer)
            and items.dtype != np.bool_  # bools cast to 0/1 without loss
        ):
            raise InvalidQueryError(
                f"items must have an integer dtype, got {items.dtype}; "
                "round or cast explicitly before collection"
            )
        if items.size and (items.min() < 0 or items.max() >= self._domain_size):
            raise InvalidQueryError(f"items must be in [0, {self._domain_size})")
        # copy=False: already-int64 batches pass through unchanged (the
        # collection paths never mutate them), sparing a copy per batch on
        # the streaming hot path.
        return items.astype(np.int64, copy=False)

    @staticmethod
    def _check_mode(mode: str) -> None:
        if mode not in SIMULATION_MODES:
            raise ConfigurationError(
                f"mode must be one of {SIMULATION_MODES}, got {mode!r}"
            )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"{type(self).__name__}(epsilon={self.epsilon:.4g}, "
            f"domain_size={self.domain_size}, fitted={self.is_fitted})"
        )


class LevelSampledMechanism(RangeQueryMechanism):
    """Base of the mechanisms whose users each report one sampled label
    (see the module docstring for the subclass contract)."""

    def _init_labels(self, oracles: Mapping[Hashable, Any]) -> None:
        """Declare the labels, in label order, with one oracle each."""
        self._oracles = dict(oracles)
        self._labels = list(self._oracles)
        self._accumulators: Optional[dict] = None
        self._label_user_counts: Optional[np.ndarray] = None

    def _init_level_probabilities(
        self, probabilities: Optional[Sequence[float]], n_levels: int
    ) -> None:
        """Set the level-sampling distribution
        (:func:`normalize_level_probabilities`), keeping the argument as
        given (``None`` for uniform) for the snapshot config.  Normalizing
        an already normalized array can move its last bit, so only the
        original argument rebuilds the identical array on restore."""
        self._level_probabilities = normalize_level_probabilities(probabilities, n_levels)
        self._level_probabilities_config = (
            None
            if probabilities is None
            else np.asarray(probabilities, dtype=np.float64).tolist()
        )

    def _user_counts(self) -> Optional[np.ndarray]:
        """A copy of the per-label user counts (``None`` unfitted)."""
        if self._label_user_counts is None:
            return None
        return self._label_user_counts.copy()

    # ------------------------------------------------------------------
    # Collection
    # ------------------------------------------------------------------
    def _reset_accumulators(self) -> None:
        self._accumulators = {
            label: oracle.accumulator() for label, oracle in self._oracles.items()
        }
        self._label_user_counts = np.zeros(len(self._labels), dtype=np.int64)

    def _collect(
        self,
        items: Optional[np.ndarray],
        counts: Optional[np.ndarray],
        rng: np.random.Generator,
        mode: str,
    ) -> None:
        self._reset_accumulators()
        self._accumulate(items, counts, rng, mode)
        self._mark_dirty()

    def _partial_collect(
        self,
        items: np.ndarray,
        counts: Optional[np.ndarray],
        rng: np.random.Generator,
        mode: str,
    ) -> None:
        if self._accumulators is None:
            self._reset_accumulators()
        self._accumulate(items, counts, rng, mode)

    def _accumulate(
        self,
        items: Optional[np.ndarray],
        counts: Optional[np.ndarray],
        rng: np.random.Generator,
        mode: str,
    ) -> None:
        """Fold one batch into the accumulators and the per-label counts."""
        if mode == "per_user":
            self._accumulate_per_user(items, rng)
        else:
            self._accumulate_aggregate(counts, rng)

    @abc.abstractmethod
    def _accumulate_per_user(self, items: np.ndarray, rng: np.random.Generator) -> None:
        """Run the local protocol: each user draws a label and her report
        is folded into that label's accumulator."""

    @abc.abstractmethod
    def _accumulate_aggregate(self, counts: np.ndarray, rng: np.random.Generator) -> None:
        """Sample the aggregator's view: split the per-item counts across
        the labels with :meth:`_thinned` and fold each label's share."""

    def _group_by_label(
        self, items: np.ndarray, assignments: np.ndarray
    ) -> Tuple[np.ndarray, List[Tuple[Hashable, slice]]]:
        """Group a per-user batch by each user's sampled label index.

        Records the users per label and returns ``(ordered, groups)``: the
        items reordered by one stable ``argsort`` of the assignments, and
        ``(label, slice)`` for every label that received users, in label
        order.  ``ordered[slice]`` is exactly ``items[assignments ==
        index]``, the same users in batch order, so the per-label protocol
        runs consume the generator as one mask scan per label would.
        """
        counts = np.bincount(assignments, minlength=len(self._labels))
        self._label_user_counts += counts
        ordered = items[np.argsort(assignments, kind="stable")]
        stops = np.cumsum(counts).tolist()
        groups = [
            (self._labels[index], slice(stops[index] - int(counts[index]), stops[index]))
            for index in np.flatnonzero(counts).tolist()
        ]
        return ordered, groups

    def _thinned(
        self, counts: np.ndarray, probabilities: np.ndarray, rng: np.random.Generator
    ) -> Iterator[Tuple[Hashable, np.ndarray]]:
        """Split per-item counts across the labels, one label at a time.

        A multinomial split realised as sequential binomial thinning (the
        last label takes what remains): the exact distribution of how
        label sampling partitions the users, and splits of separate
        batches add up to the split of their union, which is what makes
        the aggregate paths incremental.  Records the users per label and
        yields ``(label, label_counts)`` for every label that received
        users, in label order.  A label's binomial is drawn only when the
        caller asks for the next label, so the draws interleave with the
        caller's per-label noise exactly as one loop doing both would.
        """
        remaining = counts
        remaining_probability = 1.0
        last = len(self._labels) - 1
        for index, (label, probability) in enumerate(zip(self._labels, probabilities)):
            if index == last:
                label_counts = remaining
            else:
                share = 0.0 if remaining_probability <= 0 else min(
                    1.0, probability / remaining_probability
                )
                label_counts = rng.binomial(remaining, share)
                remaining = remaining - label_counts
                remaining_probability -= probability
            users = int(label_counts.sum())
            self._label_user_counts[index] += users
            if users:
                yield label, label_counts

    def _merge_state(self, other: "LevelSampledMechanism") -> None:
        if self._accumulators is None:
            self._reset_accumulators()
        for label in self._labels:
            self._accumulators[label].merge(other._accumulators[label])
        self._label_user_counts += other._label_user_counts

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------
    def state_dict(self) -> dict:
        state = {"n_users": self._pack_n_users()}
        if self._accumulators is not None:
            state["level_user_counts"] = self._label_user_counts.copy()
            state["accumulators"] = {
                str(label): accumulator.state_dict()
                for label, accumulator in self._accumulators.items()
            }
        return state

    def load_state_dict(self, state: dict) -> "LevelSampledMechanism":
        """Replace the collected state with a :meth:`state_dict`.

        Everything is validated before any state is touched: the label
        set, each accumulator's arrays, and the user counts.  Each label's
        count must equal its accumulator's users, and the counts must
        account for ``n_users`` (:meth:`_label_counts_fit`).
        """
        n_users = self._unpack_n_users(state)
        if "accumulators" not in state:
            self._accumulators = None
            self._label_user_counts = None
            self._mark_clean()
            self._n_users = n_users
            return self
        stored = state["accumulators"]
        expected = {str(label) for label in self._labels}
        if not isinstance(stored, Mapping):
            raise ConfigurationError("snapshot accumulators must be a mapping of levels")
        if set(stored) != expected:
            raise ConfigurationError(
                f"snapshot holds levels {sorted(stored)}, this mechanism has "
                f"{sorted(expected)}"
            )
        if "level_user_counts" not in state:
            raise ConfigurationError(
                "snapshot with accumulators is missing level_user_counts"
            )
        counts = np.asarray(state["level_user_counts"])
        if counts.shape != (len(self._labels),) or counts.dtype.kind not in "iu":
            raise ConfigurationError(
                "snapshot level_user_counts must hold one integer per level"
            )
        accumulators = {
            label: self._oracles[label].restore_accumulator(stored[str(label)])
            for label in self._labels
        }
        # Accumulator user counts are validated non-negative integers, so
        # this exact comparison also rejects negative or wrapped counts.
        if counts.tolist() != [accumulator.n_users for accumulator in accumulators.values()]:
            raise ConfigurationError(
                "snapshot level_user_counts disagree with the users its "
                "accumulators hold"
            )
        if not self._label_counts_fit(counts, n_users):
            raise ConfigurationError(
                f"snapshot level_user_counts do not account for its {n_users} users"
            )
        self._accumulators = accumulators
        self._label_user_counts = counts.astype(np.int64)
        self._mark_dirty()
        self._n_users = n_users
        return self

    def _label_counts_fit(self, counts: np.ndarray, n_users: Optional[int]) -> bool:
        """Whether per-label user counts account for ``n_users`` users who
        each report exactly one label."""
        return sum(counts.tolist()) == n_users
