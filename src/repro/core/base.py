"""The one base class of every range-query mechanism.

A mechanism's lifecycle has two phases:

1. **Collection** — every user reports one *label* (a tree level, a tuple
   of per-axis levels, or the flat mechanism's single leaf level) through
   that label's frequency oracle, and the aggregator sums the oracle
   statistics per label in mergeable accumulators.  :meth:`fit_items` (an
   array of individual user items, supporting both ``per_user`` and
   ``aggregate`` simulation) and :meth:`fit_counts` (exact per-item counts)
   reset the accumulators and collect one population; :meth:`partial_fit`
   adds one more batch on top of them, any number of times;
   :meth:`merge_from` folds another instance's accumulators into this one
   — the substrate of :class:`repro.streaming.ShardedCollector`; and
   :meth:`state_dict` / :meth:`load_state_dict` snapshot them.
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

A subclass calls ``_init_labels`` with one oracle per label, in label
order, and implements :meth:`_refresh_estimates` (rebuild the queryable
estimates, among them the per-item ``_frequencies`` and their ``_prefix``
sums that :meth:`estimate_frequencies`, :meth:`estimate_cdf` and the
default :meth:`_range_answers` read) and :meth:`_answer_weights` (the
squared weights each answer puts on each label's estimates, from which
:meth:`answer_variances` states every answer's variance).  Collection is
one level-sampled protocol: each user draws a label (:meth:`_draw_labels`)
and reports the cell holding the item at it (:meth:`_label_cells`); a class
whose labels nest states them finest first (:meth:`_label_chain`), which
aggregate mode thins along.  A class whose reports are not plain cells
(Haar's signed keys) overrides the folds :meth:`_fold_users` and
:meth:`_fold_shares`.  A class whose
answers are not prefix differences (non-consistent HH, the grid's box
unions) overrides :meth:`_range_answers`, and one whose users report
several labels (HH budget splitting) ``_accumulate`` and
``_label_counts_fit``.  The base class provides the collection skeleton, the one validation gate
(:func:`validate_queries`), the answer cache, the scalar surfaces,
workload evaluation and the quantile search.
"""

from __future__ import annotations

import abc
from typing import (
    Any,
    Callable,
    Dict,
    FrozenSet,
    Hashable,
    Iterable,
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
from repro.frequency_oracles.base import integer_array
from repro.privacy.budget import PrivacyBudget
from repro.privacy.randomness import RandomState, as_generator, categorical

__all__ = [
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


def _merged_runs(
    items: np.ndarray, cells: np.ndarray, counts: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Sum ``counts`` over each run of equal ``cells`` (sorted), keeping the
    run's first item and cell; runs of one come back as given."""
    first = np.ones(cells.shape, dtype=bool)
    np.not_equal(cells[1:], cells[:-1], out=first[1:])
    starts = np.flatnonzero(first)
    if starts.shape[0] == cells.shape[0]:
        return items, cells, counts
    return items[starts], cells[starts], np.add.reduceat(counts, starts)


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
        # The leaf read path: per-item estimates and their prefix sums
        # (a leading 0.0, then one entry per item or padded leaf), set by
        # every _refresh_estimates.
        self._frequencies: Optional[np.ndarray] = None
        self._prefix: Optional[np.ndarray] = None

    # ------------------------------------------------------------------
    # Configuration
    # ------------------------------------------------------------------
    #: The class's name in :mod:`repro.persist` headers (``None``: restore
    #: into a template only).
    config_kind: Optional[str] = None
    #: :meth:`config_dict` keys a stored config may omit (the default applies).
    config_optional: FrozenSet[str] = frozenset({"name", "oracle_kwargs"})

    def config_dict(self) -> Dict[str, Any]:
        """JSON-serialisable constructor keywords reproducing this mechanism
        (a ``**oracle_kwargs`` catch-all as one ``oracle_kwargs`` mapping),
        which :mod:`repro.persist` stores under :attr:`config_kind`.
        Subclasses extend it with their own options.
        """
        return {
            "epsilon": float(self.epsilon),
            "domain_size": int(self.domain_size),
            "name": self._name,
        }

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
        the number of reconstructions the laziness saved.
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
        :meth:`materialize`.  Called by every collection entry point,
        :meth:`merge_from` and :meth:`load_state_dict`."""
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
    # Labels
    # ------------------------------------------------------------------
    def _init_labels(
        self, oracles: Mapping[Hashable, Any], shares: Optional[np.ndarray] = None
    ) -> None:
        """Declare the labels, in label order, with one oracle each, and each
        label's expected share of the users (uniform by default)."""
        self._oracles = dict(oracles)
        self._labels = list(self._oracles)
        self._label_shares = (
            np.full(len(self._labels), 1.0 / len(self._labels)) if shares is None else shares
        )
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
    # Collection phase
    # ------------------------------------------------------------------
    def fit_items(
        self,
        items: np.ndarray,
        random_state: RandomState = None,
        mode: str = "aggregate",
    ) -> "RangeQueryMechanism":
        """Collect the population given each user's private item.

        Any previously collected state is discarded.

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
            faster, statistically equivalent — see the accumulators'
            ``_add_simulated`` docstrings).
        """
        items = self._validate_items(items)
        self._check_mode(mode)
        rng = as_generator(random_state)
        self._reset_accumulators()
        self._accumulate(items, None, rng, mode)
        self._mark_dirty()
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
        """
        items = self._validate_items(items)
        self._check_mode(mode)
        rng = as_generator(random_state)
        if self._accumulators is None:
            self._reset_accumulators()
        self._accumulate(items, None, rng, mode)
        self._mark_dirty()
        self._n_users = (self._n_users or 0) + int(items.shape[0])
        return self

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
        configurations differ, and :class:`~repro.exceptions.NotFittedError`
        when ``other`` has not collected anything.
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
        if self._accumulators is None:
            self._reset_accumulators()
        for label in self._labels:
            self._accumulators[label].merge(other._accumulators[label])
        self._label_user_counts += other._label_user_counts
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

        Any previously collected state is discarded.  ``mode="per_user"``
        is also accepted: the counts are expanded into an explicit item
        vector first (costs ``O(N)`` memory).
        """
        counts = integer_array(counts, "per-item counts").astype(np.int64, copy=False)
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
        self._reset_accumulators()
        self._accumulate(items, counts, rng, mode)
        self._mark_dirty()
        self._n_users = int(counts.sum())
        return self

    def _reset_accumulators(self) -> None:
        self._accumulators = {
            label: oracle.accumulator() for label, oracle in self._oracles.items()
        }
        self._label_user_counts = np.zeros(len(self._labels), dtype=np.int64)

    def _accumulate(
        self,
        items: Optional[np.ndarray],
        counts: Optional[np.ndarray],
        rng: np.random.Generator,
        mode: str,
    ) -> None:
        """Fold one batch into the accumulators and the per-label counts.

        ``items`` is present when ``mode == "per_user"``; the aggregate
        path takes per-item ``counts``, binned from ``items`` when not
        given.  Only it pays that ``O(D)`` ``bincount``, so tiny per-user
        streaming batches stay at ``O(batch)`` cost.

        Per user: :meth:`_draw_labels`, :meth:`_group_by_label`, then
        :meth:`_fold_users` per label.  In aggregate, :meth:`_thinned`
        splits the counts of the batch's *support* (items with a non-zero
        count) across the labels, finest label first when the labels nest
        (:meth:`_label_chain`), and :meth:`_fold_shares` folds each label's
        share.  A small streaming batch touches O(nnz) entries a label, and
        the noise sampling inside the accumulators is the only full-domain
        work.
        """
        if mode == "per_user":
            assignments = self._draw_labels(rng, items.shape[0])
            for label, users in self._group_by_label(items, assignments):
                self._fold_users(label, users, rng)
        else:
            if counts is None:
                counts = np.bincount(items, minlength=self._domain_size)
            support = np.flatnonzero(counts)
            self._fold_shares(self._thinned(support, counts[support], rng), rng)

    def _draw_labels(self, rng: np.random.Generator, n_users: int) -> np.ndarray:
        """Each user's label index, drawn with
        :func:`~repro.privacy.randomness.categorical` over the label
        shares (``rng.choice``'s values and stream)."""
        return categorical(rng, self._label_shares, n_users)

    def _label_cells(self, label: Hashable, items: np.ndarray) -> np.ndarray:
        """The cell of each item in ``label``'s oracle domain: what a user
        reporting ``label`` perturbs.  By default an item is its own cell,
        as at the flat mechanism's one label."""
        return items

    def _label_chain(self) -> Optional[Sequence[int]]:
        """The label indices finest first when the labels nest: each
        label's cells are unions of the previous one's and
        :meth:`_label_cells` is non-decreasing in the item.  ``None``
        (the default, the grid's level tuples) thins in label order at
        item resolution."""
        return None

    def _fold_users(self, label: Hashable, items: np.ndarray, rng: np.random.Generator) -> None:
        """Run the local protocol for ``label``'s users: their cells go
        through the accumulator's per-user hook
        (:meth:`~repro.frequency_oracles.accumulators.OracleAccumulator._add_items`),
        the report round trip for OUE/OLH/GRR and a direct fold for HRR."""
        self._accumulators[label]._add_items(self._label_cells(label, items), rng)

    def _fold_shares(
        self,
        shares: Iterable[Tuple[Hashable, np.ndarray, np.ndarray]],
        rng: np.random.Generator,
    ) -> None:
        """Fold each ``(label, cells, counts)`` share as it arrives:
        ``counts[k]`` users of ``label`` in cell ``cells[k]`` (cells may
        repeat), added into the label's cell counts, which drive the
        accumulator's simulated-aggregate path.  Folding a label before
        the next is thinned interleaves the draws as one loop doing both
        would."""
        for label, cells, counts in shares:
            cell_counts = np.zeros(self._oracles[label].domain_size, dtype=np.int64)
            np.add.at(cell_counts, cells, counts)
            self._accumulators[label].add_counts(cell_counts, rng)

    def _group_by_label(
        self, items: np.ndarray, assignments: np.ndarray
    ) -> Iterator[Tuple[Hashable, np.ndarray]]:
        """Group a per-user batch by each user's sampled label index.

        Records the users per label, reorders the items by one stable
        ``argsort`` of the assignments and yields ``(label, users)`` for
        every label that received users, in label order.  ``users`` is
        exactly ``items[assignments == index]``, the same users in batch
        order, so the per-label protocol runs consume the generator as one
        mask scan per label would.
        """
        counts = np.bincount(assignments, minlength=len(self._labels))
        self._label_user_counts += counts
        ordered = items[np.argsort(assignments, kind="stable")]
        stops = np.cumsum(counts).tolist()
        for index in np.flatnonzero(counts).tolist():
            yield self._labels[index], ordered[stops[index] - int(counts[index]) : stops[index]]

    def _thinned(
        self, support: np.ndarray, counts: np.ndarray, rng: np.random.Generator
    ) -> Iterator[Tuple[Hashable, np.ndarray, np.ndarray]]:
        """Split the counts of the sorted items ``support`` across the
        labels by their shares, one label at a time.

        A multinomial split realised as sequential binomial thinning (the
        last label takes what remains): the exact distribution of how
        label sampling partitions the users, and splits of separate
        batches add up to the split of their union, which is what makes
        the aggregate paths incremental.  Along a :meth:`_label_chain`
        the finest label is drawn first, and what remains is summed into
        the next label's cells with one ``np.add.reduceat`` before its
        draw: its breaks are where :meth:`_label_cells` changes, since
        the support is sorted and the cell map monotone.  A sum of
        binomials of one probability is the binomial of the sum, so this
        is the same split, at O(nnz) a label and with one draw per
        occupied cell.  Labels that do not nest are thinned in label
        order at item resolution.

        Records the users per label and yields ``(label, cells, counts)``
        for every label that received users: ``counts[k]`` of them in
        cell ``cells[k]`` (distinct cells along a chain).  A label's
        binomial is drawn only when the caller asks for the next label.
        """
        chain = self._label_chain()
        order = range(len(self._labels)) if chain is None else chain
        items, remaining = support, counts
        del support, counts  # the remainder alone keeps the batch's counts
        remaining_probability = 1.0
        last = len(order) - 1
        for position, index in enumerate(order):
            label, probability = self._labels[index], self._label_shares[index]
            cells = self._label_cells(label, items)
            if chain is not None:
                items, cells, remaining = _merged_runs(items, cells, remaining)
            if position == last:
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
                yield label, cells, label_counts

    @abc.abstractmethod
    def _refresh_estimates(self) -> None:
        """Rebuild the queryable estimates from the accumulated statistics,
        ``_frequencies`` and ``_prefix`` among them.

        Must be a pure function of the sufficient statistics (no randomness,
        no statistic mutation) — that determinism is what makes lazy and
        eager materialization bit-identical.  Only ever called through
        :meth:`materialize`, which handles the generation bookkeeping.
        """

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
        """Nested ``{str: array-or-dict}`` snapshot of the collected state:
        ``n_users``, and once fitted ``level_user_counts`` and
        ``accumulators/<label>/...``.

        ``n_users`` is encoded as ``-1`` when the mechanism is unfitted so
        that empty shards can be checkpointed too.
        """
        state = {
            "n_users": np.asarray(
                -1 if self._n_users is None else int(self._n_users), dtype=np.int64
            )
        }
        if self._accumulators is not None:
            state["level_user_counts"] = self._label_user_counts.copy()
            state["accumulators"] = {
                str(label): accumulator.state_dict()
                for label, accumulator in self._accumulators.items()
            }
        return state

    def load_state_dict(self, state: dict) -> "RangeQueryMechanism":
        """Replace the collected state with a :meth:`state_dict`.

        The mechanism must be configured identically to the one that
        produced the state (``load`` callers verify the merge signature
        first; the checks here catch the rest).  Everything is validated
        before any state is touched: a fitted ``n_users`` needs stored
        accumulators, the label set must match, each accumulator's arrays
        must fit its oracle, each label's count must equal its
        accumulator's users, and the counts must account for ``n_users``
        (:meth:`_label_counts_fit`).  Only the sufficient statistics are
        restored — the queryable estimates are rebuilt lazily on the first
        read and equal the snapshotted mechanism's bit-for-bit.
        """
        if not isinstance(state, Mapping):
            raise ConfigurationError("mechanism state must be a mapping of arrays")
        if "n_users" not in state:
            raise ConfigurationError("mechanism state is missing 'n_users'")
        n_users = checked_state_count(state["n_users"], "snapshotted n_users", lower=-1)
        if "accumulators" not in state:
            if n_users != -1:
                raise ConfigurationError(
                    f"snapshot of a fitted mechanism ({n_users} users) holds no accumulators"
                )
            self._accumulators = None
            self._label_user_counts = None
            self._mark_clean()
            self._n_users = None
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
        n_users = None if n_users == -1 else n_users
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

    def answer_workload(self, workload: RangeWorkload) -> np.ndarray:
        """Answer every query of a :class:`~repro.data.workloads.RangeWorkload`."""
        if workload.domain_size != self._domain_size:
            raise InvalidQueryError(
                "workload domain does not match the mechanism domain"
            )
        return self.answer_ranges(workload.queries)

    def answer_variances(self, queries: Any, n_users: Optional[int] = None) -> np.ndarray:
        """Variance of each answer of a query batch (Fact 1, eqs. (1)–(3)).

        ``queries`` has the rows of the class's batched answer surface
        (``(n, 2)`` ranges; ``(n, 2d)`` boxes for a grid), checked by
        :func:`validate_queries`.  Every answer is linear in independent
        per-label oracle estimates, so its variance is ``weights @ v``:
        ``v[l]`` is label ``l``'s oracle ``theoretical_variance`` at its
        fitted users, or at ``n_users`` times its share when given (so an
        unfitted mechanism can be planned), and ``weights[i, l]`` sums the
        squared weights answer ``i`` puts on label ``l``'s estimates
        (:meth:`_answer_weights`).  A touched label without users gives
        ``inf``.  ``v`` is a zero-frequency variance, so OLH and GRR can
        measure above it at large frequencies.
        """
        queries = self._answer_rows(queries)
        if n_users is None:
            if not self.is_fitted:
                raise NotFittedError(f"{self.name} is unfitted; pass n_users= to plan")
            users = self._label_user_counts
        elif type(n_users) is not bool and isinstance(n_users, (int, np.integer)) and n_users > 0:
            users = n_users * self._label_shares
        else:
            raise ConfigurationError(f"n_users must be a positive integer, got {n_users!r}")
        variances = np.array(
            [
                oracle.theoretical_variance(count) if count > 0 else np.inf
                for oracle, count in zip(self._oracles.values(), users.tolist())
            ]
        )
        weights = self._answer_weights(queries)
        known = np.isfinite(variances)
        result = weights[:, known] @ variances[known]
        result[(weights[:, ~known] > 0).any(axis=1)] = np.inf
        return result

    def _answer_rows(self, queries: Any) -> np.ndarray:
        """The query rows of the class's batched answer surface, validated:
        ``(n, 2)`` ranges over the item domain."""
        return validate_queries(queries, 2, self._domain_size)

    @abc.abstractmethod
    def _answer_weights(self, queries: np.ndarray) -> np.ndarray:
        """``(n, labels)`` sums of the squared weights each validated query
        row's answer puts on each label's oracle estimates."""

    def answer_prefix(self, end: int) -> float:
        """Estimated fraction of users with item ``<= end`` (prefix query)."""
        return self.answer_range(0, end)

    def estimate_frequencies(self) -> np.ndarray:
        """Estimated per-item fractions (point queries for every item): the
        materialized ``_frequencies``."""
        self._require_fitted()
        return self._frequencies.copy()

    def estimate_cdf(self) -> np.ndarray:
        """Estimated cumulative distribution ``F(b) = R[0, b]`` for every b.

        The materialized ``_prefix`` sums over the item domain, reused
        instead of re-deriving the CDF: bit-identical to
        ``cumsum(estimate_frequencies())``, since a prefix of a sequential
        cumulative sum equals the cumulative sum of the prefix.
        """
        self._require_fitted()
        return self._prefix[1 : self._domain_size + 1].copy()

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
        Targets must be numbers in ``[0, 1]``; strings and bools raise
        :class:`~repro.exceptions.InvalidQueryError`
        (:func:`~repro.core.quantiles.quantile_targets`).
        """
        from repro.core.quantiles import estimate_quantiles, quantile_targets

        self._require_fitted()
        targets = quantile_targets(phis)
        key = ("quantiles", tuple(targets))
        return list(self._cached(key, lambda: tuple(estimate_quantiles(self, targets))))

    def _range_answers(self, queries: np.ndarray) -> np.ndarray:
        """Answer a validated ``(n, 2)`` ``int64`` batch of ranges (bounds
        already checked), every row independently of the others: by
        default, differences of the materialized prefix sums (O(1) per
        query)."""
        return self._prefix[queries[:, 1] + 1] - self._prefix[queries[:, 0]]

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
        """Validate a per-user item array (:func:`integer_array`, then the
        domain bounds) and return it as ``int64``."""
        items = integer_array(items, "items")
        if items.ndim != 1:
            raise InvalidQueryError("items must be a one-dimensional array")
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
        options = "".join(
            f"{key}={value!r}, " for key, value in self.config_dict().items()
        )
        return f"{type(self).__name__}({options}fitted={self.is_fitted})"
