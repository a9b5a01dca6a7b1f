"""Mergeable accumulators: the oracles' sufficient statistics.

Every frequency oracle's aggregator is a *sum* over per-report
contributions — column sums of the bit matrix for the unary encodings,
per-item support tallies for OLH, per-symbol counts for GRR and per-index
coefficient sums for HRR — followed by a single linear decode.  An
:class:`OracleAccumulator` makes that structure explicit: it holds the
running sufficient statistic, accepts report batches (or simulated
aggregate-mode batches) incrementally with :meth:`add` / :meth:`add_counts`,
combines with another accumulator of the same configuration via
:meth:`merge`, and decodes the statistic into frequency estimates with
:meth:`estimate` at any point.

The laws the accumulators satisfy (and the tests verify):

* **merge-linearity** — ``merge`` is associative and commutative, and the
  merged estimate equals the user-count-weighted average of the parts'
  estimates;
* **one-shot equivalence** — accumulating a population in several batches
  follows exactly the same distribution as the one-shot
  ``aggregate`` / ``simulate_aggregate`` paths (which are themselves
  implemented on top of the accumulators, so the one-shot path *is* a
  single-batch accumulation).

This is what makes sharded and streaming collection possible: shards
accumulate independently and a reducer merges their statistics, with no
report matrices ever materialised.
"""

from __future__ import annotations

import abc
from typing import TYPE_CHECKING, Dict, Mapping, Tuple

import numpy as np

from repro.exceptions import ConfigurationError, InvalidQueryError
from repro.privacy.randomness import RandomState, as_generator

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.frequency_oracles.base import FrequencyOracle, OracleReports

__all__ = ["OracleAccumulator", "checked_report_symbols", "checked_state_count"]


def checked_report_symbols(
    symbols, n_users: int, upper: int, what: str, lower: int = 0
) -> np.ndarray:
    """Validate one untrusted per-user integer field of a report batch.

    ``symbols`` must be one-dimensional with one entry per user, integral
    (an integer dtype, or floats with integral values as JSON may deliver
    them) and in ``[lower, upper)``.  Returns them as int64; raises
    :class:`~repro.exceptions.InvalidQueryError` otherwise, before any
    statistic changes.
    """
    array = np.asarray(symbols)
    if array.shape != (n_users,):
        raise InvalidQueryError(
            f"{what} must be one-dimensional with one entry per user ({n_users}), "
            f"got shape {array.shape}"
        )
    if array.dtype.kind not in "iu" and not (
        array.dtype.kind == "f" and np.array_equal(array, np.trunc(array))
    ):
        raise InvalidQueryError(f"{what} must be integers")
    if array.size and (array.min() < lower or array.max() >= upper):
        raise InvalidQueryError(f"{what} must be in [{lower}, {upper})")
    return array.astype(np.int64, copy=False)


def checked_state_count(value, what: str, lower: int = 0) -> int:
    """Validate one snapshotted count: an integer scalar ``>= lower``.

    Raises :class:`~repro.exceptions.ConfigurationError` otherwise (a
    vector, a float, a string or a nested mapping).
    """
    array = np.asarray(value)
    if array.shape != () or array.dtype.kind not in "iu":
        raise ConfigurationError(f"{what} must be an integer scalar")
    count = int(array)
    if count < lower:
        raise ConfigurationError(f"{what} must be >= {lower}, got {count}")
    return count


class OracleAccumulator(abc.ABC):
    """Mergeable aggregation state of one frequency oracle.

    Obtained from :meth:`FrequencyOracle.accumulator`; concrete subclasses
    live next to their oracle and define the sufficient statistic: float64
    arrays whose shapes :meth:`statistic_shapes` names.  All mutating
    methods return ``self`` so calls can be chained.
    """

    def __init__(self, oracle: "FrequencyOracle") -> None:
        self._oracle = oracle
        self._n_users = 0
        self._load_statistic_arrays(
            {key: np.zeros(shape) for key, shape in self.statistic_shapes(oracle).items()}
        )

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def oracle(self) -> "FrequencyOracle":
        """The oracle whose reports this accumulator aggregates."""
        return self._oracle

    @property
    def n_users(self) -> int:
        """Number of users accumulated so far."""
        return self._n_users

    # ------------------------------------------------------------------
    # Accumulation
    # ------------------------------------------------------------------
    def add(self, reports: "OracleReports") -> "OracleAccumulator":
        """Fold a batch of real user reports into the statistic."""
        self._add_reports(reports)
        self._n_users += int(reports.n_users)
        return self

    def add_items(
        self, values: np.ndarray, random_state: RandomState = None
    ) -> "OracleAccumulator":
        """Encode a batch of private items and accumulate their reports.

        Validates ``values`` once, then runs the per-user hook
        :meth:`_add_items`.
        """
        self._add_items(self._oracle._check_values(values), as_generator(random_state))
        return self

    def _add_items(self, values: np.ndarray, rng: np.random.Generator) -> None:
        """Run the local protocol for every user and fold the result in.

        The trusted per-user hook: ``values`` are int64 items already
        checked against the domain (the mechanisms validate a batch once,
        at ``partial_fit`` entry, and call this for each level's users).
        The default is the report round trip, ``add(encode_batch(...))``;
        an oracle whose perturbation can feed its statistic directly
        overrides it (HRR).  Either way the user count grows by
        ``len(values)`` and the generator advances exactly as encoding the
        batch does.
        """
        self.add(self._oracle.encode_batch(values, rng))

    def add_counts(
        self, true_counts: np.ndarray, random_state: RandomState = None
    ) -> "OracleAccumulator":
        """Accumulate a simulated aggregate-mode batch from exact counts.

        Samples the statistic's increment directly, with the same
        distribution as encoding and adding the corresponding population
        (see each oracle's ``simulate_aggregate`` docstring for the exact
        vs. marginal guarantees).
        """
        counts = self._oracle._check_counts(true_counts)
        rng = as_generator(random_state)
        self._add_simulated(counts, rng)
        self._n_users += int(counts.sum())
        return self

    def merge(self, other: "OracleAccumulator") -> "OracleAccumulator":
        """Fold another accumulator's statistic into this one.

        Both accumulators must come from identically configured oracles
        (same class, epsilon, domain and protocol parameters); otherwise a
        :class:`~repro.exceptions.ConfigurationError` is raised and this
        accumulator is left untouched.
        """
        if type(other) is not type(self):
            raise ConfigurationError(
                f"cannot merge {type(other).__name__} into {type(self).__name__}"
            )
        mine = self._oracle.merge_signature()
        theirs = other._oracle.merge_signature()
        if mine != theirs:
            raise ConfigurationError(
                f"cannot merge accumulators of differently configured oracles: "
                f"{mine} != {theirs}"
            )
        self._merge_statistic(other)
        self._n_users += other._n_users
        return self

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------
    def state_dict(self) -> Dict[str, np.ndarray]:
        """The full mutable state as named arrays (plus the user count).

        The returned dictionary, fed back through
        :meth:`FrequencyOracle.restore_accumulator` of an identically
        configured oracle, reproduces the estimates bit-for-bit.  Used by
        :mod:`repro.persist` for snapshots and crash recovery.
        """
        state: Dict[str, np.ndarray] = {
            "n_users": np.asarray(self._n_users, dtype=np.int64)
        }
        for key, value in self._statistic_arrays().items():
            state[key] = np.array(value, copy=True)
        return state

    def load_state_dict(self, state: Mapping[str, np.ndarray]) -> "OracleAccumulator":
        """Replace this accumulator's state with a :meth:`state_dict`.

        Arrays are validated against the oracle's :meth:`statistic_shapes`,
        not the arrays held, before anything is installed: a wrong shape
        (e.g. a snapshot taken over a different domain size), a non-numeric
        dtype, a non-finite entry or a non-integer user count raises
        :class:`~repro.exceptions.ConfigurationError` without modifying the
        accumulator.
        """
        if not isinstance(state, Mapping):
            raise ConfigurationError("accumulator state must be a mapping of arrays")
        state = dict(state)
        if "n_users" not in state:
            raise ConfigurationError("accumulator state is missing 'n_users'")
        n_users = checked_state_count(state.pop("n_users"), "n_users")
        shapes = self.statistic_shapes(self._oracle)
        if set(state) != set(shapes):
            raise ConfigurationError(
                f"accumulator state keys {sorted(state)} do not match the "
                f"expected statistic {sorted(shapes)}"
            )
        loaded = {}
        for key, shape in shapes.items():
            value = np.asarray(state[key])
            if value.dtype.kind not in "biuf" or not np.can_cast(
                value.dtype, np.float64, "same_kind"
            ):
                raise ConfigurationError(
                    f"statistic {key!r} has dtype {value.dtype}, expected float64"
                )
            if value.shape != tuple(shape):
                raise ConfigurationError(
                    f"statistic {key!r} has shape {value.shape}, expected "
                    f"{tuple(shape)} for this configuration"
                )
            value = value.astype(np.float64)
            if not np.all(np.isfinite(value)):
                raise ConfigurationError(f"statistic {key!r} holds non-finite values")
            loaded[key] = value
        self._load_statistic_arrays(loaded)
        self._n_users = n_users
        return self

    @staticmethod
    @abc.abstractmethod
    def statistic_shapes(oracle: "FrequencyOracle") -> Dict[str, Tuple[int, ...]]:
        """Shape of every float64 statistic array for ``oracle``, keyed by
        the stable schema names of :meth:`_statistic_arrays`."""

    @abc.abstractmethod
    def _statistic_arrays(self) -> Dict[str, np.ndarray]:
        """The sufficient-statistic arrays, keyed by stable schema names."""

    @abc.abstractmethod
    def _load_statistic_arrays(self, arrays: Dict[str, np.ndarray]) -> None:
        """Install validated statistic arrays (shapes/dtypes already checked)."""

    # ------------------------------------------------------------------
    # Decoding
    # ------------------------------------------------------------------
    @abc.abstractmethod
    def estimate(self) -> np.ndarray:
        """Decode the statistic into unbiased per-item frequency estimates.

        Returns a length-``D`` float vector (all zeros before any users have
        been accumulated); may be called repeatedly and does not consume the
        statistic.
        """

    # ------------------------------------------------------------------
    # Subclass hooks
    # ------------------------------------------------------------------
    @abc.abstractmethod
    def _add_reports(self, reports: "OracleReports") -> None:
        """Fold a validated batch of reports into the statistic."""

    @abc.abstractmethod
    def _add_simulated(self, counts: np.ndarray, rng: np.random.Generator) -> None:
        """Sample the statistic increment for an aggregate-mode batch."""

    @abc.abstractmethod
    def _merge_statistic(self, other: "OracleAccumulator") -> None:
        """Add a compatible accumulator's statistic to this one."""

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"{type(self).__name__}(oracle={type(self._oracle).__name__}, "
            f"n_users={self._n_users})"
        )
