"""Common interface of all frequency oracles.

A frequency oracle answers *point queries*: given reports from ``N`` users,
estimate the fraction ``theta[z]`` of users holding each item ``z`` of a
discrete domain of size ``D``.  All oracles in this package produce unbiased
estimates whose per-item variance is (asymptotically)
``V_F = 4 e^eps / (N (e^eps - 1)^2)`` — the quantity the range-query error
analysis of Section 4 is expressed in.

Four execution paths are exposed:

``encode`` / ``encode_batch`` + ``aggregate``
    The real protocol: users perturb locally, the aggregator decodes.
``estimate_from_users``
    Convenience wrapper running both halves on a vector of private items.
``simulate_aggregate``
    Samples the aggregator's noisy view directly from the exact per-item
    counts.  The sampled estimates follow the same distribution as the real
    protocol (exactly for the unary oracles, marginally for the others — see
    each oracle's docstring), which lets experiments scale to millions of
    users without materialising per-user reports.
``accumulator``
    Returns a mergeable :class:`~repro.frequency_oracles.accumulators.OracleAccumulator`
    holding the oracle's sufficient statistic, for incremental / sharded
    collection.  ``aggregate`` and ``simulate_aggregate`` are implemented on
    top of it, so the one-shot paths are single-batch accumulations.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Any, Dict, Mapping, Optional, Type

import numpy as np

from repro.exceptions import ConfigurationError, InvalidDomainError, InvalidQueryError
from repro.frequency_oracles.accumulators import OracleAccumulator
from repro.privacy.budget import PrivacyBudget
from repro.privacy.randomness import RandomState, as_generator

__all__ = ["FrequencyOracle", "OracleReports"]


@dataclass
class OracleReports:
    """A batch of user reports together with protocol metadata.

    Attributes
    ----------
    payload:
        Oracle-specific report data (e.g. a bit matrix for unary encodings,
        or index/value arrays for Hadamard randomized response).  Every
        array entry is per-user along its leading axis, so its first
        dimension must equal ``n_users``; scalar metadata entries (e.g. the
        packed layout's ``n_bits``) are exempt.
    n_users:
        Number of users contributing to the batch.
    """

    payload: Dict[str, Any]
    n_users: int

    def __post_init__(self) -> None:
        if self.n_users < 0:
            raise InvalidQueryError(f"n_users must be >= 0, got {self.n_users!r}")
        for key, value in self.payload.items():
            if isinstance(value, np.ndarray) and value.ndim >= 1:
                if value.shape[0] != self.n_users:
                    raise InvalidQueryError(
                        f"payload array {key!r} has leading dimension "
                        f"{value.shape[0]} but the batch declares "
                        f"{self.n_users} users; mismatched reports would "
                        f"silently mis-aggregate"
                    )


class FrequencyOracle(abc.ABC):
    """Abstract base class for ``epsilon``-LDP frequency oracles.

    Parameters
    ----------
    epsilon:
        Privacy budget spent by each user's single report.
    domain_size:
        Number of distinct items ``D``.
    """

    #: Short machine-readable identifier, e.g. ``"oue"`` or ``"hrr"``.
    name: str = "abstract"

    def __init__(self, epsilon: float, domain_size: int) -> None:
        self._budget = PrivacyBudget(epsilon)
        if not isinstance(domain_size, (int, np.integer)) or domain_size < 1:
            raise InvalidDomainError(
                f"domain size must be a positive integer, got {domain_size!r}"
            )
        self._domain_size = int(domain_size)

    # ------------------------------------------------------------------
    # Configuration
    # ------------------------------------------------------------------
    @property
    def epsilon(self) -> float:
        """Privacy budget of one report."""
        return self._budget.epsilon

    @property
    def budget(self) -> PrivacyBudget:
        return self._budget

    @property
    def domain_size(self) -> int:
        """Number of items ``D`` the oracle estimates frequencies over."""
        return self._domain_size

    # ------------------------------------------------------------------
    # User side
    # ------------------------------------------------------------------
    @abc.abstractmethod
    def encode(self, value: int, random_state: RandomState = None) -> Dict[str, Any]:
        """Perturb one user's item into a single report.

        The report is a plain dictionary so it can be serialised directly;
        its keys are oracle-specific and documented per subclass.
        """

    @abc.abstractmethod
    def encode_batch(
        self, values: np.ndarray, random_state: RandomState = None
    ) -> OracleReports:
        """Vectorised :meth:`encode` for a whole population of users."""

    # ------------------------------------------------------------------
    # Aggregator side
    # ------------------------------------------------------------------
    @abc.abstractmethod
    def aggregate(self, reports: OracleReports) -> np.ndarray:
        """Decode a batch of reports into unbiased frequency estimates.

        Returns a length-``D`` float vector estimating the *fraction* of
        users holding each item.  Entries may be negative or exceed one —
        unbiasedness, not feasibility, is the contract (Section 3.2).
        """

    @abc.abstractmethod
    def simulate_aggregate(
        self,
        true_counts: np.ndarray,
        random_state: RandomState = None,
    ) -> np.ndarray:
        """Sample frequency estimates directly from exact per-item counts.

        ``true_counts`` is a length-``D`` integer vector whose sum is the
        population size ``N``.
        """

    # ------------------------------------------------------------------
    # Incremental aggregation
    # ------------------------------------------------------------------
    #: The accumulator class over this oracle's sufficient statistic.
    #: ``None`` lets a third-party oracle without one still collect one-shot.
    accumulator_class: Optional[Type[OracleAccumulator]] = None

    def accumulator(self) -> OracleAccumulator:
        """Fresh mergeable accumulator over this oracle's sufficient statistic."""
        return self._accumulator_class()(self)

    def restore_accumulator(self, state: Mapping[str, Any]) -> OracleAccumulator:
        """An accumulator holding a saved :meth:`OracleAccumulator.state_dict`.

        ``state`` is checked against this oracle's statistic shapes before
        any statistic is allocated: a header that claims a larger domain
        than its arrays hold fails with
        :class:`~repro.exceptions.ConfigurationError` at the size of the
        arrays, not of the claimed domain.
        """
        accumulator_class = self._accumulator_class()
        # Skip __init__'s zero-filled statistic; load_state_dict installs
        # the checked arrays in its place.
        accumulator = accumulator_class.__new__(accumulator_class)
        accumulator._oracle = self
        return accumulator.load_state_dict(state)

    def _accumulator_class(self) -> Type[OracleAccumulator]:
        if self.accumulator_class is None:
            raise ConfigurationError(
                f"{type(self).__name__} does not provide a mergeable accumulator"
            )
        return self.accumulator_class

    def merge_signature(self) -> tuple:
        """Configuration fingerprint deciding accumulator compatibility.

        Two accumulators may merge only if their oracles' signatures are
        equal.  Subclasses with extra protocol parameters (e.g. OLH's hash
        range) extend the tuple.
        """
        return (type(self).__name__, float(self.epsilon), int(self._domain_size))

    def config_dict(self) -> Dict[str, Any]:
        """JSON-serialisable constructor arguments reproducing this oracle.

        Feeding the dictionary back through
        :func:`repro.frequency_oracles.registry.make_oracle` rebuilds an
        identically configured instance; :mod:`repro.persist` stores it in
        snapshot headers so accumulators can be restored without a template.
        Subclasses with extra protocol parameters extend the dictionary.
        """
        return {
            "name": self.name,
            "epsilon": float(self.epsilon),
            "domain_size": int(self._domain_size),
        }

    # ------------------------------------------------------------------
    # Convenience wrappers
    # ------------------------------------------------------------------
    def estimate_from_users(
        self, values: np.ndarray, random_state: RandomState = None
    ) -> np.ndarray:
        """Run the full protocol on a vector of private items."""
        rng = as_generator(random_state)
        reports = self.encode_batch(np.asarray(values), rng)
        return self.aggregate(reports)

    def theoretical_variance(self, n_users: int) -> float:
        """Closed-form variance of one frequency estimate with ``n_users``.

        The default is the common bound ``4 e^eps / (N (e^eps - 1)^2)``
        shared by OUE, OLH and HRR; oracles with a different expression
        override this.
        """
        if n_users <= 0:
            raise InvalidQueryError(f"n_users must be positive, got {n_users!r}")
        e = self._budget.exp_epsilon
        return 4.0 * e / (n_users * (e - 1.0) ** 2)

    # ------------------------------------------------------------------
    # Validation helpers shared by subclasses
    # ------------------------------------------------------------------
    def _check_value(self, value: int) -> int:
        if not isinstance(value, (int, np.integer)) or not 0 <= value < self._domain_size:
            raise InvalidQueryError(
                f"item must be in [0, {self._domain_size}), got {value!r}"
            )
        return int(value)

    def _check_values(self, values: np.ndarray) -> np.ndarray:
        array = np.asarray(values)
        if array.ndim != 1:
            raise InvalidQueryError("expected a one-dimensional array of items")
        if array.size and (array.min() < 0 or array.max() >= self._domain_size):
            raise InvalidQueryError(
                f"items must be in [0, {self._domain_size})"
            )
        return array.astype(np.int64)

    def _check_counts(self, counts: np.ndarray) -> np.ndarray:
        array = np.asarray(counts, dtype=np.int64)
        if array.ndim != 1 or array.shape[0] != self._domain_size:
            raise InvalidDomainError(
                f"expected {self._domain_size} per-item counts, got shape {array.shape}"
            )
        if np.any(array < 0):
            raise InvalidQueryError("per-item counts must be non-negative")
        return array

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"{type(self).__name__}(epsilon={self.epsilon:.4g}, "
            f"domain_size={self.domain_size})"
        )
