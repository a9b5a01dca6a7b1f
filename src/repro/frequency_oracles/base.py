"""Common interface of all frequency oracles.

A frequency oracle answers *point queries*: given reports from ``N`` users,
estimate the fraction ``theta[z]`` of users holding each item ``z`` of a
discrete domain of size ``D``.  All oracles in this package produce unbiased
estimates.  The range-query error analysis of Section 4 is expressed in
their per-item variance: ``V_F = 4 e^eps / (N (e^eps - 1)^2)`` for OUE and
OLH, ``V_F + 1 / N`` for HRR and ``q (1 - q) / (N (p - q)^2)`` for SUE and
GRR (see each oracle's ``theoretical_variance``).

An oracle is the user side of the protocol (``encode_batch``: each user
perturbs her item locally) plus the factory of its aggregator side:
:meth:`FrequencyOracle.accumulator` returns a mergeable
:class:`~repro.frequency_oracles.accumulators.OracleAccumulator` holding
the oracle's sufficient statistic, and every decode goes through it.  The
accumulator takes real reports (``add``), runs the protocol for a batch of
private items (``add_items``) or samples the aggregator's noisy view
directly from exact per-item counts (``add_counts``) — the fast path that
lets experiments scale to millions of users without materialising
per-user reports (exact for the unary oracles and HRR, approximate for the
others; see each accumulator's ``_add_simulated``) — and decodes with
``estimate``.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Any, Dict, Mapping, Type

import numpy as np

from repro.exceptions import InvalidDomainError, InvalidQueryError
from repro.frequency_oracles.accumulators import OracleAccumulator, SupportAccumulator
from repro.privacy.budget import PrivacyBudget
from repro.privacy.mechanisms import PerturbationProbabilities
from repro.privacy.randomness import RandomState

__all__ = ["FrequencyOracle", "OracleReports", "PureOracle", "integer_array"]


def integer_array(values: Any, what: str) -> np.ndarray:
    """``values`` as an array, the dtype gate of every collection input.

    Non-integer dtypes raise :class:`~repro.exceptions.InvalidQueryError`
    instead of truncating (item 2.9 is not item 2, a count of 0.7 is not 0).
    Bools cast to 0/1 without loss and pass, as do empty arrays."""
    array = np.asarray(values)
    if array.size and array.dtype.kind not in "iub":
        raise InvalidQueryError(
            f"{what} must have an integer dtype, got {array.dtype}; "
            "round or cast explicitly before collection"
        )
    return array


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
    def domain_size(self) -> int:
        """Number of items ``D`` the oracle estimates frequencies over."""
        return self._domain_size

    # ------------------------------------------------------------------
    # User side
    # ------------------------------------------------------------------
    @abc.abstractmethod
    def encode_batch(
        self, values: np.ndarray, random_state: RandomState = None
    ) -> OracleReports:
        """Perturb every user's item into one report batch.

        The payload holds plain arrays, one entry per user along the
        leading axis, so it can be serialised directly; its keys are
        oracle-specific and documented per subclass.  A single user's
        report is a one-row batch.
        """

    # ------------------------------------------------------------------
    # Aggregator side
    # ------------------------------------------------------------------
    #: The accumulator class over this oracle's sufficient statistic.  Every
    #: oracle sets it: :func:`~repro.frequency_oracles.registry.register_oracle`
    #: refuses a class without one.
    accumulator_class: Type[OracleAccumulator]

    def accumulator(self) -> OracleAccumulator:
        """Fresh mergeable accumulator over this oracle's sufficient
        statistic: the aggregator side of the protocol, whose
        :meth:`~repro.frequency_oracles.accumulators.OracleAccumulator.estimate`
        decodes unbiased frequency estimates."""
        return self.accumulator_class(self)

    def restore_accumulator(self, state: Mapping[str, Any]) -> OracleAccumulator:
        """An accumulator holding a saved :meth:`OracleAccumulator.state_dict`.

        ``state`` is checked against this oracle's statistic shapes before
        any statistic is allocated: a header that claims a larger domain
        than its arrays hold fails with
        :class:`~repro.exceptions.ConfigurationError` at the size of the
        arrays, not of the claimed domain.
        """
        accumulator_class = self.accumulator_class
        # Skip __init__'s zero-filled statistic; load_state_dict installs
        # the checked arrays in its place.
        accumulator = accumulator_class.__new__(accumulator_class)
        accumulator._oracle = self
        return accumulator.load_state_dict(state)

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

    def theoretical_variance(self, n_users: int) -> float:
        """Closed-form variance of one frequency estimate with ``n_users``.

        The default is the canonical ``V_F = 4 e^eps / (N (e^eps - 1)^2)``;
        oracles with a different expression override this.  Raises
        :class:`~repro.exceptions.InvalidQueryError` unless ``n_users`` is
        positive.
        """
        if n_users <= 0:
            raise InvalidQueryError(f"n_users must be positive, got {n_users!r}")
        e = self._budget.exp_epsilon
        return 4.0 * e / (n_users * (e - 1.0) ** 2)

    # ------------------------------------------------------------------
    # Validation helpers shared by subclasses
    # ------------------------------------------------------------------
    def _check_values(self, values: np.ndarray) -> np.ndarray:
        array = integer_array(values, "items")
        if array.ndim != 1:
            raise InvalidQueryError("expected a one-dimensional array of items")
        if array.size and (array.min() < 0 or array.max() >= self._domain_size):
            raise InvalidQueryError(
                f"items must be in [0, {self._domain_size})"
            )
        return array.astype(np.int64)

    def _check_counts(self, counts: np.ndarray) -> np.ndarray:
        array = integer_array(counts, "per-item counts").astype(np.int64, copy=False)
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


class PureOracle(FrequencyOracle):
    """A *pure* protocol (Wang et al., "Locally Differentially Private
    Protocols for Frequency Estimation", USENIX Security 2017): OUE, SUE,
    OLH and GRR.

    A report supports its user's own item with probability ``p`` and any
    other item with probability ``q`` (for OLH: ``q = 1/g``, the collision
    rate of a universal hash).  Subclasses set ``_probabilities`` from
    :mod:`repro.privacy.mechanisms` in their constructor and an
    ``accumulator_class`` deriving from
    :class:`~repro.frequency_oracles.accumulators.SupportAccumulator`,
    which holds the support counts, samples their simulated batch and
    decodes ``(support / N - q) / (p - q)``.
    """

    _probabilities: PerturbationProbabilities
    accumulator_class: Type[SupportAccumulator]

    @property
    def p(self) -> float:
        """Probability that a report supports its user's own item."""
        return self._probabilities.p

    @property
    def q(self) -> float:
        """Probability that a report supports any other given item."""
        return self._probabilities.q

    def theoretical_variance(self, n_users: int) -> float:
        """Small-frequency variance ``q (1 - q) / (N (p - q)^2)``.

        For OUE this equals the canonical ``4 e^eps / (N (e^eps - 1)^2)``.
        """
        if n_users <= 0:
            raise InvalidQueryError(f"n_users must be positive, got {n_users!r}")
        p, q = self.p, self.q
        return q * (1.0 - q) / (n_users * (p - q) ** 2)
