"""Randomized response oracles.

* :class:`BinaryRandomizedResponse` — Warner's classical single-bit
  randomized response, the building block of HRR and the root-level Haar
  coefficient perturbation.
* :class:`GeneralizedRandomizedResponse` — k-ary randomized response (k-RR,
  also called *direct encoding*): the user reports her true symbol with
  probability ``e^eps / (e^eps + k - 1)`` and any specific other symbol with
  probability ``1 / (e^eps + k - 1)``.  Its variance degrades linearly with
  the domain size, which is exactly why the paper builds on OUE / OLH / HRR
  instead; it is included as a baseline and because OLH uses it on the
  hashed domain.
"""

from __future__ import annotations

from typing import Any, Dict

import numpy as np

from repro.exceptions import ConfigurationError, InvalidDomainError, InvalidQueryError
from repro.frequency_oracles.accumulators import OracleAccumulator, checked_report_symbols
from repro.frequency_oracles.base import FrequencyOracle, OracleReports
from repro.privacy.budget import PrivacyBudget
from repro.privacy.mechanisms import binary_rr_probability, grr_probabilities
from repro.privacy.randomness import RandomState, as_generator

__all__ = [
    "BinaryRandomizedResponse",
    "DirectEncodingAccumulator",
    "GeneralizedRandomizedResponse",
]


class BinaryRandomizedResponse:
    """Warner's randomized response over a single ``{-1, +1}`` bit.

    Not a :class:`FrequencyOracle` (its domain is a single bit, not a
    categorical item); it is used as a primitive by HRR and by the Haar
    root coefficient.  The true bit is kept with probability
    ``p = e^eps / (1 + e^eps)`` and flipped otherwise; dividing a report by
    ``2p - 1`` makes it an unbiased estimate of the true bit.
    """

    def __init__(self, epsilon: float) -> None:
        self._budget = PrivacyBudget(epsilon)
        self._keep_probability = binary_rr_probability(epsilon)

    @property
    def epsilon(self) -> float:
        return self._budget.epsilon

    @property
    def keep_probability(self) -> float:
        """Probability ``p`` of reporting the true bit."""
        return self._keep_probability

    @property
    def unbiasing_factor(self) -> float:
        """``2p - 1``; dividing a report by this factor removes the bias."""
        return 2.0 * self._keep_probability - 1.0

    def perturb(self, bits: np.ndarray, random_state: RandomState = None) -> np.ndarray:
        """Perturb an array of ``{-1, +1}`` bits, one independent flip each."""
        rng = as_generator(random_state)
        bits = np.asarray(bits)
        if bits.size and not np.all(np.isin(bits, (-1, 1))):
            raise InvalidQueryError("bits must be -1 or +1")
        keep = rng.random(bits.shape) < self._keep_probability
        return np.where(keep, bits, -bits).astype(np.int64)

    def unbias(self, reports: np.ndarray) -> np.ndarray:
        """Turn raw ``{-1, +1}`` reports into unbiased estimates of the bit."""
        return np.asarray(reports, dtype=np.float64) / self.unbiasing_factor


class DirectEncodingAccumulator(OracleAccumulator):
    """Sufficient statistic of k-RR: the histogram of reported symbols."""

    @staticmethod
    def statistic_shapes(oracle: "GeneralizedRandomizedResponse") -> dict:
        return {"noisy_counts": (oracle.domain_size,)}

    def _add_reports(self, reports: OracleReports) -> None:
        # Reports may come from outside the process: a rejected batch
        # leaves the counts and the user count untouched.
        domain_size = self._oracle.domain_size
        reported = checked_report_symbols(
            reports.payload["values"], reports.n_users, domain_size, "reported values"
        )
        self._noisy_counts += np.bincount(reported, minlength=domain_size).astype(np.float64)

    def _add_simulated(self, counts: np.ndarray, rng: np.random.Generator) -> None:
        oracle = self._oracle
        kept = rng.binomial(counts, oracle.p)
        liars = int((counts - kept).sum())
        if liars:
            lies = rng.multinomial(
                liars, np.full(oracle.domain_size, 1.0 / oracle.domain_size)
            )
        else:
            lies = np.zeros(oracle.domain_size, dtype=np.int64)
        self._noisy_counts += kept + lies

    def _merge_statistic(self, other: "DirectEncodingAccumulator") -> None:
        self._noisy_counts += other._noisy_counts

    def _statistic_arrays(self) -> dict:
        return {"noisy_counts": self._noisy_counts}

    def _load_statistic_arrays(self, arrays: dict) -> None:
        self._noisy_counts = arrays["noisy_counts"]

    def estimate(self) -> np.ndarray:
        return self._oracle._unbias(self._noisy_counts, self._n_users)


class GeneralizedRandomizedResponse(FrequencyOracle):
    """k-ary randomized response (direct encoding).

    Report layout (:meth:`encode`): ``{"value": int}``.

    Variance: ``(q (1 - q) + f (p - q)(1 - p - q)) / (N (p - q)^2)`` which for
    small true frequencies ``f`` is approximately
    ``(e^eps + k - 2) / (N (e^eps - 1)^2)`` — linear in the domain size
    ``k``, the scaling problem that motivates the other oracles.
    """

    name = "grr"

    def __init__(self, epsilon: float, domain_size: int) -> None:
        super().__init__(epsilon, domain_size)
        if domain_size < 2:
            # A one-item domain has nothing to hide; GRR needs >= 2 symbols.
            raise InvalidDomainError("GRR requires a domain of at least two items")
        self._probabilities = grr_probabilities(epsilon, self._domain_size)

    @property
    def p(self) -> float:
        """Probability of reporting the true symbol."""
        return self._probabilities.p

    @property
    def q(self) -> float:
        """Probability of reporting a specific wrong symbol."""
        return self._probabilities.q

    # ------------------------------------------------------------------
    # User side
    # ------------------------------------------------------------------
    def encode(self, value: int, random_state: RandomState = None) -> Dict[str, Any]:
        value = self._check_value(value)
        rng = as_generator(random_state)
        if rng.random() < self.p:
            return {"value": value}
        # Uniform over the other k - 1 symbols.
        offset = int(rng.integers(1, self._domain_size))
        return {"value": (value + offset) % self._domain_size}

    def encode_batch(
        self, values: np.ndarray, random_state: RandomState = None
    ) -> OracleReports:
        values = self._check_values(values)
        rng = as_generator(random_state)
        keep = rng.random(values.shape[0]) < self.p
        offsets = rng.integers(1, self._domain_size, size=values.shape[0])
        reported = np.where(keep, values, (values + offsets) % self._domain_size)
        return OracleReports(payload={"values": reported}, n_users=values.shape[0])

    # ------------------------------------------------------------------
    # Aggregator side
    # ------------------------------------------------------------------
    #: Mergeable accumulator over the reported-symbol histogram.
    accumulator_class = DirectEncodingAccumulator

    def aggregate(self, reports: OracleReports) -> np.ndarray:
        return self.accumulator().add(reports).estimate()

    def simulate_aggregate(
        self, true_counts: np.ndarray, random_state: RandomState = None
    ) -> np.ndarray:
        """Sample the aggregator's noisy item counts from the true counts.

        Users keeping their value contribute a binomial to their own item;
        lying users are spread multinomially over the whole domain.  The
        real protocol excludes a liar's own item, so this fast path is an
        approximation whose error is ``O(1/k)`` per item; the per-user path
        (:meth:`encode_batch` + :meth:`aggregate`) is exact and is what the
        equivalence tests compare against.
        """
        return self.accumulator().add_counts(true_counts, random_state).estimate()

    def _unbias(self, noisy_counts: np.ndarray, n_users: int) -> np.ndarray:
        if n_users == 0:
            return np.zeros(self._domain_size)
        observed = noisy_counts / float(n_users)
        return (observed - self.q) / (self.p - self.q)

    def theoretical_variance(self, n_users: int) -> float:
        """Small-frequency variance ``q (1 - q) / (N (p - q)^2)``."""
        if n_users <= 0:
            raise ConfigurationError(f"n_users must be positive, got {n_users!r}")
        p, q = self.p, self.q
        return q * (1.0 - q) / (n_users * (p - q) ** 2)
