"""Generalized (k-ary) randomized response, k-RR or *direct encoding*.

The user reports her true symbol with probability ``e^eps / (e^eps + k - 1)``
and any specific other symbol with probability ``1 / (e^eps + k - 1)``.  Its
variance degrades linearly with the domain size, which is exactly why the
paper builds on OUE / OLH / HRR instead; it is included as a baseline.  OLH
runs the same perturbation on its hashed domain, and HRR runs its binary
(``k = 2``) case on one Hadamard coefficient
(:func:`~repro.privacy.mechanisms.binary_rr_probability`).
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import InvalidDomainError
from repro.frequency_oracles.accumulators import SupportAccumulator, checked_report_symbols
from repro.frequency_oracles.base import OracleReports, PureOracle
from repro.privacy.mechanisms import grr_probabilities
from repro.privacy.randomness import RandomState, as_generator

__all__ = ["DirectEncodingAccumulator", "GeneralizedRandomizedResponse"]


class DirectEncodingAccumulator(SupportAccumulator):
    """Sufficient statistic of k-RR: the histogram of reported symbols."""

    statistic_key = "noisy_counts"

    def _add_reports(self, reports: OracleReports) -> None:
        # Reports may come from outside the process: a rejected batch
        # leaves the counts and the user count untouched.
        domain_size = self._oracle.domain_size
        reported = checked_report_symbols(
            reports.payload["values"], reports.n_users, domain_size, "reported values"
        )
        self._statistic += np.bincount(reported, minlength=domain_size).astype(np.float64)

    def _add_simulated(self, counts: np.ndarray, rng: np.random.Generator) -> None:
        """Sample the noisy item counts: approximate, to ``O(1/k)`` per item.

        Users keeping their value contribute a binomial to their own item;
        lying users are spread multinomially over the whole domain.  The
        real protocol excludes a liar's own item, so this is an
        approximation whose error is ``O(1/k)`` per item; the per-user path
        (:meth:`_add_items`) is exact and is what the equivalence tests
        compare against.
        """
        oracle = self._oracle
        kept = rng.binomial(counts, oracle.p)
        liars = int((counts - kept).sum())
        if liars:
            lies = rng.multinomial(
                liars, np.full(oracle.domain_size, 1.0 / oracle.domain_size)
            )
        else:
            lies = np.zeros(oracle.domain_size, dtype=np.int64)
        self._statistic += kept + lies


class GeneralizedRandomizedResponse(PureOracle):
    """k-ary randomized response (direct encoding).

    Report layout (:meth:`encode_batch`): ``{"values": int64 array}``, one
    reported symbol per user.  ``p`` is the probability of reporting the
    true symbol, ``q`` that of reporting a specific wrong one.

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

    # ------------------------------------------------------------------
    # User side
    # ------------------------------------------------------------------
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
