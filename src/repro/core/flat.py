"""Flat range-query mechanism (Section 4.2).

The simplest approach: estimate the frequency of every individual item with
one frequency oracle and answer a range by summing the point estimates.
Fact 1 of the paper shows the variance grows linearly with the range length
(``r * V_F``), which is why the paper develops the hierarchical and wavelet
mechanisms — but the flat method remains the most accurate choice for point
queries and very short ranges, and the experiments plot it as the ``B = D``
end of the branching-factor axis.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.core.base import RangeQueryMechanism
from repro.frequency_oracles.accumulators import OracleAccumulator
from repro.frequency_oracles.registry import make_oracle

__all__ = ["FlatMechanism"]


class FlatMechanism(RangeQueryMechanism):
    """Sum-of-point-queries range mechanism.

    Parameters
    ----------
    epsilon:
        Per-user privacy budget.
    domain_size:
        Number of items ``D``.
    oracle:
        Name of the frequency oracle used for the point estimates
        (``"oue"`` by default, matching the paper's flat baseline).
    oracle_kwargs:
        Extra keyword arguments forwarded to the oracle constructor.
    """

    def __init__(
        self,
        epsilon: float,
        domain_size: int,
        oracle: str = "oue",
        name: Optional[str] = None,
        **oracle_kwargs,
    ) -> None:
        super().__init__(epsilon, domain_size, name=name or f"Flat{oracle.upper()}")
        self._oracle_kwargs = dict(oracle_kwargs)
        self._oracle = make_oracle(oracle, epsilon=epsilon, domain_size=domain_size, **oracle_kwargs)
        self._accumulator: Optional[OracleAccumulator] = None
        self._frequencies: Optional[np.ndarray] = None
        self._prefix: Optional[np.ndarray] = None

    @property
    def oracle(self):
        """The underlying frequency oracle instance."""
        return self._oracle

    # ------------------------------------------------------------------
    # Collection
    # ------------------------------------------------------------------
    def _collect(
        self,
        items: Optional[np.ndarray],
        counts: np.ndarray,
        rng: np.random.Generator,
        mode: str,
    ) -> None:
        self._accumulator = self._oracle.accumulator()
        self._accumulate_batch(items, counts, rng, mode)
        self._mark_dirty()

    def _partial_collect(
        self,
        items: np.ndarray,
        counts: np.ndarray,
        rng: np.random.Generator,
        mode: str,
    ) -> None:
        if self._accumulator is None:
            self._accumulator = self._oracle.accumulator()
        self._accumulate_batch(items, counts, rng, mode)

    def _accumulate_batch(
        self,
        items: Optional[np.ndarray],
        counts: np.ndarray,
        rng: np.random.Generator,
        mode: str,
    ) -> None:
        if mode == "per_user":
            self._accumulator._add_items(items, rng)
        else:
            self._accumulator.add_counts(counts, rng)

    def _refresh_estimates(self) -> None:
        self._frequencies = np.asarray(self._accumulator.estimate(), dtype=np.float64)
        self._prefix = np.concatenate([[0.0], np.cumsum(self._frequencies)])

    def _merge_state(self, other: "FlatMechanism") -> None:
        if self._accumulator is None:
            self._accumulator = self._oracle.accumulator()
        self._accumulator.merge(other._accumulator)

    def _merge_signature(self) -> tuple:
        return super()._merge_signature() + (self._oracle.merge_signature(),)

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------
    def state_dict(self) -> dict:
        state = {"n_users": self._pack_n_users()}
        if self._accumulator is not None:
            state["accumulator"] = self._accumulator.state_dict()
        return state

    def load_state_dict(self, state: dict) -> "FlatMechanism":
        n_users = self._unpack_n_users(state)
        if "accumulator" in state:
            self._accumulator = self._oracle.restore_accumulator(state["accumulator"])
            self._mark_dirty()
        else:
            self._accumulator = None
            self._frequencies = None
            self._prefix = None
            self._mark_clean()
        self._n_users = n_users
        return self

    # ------------------------------------------------------------------
    # Query answering
    # ------------------------------------------------------------------
    def _range_answers(self, queries: np.ndarray) -> np.ndarray:
        """Differences of the materialized prefix sums (O(1) per query)."""
        return self._prefix_ranges(queries, self._prefix)

    def estimate_frequencies(self) -> np.ndarray:
        """Per-item estimates straight from the frequency oracle."""
        self._require_fitted()
        return self._frequencies.copy()

    def estimate_cdf(self) -> np.ndarray:
        """The materialized prefix sums, reused instead of re-deriving the
        CDF from per-item frequencies (bit-identical, zero extra work)."""
        self._require_fitted()
        return self._prefix[1:].copy()

    def per_query_variance(self, range_length: int) -> float:
        """Theoretical variance ``r * V_F`` of a length-``r`` query (Fact 1)."""
        self._require_fitted()
        return range_length * self._oracle.theoretical_variance(self.n_users)
