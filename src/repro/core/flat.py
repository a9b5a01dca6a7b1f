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

from typing import Any, Dict, Optional

import numpy as np

from repro.core.base import RangeQueryMechanism
from repro.frequency_oracles.registry import make_oracle

__all__ = ["FlatMechanism"]

#: The one label: the leaf level of a ``B = D`` tree.
_LEAVES = 1


class FlatMechanism(RangeQueryMechanism):
    """Sum-of-point-queries range mechanism.

    Every user reports her item through one frequency oracle over the
    whole domain: the one-label case of the collection skeleton, with no
    label draw.

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
        self._init_labels({_LEAVES: self._oracle})

    config_kind = "flat"

    def config_dict(self) -> Dict[str, Any]:
        config = super().config_dict()
        config["oracle"] = self._oracle.name
        config["oracle_kwargs"] = dict(self._oracle_kwargs)
        return config

    @property
    def oracle(self):
        """The underlying frequency oracle instance."""
        return self._oracle

    # ------------------------------------------------------------------
    # Collection
    # ------------------------------------------------------------------
    def _draw_labels(self, rng: np.random.Generator, n_users: int) -> np.ndarray:
        """Every user reports the one label: no draw."""
        return np.zeros(n_users, dtype=np.int64)

    def _refresh_estimates(self) -> None:
        self._frequencies = np.asarray(
            self._accumulators[_LEAVES].estimate(), dtype=np.float64
        )
        self._prefix = np.concatenate([[0.0], np.cumsum(self._frequencies)])

    def _merge_signature(self) -> tuple:
        return super()._merge_signature() + (self._oracle.merge_signature(),)

    # ------------------------------------------------------------------
    # Query answering
    # ------------------------------------------------------------------
    def _answer_weights(self, queries: np.ndarray) -> np.ndarray:
        """A range sums ``r`` point estimates of the one label: ``r * V_F``
        (Fact 1)."""
        return (queries[:, 1:] - queries[:, :1] + 1).astype(np.float64)
