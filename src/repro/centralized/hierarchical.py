"""Centralized hierarchical histogram (Hay et al. [16] / Qardaji et al. [21]).

The trusted aggregator materialises the complete B-ary tree of exact counts,
splits the privacy budget equally across the ``h`` levels (each level is a
partition of the data, so a single user affects one count per level with
sensitivity 1), adds Laplace noise of scale ``h / epsilon`` to every node,
and optionally applies the same constrained-inference post-processing used
in the local model.

This is the ``HHc_B`` column of the paper's Figure 7 (reproduced from
Qardaji et al.'s Table 3): the baseline against which the *local* behaviour
of hierarchical vs wavelet methods is contrasted.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from repro.core.base import validate_queries
from repro.exceptions import InvalidDomainError, NotFittedError
from repro.hierarchy.consistency import enforce_consistency
from repro.hierarchy.decomposition import batched_range_sums
from repro.hierarchy.tree import DomainTree
from repro.privacy.budget import PrivacyBudget
from repro.privacy.randomness import RandomState, as_generator

__all__ = ["CentralHierarchicalHistogram"]


class CentralHierarchicalHistogram:
    """Centralized-DP hierarchical histogram with optional consistency.

    Parameters
    ----------
    epsilon:
        Total privacy budget, split equally across the ``h`` tree levels.
    domain_size:
        Number of items ``D``.
    branching:
        Tree fan-out ``B``.
    consistency:
        Apply Hay et al. constrained inference after noising.
    """

    def __init__(
        self,
        epsilon: float,
        domain_size: int,
        branching: int = 16,
        consistency: bool = True,
    ) -> None:
        self._budget = PrivacyBudget(epsilon)
        if not isinstance(domain_size, (int, np.integer)) or domain_size < 2:
            raise InvalidDomainError(
                f"domain size must be an integer >= 2, got {domain_size!r}"
            )
        self._domain_size = int(domain_size)
        self._tree = DomainTree(self._domain_size, branching)
        self._consistency = bool(consistency)
        self._levels: Optional[List[np.ndarray]] = None
        self._level_prefix: Optional[dict] = None
        self._n_users: Optional[int] = None

    # ------------------------------------------------------------------
    # Configuration
    # ------------------------------------------------------------------
    @property
    def epsilon(self) -> float:
        return self._budget.epsilon

    @property
    def domain_size(self) -> int:
        return self._domain_size

    @property
    def branching(self) -> int:
        return self._tree.branching

    @property
    def height(self) -> int:
        return self._tree.height

    @property
    def consistency(self) -> bool:
        return self._consistency

    @property
    def is_fitted(self) -> bool:
        return self._levels is not None

    def per_node_noise_scale(self) -> float:
        """Laplace scale ``h / epsilon`` applied to every node count."""
        return self._tree.height / self.epsilon

    def per_node_noise_variance(self) -> float:
        """Variance ``2 (h / epsilon)^2`` of each pre-consistency node."""
        scale = self.per_node_noise_scale()
        return 2.0 * scale**2

    # ------------------------------------------------------------------
    # Release
    # ------------------------------------------------------------------
    def fit_counts(
        self, counts: np.ndarray, random_state: RandomState = None
    ) -> "CentralHierarchicalHistogram":
        """Release the noisy (and optionally consistent) tree for a dataset."""
        counts = np.asarray(counts, dtype=np.float64)
        if counts.shape != (self._domain_size,):
            raise InvalidDomainError(
                f"expected {self._domain_size} counts, got shape {counts.shape}"
            )
        rng = as_generator(random_state)
        scale = self.per_node_noise_scale()
        noisy_levels: List[np.ndarray] = []
        for level in self._tree.levels:
            node_counts = self._tree.level_histogram_from_counts(level, counts)
            noise = rng.laplace(0.0, scale, size=node_counts.shape[0])
            noisy_levels.append(node_counts + noise)
        self._n_users = int(round(counts.sum()))
        if self._consistency:
            # The total count is assumed public (standard in this line of
            # work); it anchors the top level exactly like the local case.
            levels = enforce_consistency(
                noisy_levels, self.branching, root_value=float(counts.sum())
            )
        else:
            levels = noisy_levels
        self._levels = levels
        self._level_prefix = {
            level: np.concatenate([[0.0], np.cumsum(levels[level - 1])])
            for level in self._tree.levels
        }
        return self

    # ------------------------------------------------------------------
    # Query answering
    # ------------------------------------------------------------------
    def answer_range(self, start: int, end: int, normalized: bool = True) -> float:
        """Range estimate; normalized to a population fraction by default.
        Row 0 of :meth:`answer_ranges` on the one-row batch."""
        return float(self.answer_ranges([[start, end]], normalized=normalized)[0])

    def answer_ranges(self, queries: np.ndarray, normalized: bool = True) -> np.ndarray:
        """Range estimates of an ``(n, 2)`` array of inclusive ranges, all
        B-adic decompositions evaluated together
        (:func:`~repro.hierarchy.decomposition.batched_range_sums`)."""
        if self._levels is None:
            raise NotFittedError("fit_counts must be called first")
        queries = validate_queries(queries, 2, self._domain_size)
        answers = batched_range_sums(self._tree, self._level_prefix, queries)
        if normalized:
            if not self._n_users:
                return np.zeros_like(answers)
            answers /= float(self._n_users)
        return answers
