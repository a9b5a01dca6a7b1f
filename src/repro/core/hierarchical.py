"""Hierarchical histogram mechanisms (``HH_B``, Sections 4.3–4.5).

Protocol summary (Section 4.4):

* **Input transformation** — each user views her item as a weight-one path
  from a leaf to the root of a complete B-ary tree over the domain.
* **Perturbation** — the user samples one tree level (uniformly, the
  variance-optimal choice proved in Lemma 4.4), forms the one-hot vector
  over that level's nodes and perturbs it with a frequency oracle
  (OUE / HRR / OLH — giving ``TreeOUE``, ``TreeHRR``, ``TreeOLH``).
* **Aggregation** — the aggregator reconstructs, per level, an unbiased
  estimate of the fraction of the population in each node.
* **Consistency (optional, Section 4.5)** — constrained inference makes
  parent estimates equal the sum of their children and provably shrinks the
  variance by at least ``B/(B+1)`` (the ``CI`` suffix in the paper, e.g.
  ``TreeOUECI`` / ``HHc_B``).
* **Query answering** — a range is decomposed into at most
  ``2(B-1) log_B D`` B-adic nodes whose estimates are summed.

The *budget-splitting* strategy (each user reports at every level with
``epsilon / h``) is also implemented, purely to support the ablation that
justifies the paper's choice of level *sampling*.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.core.base import RangeQueryMechanism, group_by_label
from repro.exceptions import ConfigurationError
from repro.frequency_oracles.accumulators import OracleAccumulator
from repro.frequency_oracles.registry import make_oracle
from repro.hierarchy.consistency import enforce_consistency
from repro.hierarchy.decomposition import batched_range_sums, decompose_to_runs
from repro.hierarchy.tree import DomainTree
from repro.privacy.randomness import categorical

__all__ = ["HierarchicalHistogramMechanism"]

_BUDGET_STRATEGIES = ("sampling", "splitting")


class HierarchicalHistogramMechanism(RangeQueryMechanism):
    """The ``HH_B`` framework instantiated with a pluggable frequency oracle.

    Parameters
    ----------
    epsilon:
        Per-user privacy budget.
    domain_size:
        Number of items ``D``.
    branching:
        Tree fan-out ``B >= 2``.  The paper's analysis favours ``B = 4``–``5``
        without consistency and ``B = 8``–``9`` with it.
    oracle:
        Frequency oracle name used at every level (``"oue"``, ``"hrr"``,
        ``"olh"``, ...).
    consistency:
        Apply constrained inference after aggregation (the ``CI`` variants).
    level_probabilities:
        Probability of a user sampling each level (length ``h``); defaults
        to uniform, the optimal choice of Lemma 4.4.
    budget_strategy:
        ``"sampling"`` (default, each user spends the full budget on one
        sampled level) or ``"splitting"`` (every user reports every level
        with ``epsilon / h`` — implemented for the ablation benchmark only).
    oracle_kwargs:
        Extra keyword arguments forwarded to every per-level oracle.
    """

    def __init__(
        self,
        epsilon: float,
        domain_size: int,
        branching: int = 4,
        oracle: str = "oue",
        consistency: bool = True,
        level_probabilities: Optional[Sequence[float]] = None,
        budget_strategy: str = "sampling",
        name: Optional[str] = None,
        **oracle_kwargs,
    ) -> None:
        if budget_strategy not in _BUDGET_STRATEGIES:
            raise ConfigurationError(
                f"budget_strategy must be one of {_BUDGET_STRATEGIES}, got {budget_strategy!r}"
            )
        default_name = f"Tree{oracle.upper()}{'CI' if consistency else ''}_B{branching}"
        super().__init__(epsilon, domain_size, name=name or default_name)
        self._tree = DomainTree(domain_size, branching)
        self._oracle_name = str(oracle)
        self._oracle_kwargs = dict(oracle_kwargs)
        self._consistency = bool(consistency)
        self._budget_strategy = budget_strategy
        self._level_probabilities = self._normalize_level_probabilities(level_probabilities)
        # Per-level oracles: the report budget depends on the strategy.
        per_level_epsilon = (
            self.epsilon
            if budget_strategy == "sampling"
            else self.epsilon / self._tree.height
        )
        self._oracles = {
            level: make_oracle(
                self._oracle_name,
                epsilon=per_level_epsilon,
                domain_size=self._tree.nodes_at_level(level),
                **self._oracle_kwargs,
            )
            for level in self._tree.levels
        }
        self._accumulators: Optional[Dict[int, OracleAccumulator]] = None
        self._raw_levels: Optional[List[np.ndarray]] = None
        self._levels: Optional[List[np.ndarray]] = None
        self._level_prefix: Optional[Dict[int, np.ndarray]] = None
        self._level_user_counts: Optional[np.ndarray] = None

    # ------------------------------------------------------------------
    # Configuration
    # ------------------------------------------------------------------
    @property
    def tree(self) -> DomainTree:
        """The domain tree geometry."""
        return self._tree

    @property
    def branching(self) -> int:
        """Tree fan-out ``B``."""
        return self._tree.branching

    @property
    def consistency(self) -> bool:
        """Whether constrained inference is applied after aggregation."""
        return self._consistency

    @property
    def budget_strategy(self) -> str:
        """``"sampling"`` or ``"splitting"``."""
        return self._budget_strategy

    @property
    def level_probabilities(self) -> np.ndarray:
        """Probability of a user sampling each level (length ``h``)."""
        return self._level_probabilities.copy()

    @property
    def level_user_counts(self) -> Optional[np.ndarray]:
        """Number of users that reported each level in the last collection."""
        return None if self._level_user_counts is None else self._level_user_counts.copy()

    def level_estimates(self, raw: bool = False) -> List[np.ndarray]:
        """Per-level node estimates (after consistency unless ``raw``)."""
        self._require_fitted()
        source = self._raw_levels if raw else self._levels
        return [level.copy() for level in source]

    def _normalize_level_probabilities(
        self, probabilities: Optional[Sequence[float]]
    ) -> np.ndarray:
        height = self._tree.height
        if probabilities is None:
            return np.full(height, 1.0 / height)
        array = np.asarray(probabilities, dtype=np.float64)
        if array.shape != (height,):
            raise ConfigurationError(
                f"level_probabilities must have {height} entries, got shape {array.shape}"
            )
        if not np.all(np.isfinite(array)) or np.any(array < 0) or array.sum() <= 0:
            raise ConfigurationError(
                "level_probabilities must be finite, non-negative and sum > 0"
            )
        return array / array.sum()

    # ------------------------------------------------------------------
    # Collection
    # ------------------------------------------------------------------
    def _reset_accumulators(self) -> None:
        self._accumulators = {
            level: self._oracles[level].accumulator() for level in self._tree.levels
        }
        self._level_user_counts = np.zeros(self._tree.height, dtype=np.int64)

    def _collect(
        self,
        items: Optional[np.ndarray],
        counts: np.ndarray,
        rng: np.random.Generator,
        mode: str,
    ) -> None:
        self._reset_accumulators()
        self._accumulate_batch(items, counts, rng, mode)
        self._mark_dirty()

    def _partial_collect(
        self,
        items: np.ndarray,
        counts: np.ndarray,
        rng: np.random.Generator,
        mode: str,
    ) -> None:
        if self._accumulators is None:
            self._reset_accumulators()
        self._accumulate_batch(items, counts, rng, mode)

    def _merge_state(self, other: "HierarchicalHistogramMechanism") -> None:
        if self._accumulators is None:
            self._reset_accumulators()
        for level in self._tree.levels:
            self._accumulators[level].merge(other._accumulators[level])
        self._level_user_counts += other._level_user_counts

    def _merge_signature(self) -> tuple:
        return super()._merge_signature() + (
            self._oracle_name,
            self.branching,
            self._consistency,
            self._budget_strategy,
            tuple(np.round(self._level_probabilities, 12)),
            tuple(sorted(self._oracle_kwargs.items())),
        )

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------
    def state_dict(self) -> dict:
        return self._pack_level_state(self._accumulators, self._level_user_counts)

    def load_state_dict(self, state: dict) -> "HierarchicalHistogramMechanism":
        n_users, accumulators, counts = self._unpack_level_state(
            state, self._tree.levels, lambda level: self._oracles[level].accumulator()
        )
        if accumulators is not None:
            self._accumulators = accumulators
            self._level_user_counts = counts
            self._mark_dirty()
        else:
            self._accumulators = None
            self._raw_levels = None
            self._levels = None
            self._level_prefix = None
            self._level_user_counts = None
            self._mark_clean()
        self._n_users = n_users
        return self

    def _accumulate_batch(
        self,
        items: Optional[np.ndarray],
        counts: np.ndarray,
        rng: np.random.Generator,
        mode: str,
    ) -> None:
        if self._budget_strategy == "splitting":
            self._accumulate_splitting(items, counts, rng, mode)
        elif mode == "per_user":
            self._accumulate_sampling_per_user(items, rng)
        else:
            self._accumulate_sampling_aggregate(counts, rng)

    def _accumulate_sampling_per_user(
        self, items: np.ndarray, rng: np.random.Generator
    ) -> None:
        """Each user samples one level and runs the real local protocol.

        The level draw is :func:`~repro.privacy.randomness.categorical`
        (``rng.choice``'s values and stream), and
        :func:`~repro.core.base.group_by_label` groups the users with one
        stable sort.  Each level's users go through the accumulator's
        per-user hook (:meth:`~repro.frequency_oracles.accumulators.OracleAccumulator._add_items`):
        the report round trip for OUE/OLH/GRR, a direct fold for HRR.
        Only levels that actually received users are visited (they are
        also the only ones that consume protocol randomness, so the skip
        changes no random stream).
        """
        height = self._tree.height
        assignments = categorical(rng, self._level_probabilities, items.shape[0])
        counts, ordered, groups = group_by_label(items, assignments, height)
        self._level_user_counts += counts
        for level_index, users in groups:
            level = level_index + 1
            nodes = self._tree.nodes_of_items(level, ordered[users])
            self._accumulators[level]._add_items(nodes, rng)

    def _accumulate_sampling_aggregate(
        self, counts: np.ndarray, rng: np.random.Generator
    ) -> None:
        """Aggregate-mode collection: partition counts across levels exactly.

        Each item's count is split across the ``h`` levels with a
        multinomial (realised as sequential binomial thinning), which is the
        exact distribution of how the level-sampling protocol partitions the
        population; multinomial splits of separate batches add up to the
        split of the union, which is what makes this path incremental.  Each
        level's node counts then drive the oracle accumulator's fast
        simulated-aggregate path.

        The thinning and the node histograms operate on the batch's
        *support* (items with non-zero count) only — a small streaming batch
        touches O(nnz · h) entries instead of O(D · h), leaving the
        per-level noise sampling inside ``add_counts`` as the only
        full-domain work.
        """
        height = self._tree.height
        support = np.flatnonzero(counts)
        remaining = counts[support].astype(np.int64)  # fancy indexing copies
        remaining_probability = 1.0
        for level in self._tree.levels:
            probability = self._level_probabilities[level - 1]
            if level == height:
                level_counts = remaining
            else:
                share = 0.0 if remaining_probability <= 0 else min(
                    1.0, probability / remaining_probability
                )
                level_counts = rng.binomial(remaining, share)
                remaining = remaining - level_counts
                remaining_probability -= probability
            batch_users = int(level_counts.sum())
            self._level_user_counts[level - 1] += batch_users
            if batch_users == 0:
                continue
            node_counts = np.bincount(
                self._tree.nodes_of_items(level, support),
                weights=level_counts,
                minlength=self._tree.nodes_at_level(level),
            ).astype(np.int64)
            self._accumulators[level].add_counts(node_counts, rng)

    def _accumulate_splitting(
        self,
        items: Optional[np.ndarray],
        counts: np.ndarray,
        rng: np.random.Generator,
        mode: str,
    ) -> None:
        """Ablation path: every user reports every level with ``eps / h``."""
        n_users = int(items.shape[0]) if counts is None else int(counts.sum())
        self._level_user_counts += n_users
        for level in self._tree.levels:
            if mode == "per_user":
                nodes = self._tree.nodes_of_items(level, items)
                self._accumulators[level]._add_items(nodes, rng)
            else:
                node_counts = self._tree.level_histogram_from_counts(level, counts)
                self._accumulators[level].add_counts(node_counts.astype(np.int64), rng)

    def _refresh_estimates(self) -> None:
        raw = [
            np.asarray(self._accumulators[level].estimate(), dtype=np.float64)
            for level in self._tree.levels
        ]
        self._raw_levels = raw
        if self._consistency:
            self._levels = enforce_consistency(raw, self.branching, root_value=1.0)
        else:
            self._levels = [level.copy() for level in raw]
        self._level_prefix = {
            level: np.concatenate([[0.0], np.cumsum(self._levels[level - 1])])
            for level in self._tree.levels
        }

    # ------------------------------------------------------------------
    # Query answering
    # ------------------------------------------------------------------
    def _answer_range(self, start: int, end: int) -> float:
        runs = decompose_to_runs(self._tree, start, end)
        answer = 0.0
        for run in runs:
            prefix = self._level_prefix[run.level]
            answer += prefix[run.last + 1] - prefix[run.first]
        return float(answer)

    def answer_ranges(self, queries: np.ndarray) -> np.ndarray:
        """Vectorised workload evaluation.

        With consistency enforced, a range answer equals the sum of the leaf
        estimates it covers (the estimates are exactly additive), so large
        workloads are answered in O(1) per query from the leaf prefix sums.
        Without consistency the answers genuinely depend on the B-adic
        decomposition; all decompositions are evaluated together with
        :func:`~repro.hierarchy.decomposition.batched_range_sums`, walking
        the tree once per level for the whole workload instead of once per
        query.
        """
        return self._answer_batch(
            "answer_ranges", self._range_batch(queries), self._batched_ranges
        )

    def _batched_ranges(self, queries: np.ndarray) -> np.ndarray:
        if self._consistency:
            return self._prefix_ranges(queries, self._level_prefix[self._tree.height])
        if not self._ranges_in_domain(queries):
            return self._answer_range_rows(queries)
        return batched_range_sums(self._tree, self._level_prefix, queries)

    def estimate_frequencies(self) -> np.ndarray:
        """Leaf-level estimates restricted to the original domain."""
        self._require_fitted()
        leaves = self._levels[-1]
        return leaves[: self._domain_size].copy()

    def estimate_cdf(self) -> np.ndarray:
        """The materialized leaf prefix sums, sliced to the original domain.

        Bit-identical to ``cumsum(estimate_frequencies())`` (a prefix of a
        sequential cumulative sum equals the cumulative sum of the prefix)
        but free: the leaf prefix array already exists for range answering.
        """
        self._require_fitted()
        leaf_prefix = self._level_prefix[self._tree.height]
        return leaf_prefix[1 : self._domain_size + 1].copy()

    def per_query_variance_bound(self, range_length: int) -> float:
        """The theoretical bound of eq. (1) / Section 4.5 for this instance."""
        from repro.analysis.variance import (
            hh_consistent_range_variance,
            hh_range_variance,
        )

        self._require_fitted()
        bound = hh_consistent_range_variance if self._consistency else hh_range_variance
        return bound(
            epsilon=self.epsilon,
            n_users=self.n_users,
            range_length=range_length,
            domain_size=max(2, self._domain_size),
            branching=self.branching,
        )
