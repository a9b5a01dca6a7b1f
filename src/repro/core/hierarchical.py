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

from typing import Any, Dict, List, Optional, Sequence

import numpy as np

from repro.core.base import RangeQueryMechanism
from repro.exceptions import ConfigurationError
from repro.frequency_oracles.registry import make_oracle
from repro.hierarchy.consistency import enforce_consistency, subtree_counts
from repro.hierarchy.decomposition import (
    batched_detail_energies,
    batched_node_counts,
    batched_range_sums,
)
from repro.hierarchy.tree import DomainTree

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
        self._init_level_probabilities(level_probabilities, self._tree.height)
        # Per-level oracles: a sampled user spends the whole budget on her
        # one level; a splitting user spends an equal share on every level.
        budget, shares = self._budget, self._level_probabilities
        if budget_strategy == "splitting":
            budget, shares = budget.split(self._tree.height), np.ones(self._tree.height)
        self._init_labels(
            {
                level: make_oracle(
                    self._oracle_name,
                    epsilon=budget.epsilon,
                    domain_size=self._tree.nodes_at_level(level),
                    **self._oracle_kwargs,
                )
                for level in self._tree.levels
            },
            shares,
        )
        self._raw_levels: Optional[List[np.ndarray]] = None
        self._levels: Optional[List[np.ndarray]] = None
        self._level_prefix: Optional[Dict[int, np.ndarray]] = None

    # ------------------------------------------------------------------
    # Configuration
    # ------------------------------------------------------------------
    config_kind = "hierarchical"
    config_optional = frozenset({"name", "oracle_kwargs", "level_probabilities", "budget_strategy"})

    def config_dict(self) -> Dict[str, Any]:
        config = super().config_dict()
        config.update(
            branching=int(self.branching),
            oracle=self._oracle_name,
            consistency=bool(self._consistency),
            level_probabilities=self._level_probabilities_config,
            budget_strategy=self._budget_strategy,
            oracle_kwargs=dict(self._oracle_kwargs),
        )
        return config

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
        """Users that reported each level so far, counted since the
        last one-shot fit and cumulative across ``partial_fit`` and
        ``merge_from`` (``None`` unfitted).
        Under ``splitting`` every user reports every level."""
        return self._user_counts()

    def level_estimates(self, raw: bool = False) -> List[np.ndarray]:
        """Per-level node estimates (after consistency unless ``raw``)."""
        self._require_fitted()
        source = self._raw_levels if raw else self._levels
        return [level.copy() for level in source]

    # ------------------------------------------------------------------
    # Collection
    # ------------------------------------------------------------------
    def _merge_signature(self) -> tuple:
        return super()._merge_signature() + (
            self._oracle_name,
            self.branching,
            self._consistency,
            self._budget_strategy,
            tuple(np.round(self._level_probabilities, 12)),
            tuple(sorted(self._oracle_kwargs.items())),
        )

    def _accumulate(
        self,
        items: Optional[np.ndarray],
        counts: Optional[np.ndarray],
        rng: np.random.Generator,
        mode: str,
    ) -> None:
        """Under ``splitting`` (the ablation path) every user reports every
        level with ``eps / h`` through the same folds; ``sampling`` takes
        the shared path."""
        if self._budget_strategy == "sampling":
            super()._accumulate(items, counts, rng, mode)
            return
        if mode == "aggregate" and counts is None:
            counts = np.bincount(items, minlength=self._domain_size)
        n_users = int(items.shape[0]) if counts is None else int(counts.sum())
        self._label_user_counts += n_users
        if mode == "per_user":
            for level in self._tree.levels:
                self._fold_users(level, items, rng)
        else:
            support = np.flatnonzero(counts)
            self._fold_shares(
                (
                    (level, self._label_cells(level, support), counts[support])
                    for level in self._tree.levels
                ),
                rng,
            )

    def _label_counts_fit(self, counts: np.ndarray, n_users: Optional[int]) -> bool:
        if self._budget_strategy == "splitting":
            return all(count == n_users for count in counts.tolist())
        return super()._label_counts_fit(counts, n_users)

    def _label_cells(self, level: int, items: np.ndarray) -> np.ndarray:
        """An item's cell at a level is its tree node there."""
        return self._tree.nodes_of_items(level, items)

    def _label_chain(self) -> range:
        """A level's nodes are unions of the next level's: leaves first."""
        return range(self._tree.height - 1, -1, -1)

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
        self._frequencies = self._levels[-1][: self._domain_size]
        self._prefix = self._level_prefix[self._tree.height]

    # ------------------------------------------------------------------
    # Query answering
    # ------------------------------------------------------------------
    def answer_ranges(self, queries: np.ndarray) -> np.ndarray:
        """Vectorised workload evaluation.

        With consistency enforced, a range answer equals the sum of the leaf
        estimates it covers (the estimates are exactly additive), so large
        workloads are answered in O(1) per query from the leaf prefix sums.
        Without consistency the answers genuinely depend on the B-adic
        decomposition; all decompositions are evaluated together with
        :func:`~repro.hierarchy.decomposition.batched_range_sums`, walking
        the tree once per level for the whole workload instead of once per
        query.  (The inherited template, bound on this class too so that a
        profiler can wrap the hierarchical read path under its own name.)
        """
        return self._answer_batch(
            "answer_ranges", self._range_batch(queries), self._range_answers
        )

    def _range_answers(self, queries: np.ndarray) -> np.ndarray:
        if self._consistency:
            return super()._range_answers(queries)
        return batched_range_sums(self._tree, self._level_prefix, queries)

    def _answer_weights(self, queries: np.ndarray) -> np.ndarray:
        """Without consistency a level's weight is the range's node count
        there (eq. (1)).  With it, the fit is a least-squares projection
        with a known root, and ``H^T H`` acts on the depth-``k`` detail
        subspace as ``lambda_k = (B^(h-k+1) - 1) / (B - 1)``.  So
        ``f* = sum_k P_k H^T x / lambda_k`` and the answer ``q . f*`` is
        ``x . H g`` with ``g = sum_k P_k q / lambda_k``.  Level ``l``'s node
        sums keep only the ``k <= l`` terms, constant on its nodes, so level
        ``l`` gets ``B^(h-l) ||sum_{k<=l} P_k q / lambda_k||^2 = B^(h-l)
        sum_{k<=l} E_k / lambda_k^2``, ``E_k`` the detail energies of
        :func:`~repro.hierarchy.decomposition.batched_detail_energies`."""
        tree = self._tree
        if not self._consistency:
            return batched_node_counts(tree, queries[:, 0], queries[:, 1]).T.astype(float)
        branching, spans = self.branching, range(tree.height, 0, -1)
        energies = batched_detail_energies(branching, tree.height, queries[:, 0], queries[:, 1])
        eigenvalues = np.array([subtree_counts(span, branching) for span in spans], float)
        scales = branching ** (np.array(spans) - 1.0)
        return (scales[:, None] * np.cumsum(energies / eigenvalues[:, None] ** 2, axis=0)).T
