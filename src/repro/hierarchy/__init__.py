"""Hierarchy substrate for the hierarchical histogram mechanisms.

* :mod:`repro.hierarchy.tree` — a complete B-ary tree laid over the item
  domain (Section 4.3 of the paper): level layouts, node ranges and the
  leaf-to-root path of an individual item.
* :mod:`repro.hierarchy.decomposition` — the one B-adic decomposer
  (Facts 2 and 3): a whole batch of range queries becomes per-level
  contiguous node runs (:func:`batched_axis_runs`), evaluated with
  per-level prefix sums (:func:`batched_range_sums`) or combined per axis
  into box products.  A single query is a one-row batch.  Each range's
  detail energies (:func:`batched_detail_energies`) give answer variances.
* :mod:`repro.hierarchy.consistency` — the constrained-inference
  post-processing of Section 4.5 (weighted averaging followed by mean
  consistency), plus an exact least-squares reference implementation used to
  validate it.
"""

from repro.hierarchy.consistency import (
    enforce_consistency,
    least_squares_consistency,
    subtree_counts,
)
from repro.hierarchy.tree import DomainTree

__all__ = [
    "DomainTree",
    "enforce_consistency",
    "least_squares_consistency",
    "subtree_counts",
]
