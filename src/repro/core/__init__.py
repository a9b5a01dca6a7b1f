"""Core LDP range-query mechanisms (the paper's primary contribution).

* :class:`FlatMechanism` — sums per-item frequency-oracle estimates
  (Section 4.2); the baseline whose error grows linearly with range length.
* :class:`HierarchicalHistogramMechanism` — the ``HH_B`` framework of
  Sections 4.3–4.5: every user samples one level of a complete B-ary tree,
  reports her node at that level through a frequency oracle, and the
  aggregator optionally applies constrained inference (consistency).
* :class:`HaarWaveletMechanism` — the ``HaarHRR`` method of Section 4.6:
  users perturb one Haar coefficient level with Hadamard randomized
  response.
* :mod:`repro.core.quantiles` — prefix/CDF/quantile estimation on top of any
  mechanism (Section 4.7).
* :class:`HierarchicalGridND` — the multi-dimensional extension sketched
  in Section 6: box queries over a ``[D]^d`` grid.
  :class:`HierarchicalGrid2D` is its ``d = 2`` case under the name that
  ``grid2d`` snapshots record.
* :func:`mechanism_from_spec` — builds any of the above from a paper-style
  spec string (``"hhc_4"``, ``"haar"``, ``"grid3d_2"``, ...).

The fitted mechanism is the one object a caller holds: it collects
(``fit_items`` / ``partial_fit`` / ``fit_points``), merges shards
(``merge_from``) and answers ranges, boxes, prefixes and quantiles.
"""

from repro.core.base import RangeQueryMechanism
from repro.core.factory import mechanism_from_spec
from repro.core.flat import FlatMechanism
from repro.core.hierarchical import HierarchicalHistogramMechanism
from repro.core.multidim import HierarchicalGrid2D, HierarchicalGridND
from repro.core.quantiles import estimate_cdf, estimate_quantiles
from repro.core.wavelet import HaarWaveletMechanism

__all__ = [
    "RangeQueryMechanism",
    "FlatMechanism",
    "HierarchicalHistogramMechanism",
    "HaarWaveletMechanism",
    "HierarchicalGrid2D",
    "HierarchicalGridND",
    "mechanism_from_spec",
    "estimate_cdf",
    "estimate_quantiles",
]
