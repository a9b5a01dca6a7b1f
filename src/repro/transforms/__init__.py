"""Linear transforms used by the LDP range-query mechanisms.

* :mod:`repro.transforms.hadamard` — the (scaled) Walsh–Hadamard transform
  underlying Hadamard Randomized Response (Section 3.2 of the paper);
* :mod:`repro.transforms.haar` — the Discrete Haar wavelet Transform (DHT)
  used by the ``HaarHRR`` mechanism (Section 4.6).

The B-adic decomposition of ranges (Facts 2 and 3, Section 4.3) lives in
:mod:`repro.hierarchy.decomposition`, batched over whole workloads.
"""

from repro.transforms.hadamard import (
    fast_walsh_hadamard_transform,
    hadamard_entry,
    hadamard_entries,
    hadamard_matrix,
    inverse_fast_walsh_hadamard_transform,
)
from repro.transforms.haar import (
    haar_coefficient_index,
    haar_forward,
    haar_inverse,
    haar_level_slices,
    haar_matrix,
    haar_range_weights,
)

__all__ = [
    "fast_walsh_hadamard_transform",
    "inverse_fast_walsh_hadamard_transform",
    "hadamard_entry",
    "hadamard_entries",
    "hadamard_matrix",
    "haar_forward",
    "haar_inverse",
    "haar_matrix",
    "haar_level_slices",
    "haar_coefficient_index",
    "haar_range_weights",
]
