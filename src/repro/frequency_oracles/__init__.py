"""Frequency oracles (LDP point-query primitives), Section 3.2 of the paper.

Every oracle implements the same two-sided protocol:

* the **user side** (:meth:`~repro.frequency_oracles.base.FrequencyOracle.encode_batch`)
  turns each user's private item into a randomized report satisfying
  ``epsilon``-LDP;
* the **aggregator side**
  (:meth:`~repro.frequency_oracles.base.FrequencyOracle.accumulator`) is a
  mergeable :class:`~repro.frequency_oracles.accumulators.OracleAccumulator`
  over the oracle's sufficient statistic: it collects the reports, and its
  ``estimate`` produces an unbiased estimate of the fraction of users
  holding each item.

Implemented oracles:

============================  =============================================
:class:`GeneralizedRandomizedResponse`  k-ary randomized response (k-RR)
:class:`SymmetricUnaryEncoding`         basic RAPPOR (SUE)
:class:`OptimizedUnaryEncoding`         OUE [Wang et al. 2017]
:class:`OptimalLocalHashing`            OLH [Wang et al. 2017]
:class:`HadamardRandomizedResponse`     HRR [Cormode et al. 2018; Nguyen et al. 2016]
============================  =============================================

Every accumulator also provides ``add_counts``, a statistically equivalent
fast path that samples the aggregator's noisy view directly from the true
per-item counts — the trick the paper itself uses to scale OUE to very large
domains.  Accumulators merge, so the same statistic serves one-shot,
incremental and sharded collection.
"""

from repro.frequency_oracles.accumulators import OracleAccumulator, SupportAccumulator
from repro.frequency_oracles.base import FrequencyOracle, OracleReports, PureOracle
from repro.frequency_oracles.hadamard import HadamardAccumulator, HadamardRandomizedResponse
from repro.frequency_oracles.local_hashing import (
    LocalHashingAccumulator,
    OptimalLocalHashing,
    UniversalHashFamily,
)
from repro.frequency_oracles.randomized_response import (
    DirectEncodingAccumulator,
    GeneralizedRandomizedResponse,
)
from repro.frequency_oracles.registry import available_oracles, make_oracle
from repro.frequency_oracles.unary import (
    OptimizedUnaryEncoding,
    SymmetricUnaryEncoding,
    UnaryAccumulator,
)

__all__ = [
    "FrequencyOracle",
    "OracleReports",
    "OracleAccumulator",
    "PureOracle",
    "SupportAccumulator",
    "GeneralizedRandomizedResponse",
    "DirectEncodingAccumulator",
    "SymmetricUnaryEncoding",
    "OptimizedUnaryEncoding",
    "UnaryAccumulator",
    "OptimalLocalHashing",
    "LocalHashingAccumulator",
    "UniversalHashFamily",
    "HadamardRandomizedResponse",
    "HadamardAccumulator",
    "make_oracle",
    "available_oracles",
]
