"""repro — Answering Range Queries Under Local Differential Privacy.

A complete, laptop-scale reproduction of Cormode, Kulkarni and Srivastava,
*"Answering Range Queries Under Local Differential Privacy"* (SIGMOD 2019 /
arXiv:1812.10942): the LDP frequency-oracle substrate, the flat /
hierarchical-histogram / Haar-wavelet range-query mechanisms, prefix and
quantile queries, the centralized baselines used for comparison, synthetic
workloads, and the experiment harness that regenerates every table and
figure of the paper's evaluation.

Quickstart
----------
>>> from repro import mechanism_from_spec
>>> from repro.data import cauchy_probabilities, sample_items
>>> items = sample_items(cauchy_probabilities(1024), n_users=200_000, random_state=0)
>>> mechanism = mechanism_from_spec("hhc_4", epsilon=1.1, domain_size=1024)
>>> _ = mechanism.fit_items(items, random_state=0)
>>> answer = mechanism.answer_range(100, 500)
>>> median = mechanism.quantile(0.5)
"""

from repro.core.base import RangeQueryMechanism
from repro.core.factory import mechanism_from_spec
from repro.core.flat import FlatMechanism
from repro.core.hierarchical import HierarchicalHistogramMechanism
from repro.core.multidim import HierarchicalGrid2D, HierarchicalGridND
from repro.core.quantiles import DECILES, estimate_cdf, estimate_quantiles
from repro.core.wavelet import HaarWaveletMechanism
from repro.exceptions import (
    ConfigurationError,
    InvalidDomainError,
    InvalidPrivacyBudgetError,
    InvalidQueryError,
    NotFittedError,
    ProtocolError,
    ReproError,
)
from repro.planner import Plan, PlanCandidate, plan
from repro.privacy.budget import PrivacyBudget
from repro import persist
from repro.service import IngestionService, run_ingestion
from repro.streaming import ShardedCollector

__version__ = "1.1.0"

__all__ = [
    "__version__",
    # Core mechanisms
    "RangeQueryMechanism",
    "FlatMechanism",
    "HierarchicalHistogramMechanism",
    "HaarWaveletMechanism",
    "HierarchicalGrid2D",
    "HierarchicalGridND",
    "ShardedCollector",
    "mechanism_from_spec",
    # Planner
    "Plan",
    "PlanCandidate",
    "plan",
    # Streaming / service / persistence
    "IngestionService",
    "run_ingestion",
    "persist",
    # Quantiles
    "DECILES",
    "estimate_cdf",
    "estimate_quantiles",
    # Privacy
    "PrivacyBudget",
    # Errors
    "ReproError",
    "InvalidPrivacyBudgetError",
    "InvalidDomainError",
    "InvalidQueryError",
    "NotFittedError",
    "ProtocolError",
    "ConfigurationError",
]
