"""Synthetic data and query workload generators used by the experiments."""

from repro.data.synthetic import (
    bimodal_probabilities,
    cauchy_probabilities,
    clustered_grid_points,
    expected_counts,
    gaussian_probabilities,
    sample_counts,
    sample_items,
    uniform_probabilities,
    zipf_probabilities,
)
from repro.data.workloads import (
    BoxWorkload,
    RangeWorkload,
    all_range_queries,
    evaluate_exact,
    evaluate_exact_boxes,
    fixed_length_queries,
    prefix_queries,
    random_boxes,
    random_range_queries,
    sampled_range_queries,
)

__all__ = [
    "cauchy_probabilities",
    "zipf_probabilities",
    "gaussian_probabilities",
    "uniform_probabilities",
    "bimodal_probabilities",
    "sample_counts",
    "sample_items",
    "clustered_grid_points",
    "expected_counts",
    "BoxWorkload",
    "RangeWorkload",
    "all_range_queries",
    "sampled_range_queries",
    "fixed_length_queries",
    "prefix_queries",
    "random_range_queries",
    "random_boxes",
    "evaluate_exact",
    "evaluate_exact_boxes",
]
