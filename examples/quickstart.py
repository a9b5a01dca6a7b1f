"""Quickstart: answer range queries over a private population.

Scenario: an app wants to know how its users' ages (bucketed into 1024
fine-grained bins) are distributed — what fraction falls in any interval,
what the median is — without ever seeing an individual's value.  Each user
sends a single locally-randomized report; the aggregator reconstructs the
answers.

Run with:  python examples/quickstart.py
"""

from __future__ import annotations

import numpy as np

from repro import DECILES, mechanism_from_spec
from repro.data import cauchy_probabilities, sample_items


def main() -> None:
    rng_seed = 7
    domain_size = 1024          # discretised attribute (e.g. age in fine bins)
    n_users = 200_000           # population size
    epsilon = 1.1               # the paper's default privacy level (e^eps = 3)

    # ------------------------------------------------------------------
    # 1. A synthetic population: each user holds one private item.
    # ------------------------------------------------------------------
    probabilities = cauchy_probabilities(domain_size, center_fraction=0.4)
    items = sample_items(probabilities, n_users, random_state=rng_seed)

    # ------------------------------------------------------------------
    # 2. Collect: every user submits one epsilon-LDP report.  "hhc_4" is the
    #    consistent hierarchical histogram with branching factor 4; try
    #    "haar" (the wavelet method) or "flat_oue" to compare.
    # ------------------------------------------------------------------
    mechanism = mechanism_from_spec("hhc_4", epsilon=epsilon, domain_size=domain_size)
    mechanism.fit_items(items, random_state=rng_seed)
    print(f"collected: {mechanism.name}, epsilon={mechanism.epsilon}, "
          f"domain_size={mechanism.domain_size}, n_users={mechanism.n_users}")

    # ------------------------------------------------------------------
    # 3. Analyse: range queries, CDF, quantiles — all from the same reports.
    # ------------------------------------------------------------------
    queries = [(0, 255), (256, 511), (300, 700), (900, 1023)]
    print("\nrange query estimates vs ground truth")
    for start, end in queries:
        estimate = mechanism.answer_range(start, end)
        truth = np.mean((items >= start) & (items <= end))
        print(f"  [{start:4d}, {end:4d}]  estimate={estimate:.4f}  truth={truth:.4f}  "
              f"error={abs(estimate - truth):.4f}")

    deciles = mechanism.quantiles(DECILES)
    true_cdf = np.cumsum(np.bincount(items, minlength=domain_size)) / n_users
    true_deciles = np.searchsorted(true_cdf, np.arange(0.1, 1.0, 0.1))
    print("\ndecile estimates (item index)")
    print("  estimated:", deciles)
    print("  true:     ", [int(d) for d in true_deciles])
    print("\nestimated median:", mechanism.quantile(0.5), " true median:", int(true_deciles[4]))


if __name__ == "__main__":
    main()
