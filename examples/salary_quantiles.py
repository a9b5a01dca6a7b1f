"""Private salary statistics: CDF, quantiles and threshold queries.

Scenario (the paper's motivating use case of order statistics): an employer
association wants the distribution of salaries across member companies'
employees — medians, quartiles, the fraction of employees under given
thresholds — but individual salaries are sensitive.  Salaries are bucketed
into $500 bins up to $250k (a 512-bin domain), each employee reports once
under local differential privacy, and all the statistics below are derived
from the same set of reports.

Run with:  python examples/salary_quantiles.py
"""

from __future__ import annotations

import numpy as np

from repro import DECILES, mechanism_from_spec
from repro.analysis.metrics import quantile_errors

DOMAIN_SIZE = 512           # salary buckets of $500 up to $256k
BUCKET_DOLLARS = 500
N_EMPLOYEES = 300_000
EPSILON = 1.0


def synthetic_salaries(random_state: int = 11) -> np.ndarray:
    """A right-skewed salary distribution (log-normal-ish mixture)."""
    rng = np.random.default_rng(random_state)
    body = rng.lognormal(mean=np.log(90), sigma=0.45, size=int(N_EMPLOYEES * 0.97))
    tail = rng.lognormal(mean=np.log(260), sigma=0.35, size=N_EMPLOYEES - body.shape[0])
    buckets = np.clip(np.concatenate([body, tail]).astype(int), 0, DOMAIN_SIZE - 1)
    return buckets


def dollars(bucket: int) -> str:
    return f"${bucket * BUCKET_DOLLARS:,}"


def main() -> None:
    salaries = synthetic_salaries()
    counts = np.bincount(salaries, minlength=DOMAIN_SIZE)

    mechanism = mechanism_from_spec("haar", epsilon=EPSILON, domain_size=DOMAIN_SIZE)
    mechanism.fit_items(salaries, random_state=3)
    print(f"collected: {mechanism.name}, epsilon={mechanism.epsilon}, "
          f"domain_size={mechanism.domain_size}, n_users={mechanism.n_users}")

    # ------------------------------------------------------------------
    # Threshold (prefix) queries: what fraction earns below $X?
    # ------------------------------------------------------------------
    print("\nfraction of employees earning below a threshold")
    for threshold_bucket in (80, 120, 200, 320):
        estimate = mechanism.answer_prefix(threshold_bucket - 1)
        truth = counts[:threshold_bucket].sum() / counts.sum()
        print(f"  < {dollars(threshold_bucket):>9}: estimate={estimate:.4f}  truth={truth:.4f}")

    # ------------------------------------------------------------------
    # Quantiles: deciles of the salary distribution.
    # ------------------------------------------------------------------
    estimated_deciles = mechanism.quantiles(DECILES)
    errors = quantile_errors(counts, DECILES, estimated_deciles)
    print("\nestimated salary deciles")
    for phi, bucket, q_err in zip(DECILES, estimated_deciles, errors["quantile_error"]):
        print(f"  {int(phi * 100):2d}th percentile ~ {dollars(bucket):>9}  "
              f"(quantile error {q_err:.4f})")

    median_bucket = mechanism.quantile(0.5)
    print(f"\nestimated median salary: {dollars(median_bucket)}")
    print(f"average quantile error over the deciles: {errors['quantile_error'].mean():.4f}")


if __name__ == "__main__":
    main()
