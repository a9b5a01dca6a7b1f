"""Prefix, CDF and quantile estimation (Section 4.7).

Prefix queries are range queries anchored at the start of the domain, and
quantiles are found by (binary) searching for the smallest prefix whose
estimated mass reaches the target ``phi``.  Any fitted
:class:`~repro.core.base.RangeQueryMechanism` can serve as the underlying
prefix oracle; the helpers here add the two practical refinements used by
the experiments:

* the estimated CDF is made monotone with a running maximum before the
  quantile search (noise can make raw prefix estimates locally decreasing,
  which would otherwise make binary search order-dependent);
* a whole batch of quantiles (the deciles of Section 5.5) is answered from a
  single CDF reconstruction instead of ``O(log D)`` prefix queries each.
"""

from __future__ import annotations

from typing import Any, List, Sequence

import numpy as np

from repro.core.base import RangeQueryMechanism
from repro.exceptions import InvalidQueryError

__all__ = [
    "estimate_cdf",
    "monotone_cdf",
    "estimate_quantiles",
    "estimate_median",
    "quantile_targets",
    "DECILES",
]

#: The decile targets evaluated in Section 5.5 of the paper.
DECILES = tuple(round(0.1 * k, 1) for k in range(1, 10))


def estimate_cdf(mechanism: RangeQueryMechanism, monotone: bool = True) -> np.ndarray:
    """Estimated cumulative distribution ``F(b)`` for every item ``b``.

    Parameters
    ----------
    mechanism:
        A fitted range-query mechanism.
    monotone:
        Clamp the estimate to be non-decreasing and within ``[0, 1]`` (a
        benign post-processing step that cannot hurt accuracy and never
        touches the privacy guarantee, since it only processes released
        estimates).
    """
    cdf = mechanism.estimate_cdf()
    if monotone:
        return monotone_cdf(cdf)
    return cdf


def monotone_cdf(cdf: np.ndarray) -> np.ndarray:
    """Clamp a noisy CDF estimate to be a valid CDF (monotone, in [0, 1])."""
    cdf = np.asarray(cdf, dtype=np.float64)
    if cdf.ndim != 1 or cdf.size == 0:
        raise InvalidQueryError("cdf must be a non-empty one-dimensional array")
    return np.clip(np.maximum.accumulate(cdf), 0.0, 1.0)


def quantile_targets(targets: Any) -> List[float]:
    """Quantile targets as floats, each a number in ``[0, 1]``.

    The target policy of :func:`estimate_quantiles`,
    :meth:`~repro.core.base.RangeQueryMechanism.quantiles` and the HTTP
    ``/v1/quantiles`` decoder.  Strings and bools raise
    :class:`~repro.exceptions.InvalidQueryError` instead of being cast:
    ``float("0.5")`` and ``float(True)`` would answer them as ``0.5`` and
    ``1.0`` without any error.  Integers, such as JSON ``0`` and ``1``,
    pass.
    """
    try:
        targets = list(targets)
    except TypeError:
        raise InvalidQueryError("quantile targets must be a sequence of numbers") from None
    values = []
    for target in targets:
        if isinstance(target, (str, bytes, bool, np.bool_)):
            raise InvalidQueryError(f"quantile targets must be numbers, got {target!r}")
        try:
            value = float(target)
        except (TypeError, ValueError, OverflowError):
            raise InvalidQueryError(f"quantile targets must be numbers, got {target!r}") from None
        if not 0.0 <= value <= 1.0:
            raise InvalidQueryError(f"quantile targets must be in [0, 1], got {target!r}")
        values.append(value)
    return values


def estimate_quantiles(
    mechanism: RangeQueryMechanism,
    targets: Sequence[float] = DECILES,
    monotone: bool = True,
) -> List[int]:
    """Estimate a batch of quantiles from one CDF reconstruction.

    Returns, for each target ``phi``, the smallest item whose estimated
    cumulative mass reaches ``phi``.
    """
    targets = quantile_targets(targets)
    cdf = estimate_cdf(mechanism, monotone=monotone)
    items = np.searchsorted(cdf, np.asarray(targets), side="left")
    # Clamp by the CDF's own length: mechanisms whose item domain differs
    # from `domain_size` (the 2-D grid reports its side length but walks the
    # flattened D^2 domain) would otherwise clip every quantile to the
    # wrong end of the domain.
    return [int(min(item, cdf.shape[0] - 1)) for item in items]


def estimate_median(mechanism: RangeQueryMechanism) -> int:
    """Convenience wrapper: the estimated 0.5-quantile."""
    return estimate_quantiles(mechanism, targets=(0.5,))[0]
