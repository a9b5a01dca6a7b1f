"""Closed-form variance expressions from Section 4 of the paper.

These functions implement, verbatim, the theoretical quantities the paper
derives, with OUE's ``V_F`` for every oracle; ``bench_theory_bounds.py``
checks that measured mean squared errors respect them, perfbench's
``answer_mse_ratio`` divides by them, and the property tests check
internal consistency (e.g. monotonicity in ``epsilon`` and the optimal
branching factors derived in Sections 4.4 and 4.5).  The variance of a
mechanism's own answers, with its own oracle, is
:meth:`~repro.core.base.RangeQueryMechanism.answer_variances`, which
:mod:`repro.planner` ranks by.

Summary of the expressions implemented (``V_F`` is the frequency-oracle
variance ``4 e^eps / (N (e^eps - 1)^2)``, the zero-frequency variance of
OUE and OLH; HRR's is ``1 / N`` more, see
:meth:`~repro.frequency_oracles.hadamard.HadamardRandomizedResponse.theoretical_variance`):

=====================================  =========================================
Flat method, range of length ``r``      ``r * V_F``                       (Fact 1)
Flat method, average over all ranges    ``(D + 2) V_F / 3``            (Lemma 4.2)
HH_B, range of length ``r``             ``(2B - 1) h (ceil(log_B r) + 1) V_F``
                                        with ``h = log_B D``       (Theorem 4.3 +
                                        uniform level sampling, eq. (1))
HH_B worst-case average                 ``2 (B-1) V_F log_B D log_B(3D^2/(1+2D))``
                                        (Theorem 4.5)
HH_B + consistency, range               ``(B + 1) V_F log_B r log_B D / 2``
                                        (Section 4.5, eq. (2) form)
HaarHRR, any range                      ``log_2^2(D) V_F / 2``          (eq. (3))
d-D grid, ``r^d`` box                   ``h^d (2(B-1) alpha)^d V_F`` with
                                        ``alpha = min(h, ceil(log_B r) + 1)``
                                        (Section 6 sketch, eq. (1) per axis;
                                        ``d = 2`` is the rectangle case)
=====================================  =========================================
"""

from __future__ import annotations

import math

import numpy as np

from repro.exceptions import ConfigurationError, InvalidQueryError
from repro.privacy.budget import exp_epsilon

__all__ = [
    "frequency_oracle_variance",
    "flat_range_variance",
    "flat_average_variance",
    "hh_range_variance",
    "hh_consistent_range_variance",
    "hh_average_variance",
    "haar_range_variance",
    "grid2d_rectangle_variance",
    "grid_nd_box_variance",
    "optimal_branching_factor",
    "optimal_branching_factor_consistent",
]


def _is_integer(value) -> bool:
    """Whether ``value`` is a Python or NumPy integer scalar.  Bools are
    refused, as :func:`repro.core.base.integer_queries` refuses them."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _check_users(n_users: int) -> int:
    if not _is_integer(n_users) or n_users < 1:
        raise ConfigurationError(f"n_users must be a positive integer, got {n_users!r}")
    return int(n_users)


def _check_domain(domain_size: int) -> int:
    if not _is_integer(domain_size) or domain_size < 2:
        raise ConfigurationError(
            f"domain size must be an integer >= 2, got {domain_size!r}"
        )
    return int(domain_size)


def _check_branching(branching: int) -> int:
    if not _is_integer(branching) or branching < 2:
        raise ConfigurationError(
            f"branching factor must be an integer >= 2, got {branching!r}"
        )
    return int(branching)


def _check_range_length(range_length: int, domain_size: int) -> int:
    if not _is_integer(range_length) or not 1 <= range_length <= domain_size:
        raise InvalidQueryError(
            f"range length must be in [1, {domain_size}], got {range_length!r}"
        )
    return int(range_length)


def frequency_oracle_variance(epsilon: float, n_users: int) -> float:
    """``V_F = 4 e^eps / (N (e^eps - 1)^2)``, the zero-frequency variance
    of OUE and OLH; HRR's is ``V_F + 1 / N``."""
    n_users = _check_users(n_users)
    e = exp_epsilon(epsilon)
    return 4.0 * e / (n_users * (e - 1.0) ** 2)


def flat_range_variance(
    epsilon: float, n_users: int, range_length: int, domain_size: int
) -> float:
    """Fact 1: the flat method's variance grows linearly with range length."""
    domain_size = _check_domain(domain_size)
    range_length = _check_range_length(range_length, domain_size)
    return range_length * frequency_oracle_variance(epsilon, n_users)


def flat_average_variance(epsilon: float, n_users: int, domain_size: int) -> float:
    """Lemma 4.2: average worst-case squared error over all ranges,
    ``(D + 2) V_F / 3``."""
    domain_size = _check_domain(domain_size)
    return (domain_size + 2) * frequency_oracle_variance(epsilon, n_users) / 3.0


def hh_range_variance(
    epsilon: float,
    n_users: int,
    range_length: int,
    domain_size: int,
    branching: int,
) -> float:
    """Equation (1): HH_B range variance with uniform level sampling.

    ``V_r <= (2B - 1) V_F h (ceil(log_B r) + 1)`` where ``h = ceil(log_B D)``
    levels are sampled uniformly (each level sees ``N / h`` users in
    expectation).
    """
    domain_size = _check_domain(domain_size)
    branching = _check_branching(branching)
    range_length = _check_range_length(range_length, domain_size)
    height = max(1, math.ceil(round(math.log(domain_size, branching), 10)))
    alpha = math.ceil(round(math.log(range_length, branching), 10)) + 1 if range_length > 1 else 1
    alpha = min(alpha, height)
    oracle_variance = frequency_oracle_variance(epsilon, n_users)
    return (2 * branching - 1) * oracle_variance * height * alpha


def hh_consistent_range_variance(
    epsilon: float,
    n_users: int,
    range_length: int,
    domain_size: int,
    branching: int,
) -> float:
    """Section 4.5 bound after constrained inference.

    ``(B + 1) V_F log_B r log_B D / 2`` (with the query still touching
    ``h`` levels when the range is short, the ``log_B r`` factor is floored
    at one level).
    """
    domain_size = _check_domain(domain_size)
    branching = _check_branching(branching)
    range_length = _check_range_length(range_length, domain_size)
    height = max(1.0, math.log(domain_size, branching))
    levels_touched = max(1.0, math.log(range_length, branching)) if range_length > 1 else 1.0
    oracle_variance = frequency_oracle_variance(epsilon, n_users)
    return (branching + 1) * oracle_variance * levels_touched * height / 2.0


def hh_average_variance(
    epsilon: float, n_users: int, domain_size: int, branching: int
) -> float:
    """Theorem 4.5: worst-case average error over all ranges for HH_B,
    ``2 (B - 1) V_F log_B D log_B(3 D^2 / (1 + 2D))``."""
    domain_size = _check_domain(domain_size)
    branching = _check_branching(branching)
    oracle_variance = frequency_oracle_variance(epsilon, n_users)
    log_d = math.log(domain_size, branching)
    log_term = math.log(3.0 * domain_size**2 / (1.0 + 2.0 * domain_size), branching)
    return 2.0 * (branching - 1) * oracle_variance * log_d * log_term


def haar_range_variance(epsilon: float, n_users: int, domain_size: int) -> float:
    """Equation (3): ``V_r = log_2^2(D) V_F / 2`` for any range length."""
    domain_size = _check_domain(domain_size)
    oracle_variance = frequency_oracle_variance(epsilon, n_users)
    log_d = math.log2(domain_size)
    return 0.5 * log_d**2 * oracle_variance


def grid_nd_box_variance(
    epsilon: float,
    n_users: int,
    per_axis_length: int,
    domain_size: int,
    branching: int,
    dims: int = 2,
) -> float:
    """Section 6 sketch: box variance of the ``d``-dimensional grid.

    The product decomposition of an ``r^d`` box (side length
    ``per_axis_length``) covers at most ``2(B - 1)`` nodes per axis level
    over ``alpha = min(h, ceil(log_B r) + 1)`` levels per axis — the 1-D
    eq. (1) run count applied to each axis — so at most
    ``(2 (B - 1) alpha)^d`` cells are summed.  Level-*tuple* sampling
    dilutes the population across ``h^d`` tuples, inflating each cell
    estimate's variance to ``h^d V_F``, hence::

        V_box <= h^d * (2 (B - 1) alpha)^d * V_F

    which is the ``O(log^{2d}_B D)`` growth the paper notes for general
    ``d`` — and what makes coarse gridding competitive in high dimensions,
    the trade-off :mod:`repro.planner` evaluates at plan time.
    ``domain_size`` is the per-axis side length ``D``.
    """
    domain_size = _check_domain(domain_size)
    branching = _check_branching(branching)
    per_axis_length = _check_range_length(per_axis_length, domain_size)
    if not _is_integer(dims) or dims < 1:
        raise ConfigurationError(f"dims must be a positive integer, got {dims!r}")
    dims = int(dims)
    height = max(1, math.ceil(round(math.log(domain_size, branching), 10)))
    alpha = (
        math.ceil(round(math.log(per_axis_length, branching), 10)) + 1
        if per_axis_length > 1
        else 1
    )
    alpha = min(alpha, height)
    per_axis_nodes = 2.0 * (branching - 1) * alpha
    oracle_variance = frequency_oracle_variance(epsilon, n_users)
    return height**dims * per_axis_nodes**dims * oracle_variance


def grid2d_rectangle_variance(
    epsilon: float,
    n_users: int,
    per_axis_length: int,
    domain_size: int,
    branching: int,
) -> float:
    """Rectangle variance of the 2-D hierarchical grid —
    :func:`grid_nd_box_variance` at ``dims=2`` (kept as the historical
    name)."""
    return grid_nd_box_variance(
        epsilon=epsilon,
        n_users=n_users,
        per_axis_length=per_axis_length,
        domain_size=domain_size,
        branching=branching,
        dims=2,
    )


def optimal_branching_factor() -> float:
    """Continuous optimum of ``2 (B - 1) / ln^2 B`` (Section 4.4): ``~4.922``.

    Solved numerically as the root of ``B ln B - 2B + 2 = 0`` by bisection —
    the same equation the paper derives before concluding ``B = 4`` or ``5``.
    """
    def derivative(b: float) -> float:
        return b * math.log(b) - 2.0 * b + 2.0

    lo, hi = 2.0, 16.0
    for _ in range(200):
        mid = (lo + hi) / 2.0
        if derivative(mid) < 0.0:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2.0


def optimal_branching_factor_consistent() -> float:
    """Continuous optimum after consistency (Section 4.5): root of
    ``B ln B - 2B - 2 = 0``, approximately ``9.18``."""
    def derivative(b: float) -> float:
        return b * math.log(b) - 2.0 * b - 2.0

    lo, hi = 2.0, 64.0
    for _ in range(200):
        mid = (lo + hi) / 2.0
        if derivative(mid) < 0.0:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2.0
