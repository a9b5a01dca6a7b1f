"""Privelet: centralized DP via the Haar wavelet transform (Xiao et al. [29]).

The trusted aggregator computes the (orthonormal) Haar coefficients of the
exact count vector and adds Laplace noise to each of them.  A single user's
change moves the scaling coefficient by ``1/sqrt(D)`` and exactly one detail
coefficient per level ``m`` by ``1/2^{m/2}``, so adding noise of scale
``lambda_m`` to the height-``m`` coefficients is ``epsilon``-DP whenever

    (1/sqrt(D)) / lambda_0  +  sum_m (1/2^{m/2}) / lambda_m  <=  epsilon.

Following Privelet's equal-contribution weighting, each of the ``h + 1``
terms is allotted ``epsilon / (h + 1)``, i.e.

    lambda_0 = (h + 1) / (epsilon sqrt(D)),
    lambda_m = (h + 1) / (epsilon 2^{m/2}),

which yields range-query variance growing as ``O(log^3 D / epsilon^2)`` —
the behaviour Qardaji et al. tabulate and the paper reproduces in Figure 7.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.core.base import validate_queries
from repro.exceptions import InvalidDomainError, InvalidQueryError, NotFittedError
from repro.hierarchy.decomposition import batched_detail_energies
from repro.privacy.budget import PrivacyBudget
from repro.privacy.randomness import RandomState, as_generator
from repro.transforms.haar import haar_forward, haar_inverse
from repro.transforms.hadamard import next_power_of_two

__all__ = ["PriveletWavelet"]


class PriveletWavelet:
    """Centralized wavelet mechanism (Privelet)."""

    def __init__(self, epsilon: float, domain_size: int) -> None:
        self._budget = PrivacyBudget(epsilon)
        if not isinstance(domain_size, (int, np.integer)) or domain_size < 2:
            raise InvalidDomainError(
                f"domain size must be an integer >= 2, got {domain_size!r}"
            )
        self._domain_size = int(domain_size)
        self._padded_size = next_power_of_two(self._domain_size)
        self._height = self._padded_size.bit_length() - 1
        self._coefficients: Optional[np.ndarray] = None
        self._frequencies: Optional[np.ndarray] = None
        self._prefix: Optional[np.ndarray] = None
        self._n_users: Optional[int] = None

    # ------------------------------------------------------------------
    # Configuration
    # ------------------------------------------------------------------
    @property
    def epsilon(self) -> float:
        return self._budget.epsilon

    @property
    def domain_size(self) -> int:
        return self._domain_size

    @property
    def padded_size(self) -> int:
        return self._padded_size

    @property
    def height(self) -> int:
        return self._height

    @property
    def is_fitted(self) -> bool:
        return self._coefficients is not None

    def noise_scale(self, height: int) -> float:
        """Laplace scale applied to coefficients of the given height.

        ``height = 0`` denotes the scaling coefficient.
        """
        if not 0 <= height <= self._height:
            raise InvalidQueryError(
                f"height must be in [0, {self._height}], got {height!r}"
            )
        budget_share = self.epsilon / (self._height + 1)
        if height == 0:
            sensitivity = 1.0 / np.sqrt(self._padded_size)
        else:
            sensitivity = 1.0 / (2.0 ** (height / 2.0))
        return sensitivity / budget_share

    # ------------------------------------------------------------------
    # Release
    # ------------------------------------------------------------------
    def fit_counts(
        self, counts: np.ndarray, random_state: RandomState = None
    ) -> "PriveletWavelet":
        """Release noisy Haar coefficients for the exact count vector."""
        counts = np.asarray(counts, dtype=np.float64)
        if counts.shape != (self._domain_size,):
            raise InvalidDomainError(
                f"expected {self._domain_size} counts, got shape {counts.shape}"
            )
        rng = as_generator(random_state)
        padded = np.zeros(self._padded_size, dtype=np.float64)
        padded[: self._domain_size] = counts
        coefficients = haar_forward(padded)
        noisy = coefficients.copy()
        noisy[0] += rng.laplace(0.0, self.noise_scale(0))
        for height in range(1, self._height + 1):
            start = self._padded_size >> height
            noisy[start : 2 * start] += rng.laplace(
                0.0, self.noise_scale(height), size=start
            )
        self._coefficients = noisy
        frequencies = haar_inverse(noisy)[: self._domain_size]
        self._frequencies = frequencies
        self._prefix = np.concatenate([[0.0], np.cumsum(frequencies)])
        self._n_users = int(round(counts.sum()))
        return self

    # ------------------------------------------------------------------
    # Query answering
    # ------------------------------------------------------------------
    def answer_range(self, start: int, end: int, normalized: bool = True) -> float:
        """Range estimate; normalized to a population fraction by default.
        Row 0 of :meth:`answer_ranges` on the one-row batch."""
        return float(self.answer_ranges([[start, end]], normalized=normalized)[0])

    def answer_ranges(self, queries: np.ndarray, normalized: bool = True) -> np.ndarray:
        """Range estimates of an ``(n, 2)`` array of inclusive ranges, via
        the prefix sums."""
        if self._coefficients is None:
            raise NotFittedError("fit_counts must be called first")
        queries = validate_queries(queries, 2, self._domain_size)
        answers = self._prefix[queries[:, 1] + 1] - self._prefix[queries[:, 0]]
        if normalized:
            if not self._n_users:
                return np.zeros_like(answers)
            answers /= float(self._n_users)
        return answers

    def range_query_variance(self, start: int, end: int, normalized: bool = True) -> float:
        """Exact variance of one range answer (closed form).

        The answer is a fixed linear combination of independently noised
        coefficients, so its variance is the weighted sum of the per-level
        Laplace variances ``2 lambda_m^2``, with squared weights ``r^2 / D'``
        on the scaling coefficient and each height's detail energy.
        """
        if not 0 <= start <= end < self._domain_size:
            raise InvalidQueryError(f"invalid range [{start}, {end}]")
        energies = batched_detail_energies(2, self._height, np.array([start]), np.array([end]))
        squared = [(end - start + 1) ** 2 / self._padded_size, *energies[::-1, 0]]
        variance = sum(2.0 * self.noise_scale(m) ** 2 * w for m, w in enumerate(squared))
        if normalized:
            if not self._n_users:
                raise NotFittedError("fit_counts must be called before normalization")
            variance /= float(self._n_users) ** 2
        return variance
