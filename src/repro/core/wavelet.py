"""Discrete Haar wavelet mechanism (``HaarHRR``, Section 4.6).

Protocol summary:

* the domain is organised as a complete binary tree; each user's one-hot
  input has exactly one non-zero Haar *detail* coefficient per level, whose
  value is ``+-1 / 2^{l/2}`` (sign depending on whether the item falls in the
  left or right half of its block), plus the constant scaling coefficient
  ``1 / sqrt(D)`` which carries no information and is never reported;
* each user samples one level ``l`` (uniformly — the same optimisation as
  for hierarchical histograms) and perturbs her *rescaled* ``{-1, 0, +1}``
  coefficient vector at that level with Hadamard Randomized Response, which
  handles the negative value natively and costs a single bit plus the level
  and Hadamard index;
* the aggregator forms unbiased estimates of every Haar coefficient of the
  population's frequency vector and answers range queries as weighted
  combinations of the at most ``2 log2 D`` coefficients whose nodes are cut
  by the range (equivalently — and exactly equal, by linearity — it can
  invert the transform and sum leaf estimates, which is how this
  implementation evaluates large workloads in O(1) per query).

Because the Haar basis is orthonormal there is no redundancy between
coefficients and no consistency post-processing is needed; equation (3) of
the paper bounds the variance of *any* range query by ``log2^2(D) V_F / 2``.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

import numpy as np

from repro.core.base import RangeQueryMechanism, group_by_label
from repro.exceptions import ConfigurationError
from repro.frequency_oracles.hadamard import (
    HadamardAccumulator,
    HadamardRandomizedResponse,
    dyadic_estimates,
)
from repro.privacy.randomness import categorical
from repro.transforms.haar import haar_inverse, haar_range_weights
from repro.transforms.hadamard import is_power_of_two

__all__ = ["HaarWaveletMechanism"]


def _next_power_of_two(value: int) -> int:
    power = 1
    while power < value:
        power <<= 1
    return power


class HaarWaveletMechanism(RangeQueryMechanism):
    """The ``HaarHRR`` range-query mechanism.

    Parameters
    ----------
    epsilon:
        Per-user privacy budget.
    domain_size:
        Number of items ``D``.  Non powers of two are padded internally (the
        padding never receives probability mass and is invisible to
        callers).
    level_probabilities:
        Probability of a user sampling each of the ``h = log2(D)`` detail
        levels; uniform by default (the variance-optimal choice).
    """

    def __init__(
        self,
        epsilon: float,
        domain_size: int,
        level_probabilities: Optional[Sequence[float]] = None,
        name: Optional[str] = None,
    ) -> None:
        super().__init__(epsilon, domain_size, name=name or "HaarHRR")
        self._padded_size = (
            int(domain_size)
            if is_power_of_two(int(domain_size))
            else _next_power_of_two(int(domain_size))
        )
        if self._padded_size < 2:
            self._padded_size = 2
        self._height = self._padded_size.bit_length() - 1
        self._level_probabilities = self._normalize_level_probabilities(level_probabilities)
        # One HRR oracle per level, over that level's coefficient positions.
        self._oracles: Dict[int, HadamardRandomizedResponse] = {
            level: HadamardRandomizedResponse(
                epsilon, self._padded_size >> level
            )
            for level in range(1, self._height + 1)
        }
        self._accumulators: Optional[Dict[int, HadamardAccumulator]] = None
        self._coefficients: Optional[np.ndarray] = None
        self._frequencies: Optional[np.ndarray] = None
        self._prefix: Optional[np.ndarray] = None
        self._level_user_counts: Optional[np.ndarray] = None

    # ------------------------------------------------------------------
    # Configuration
    # ------------------------------------------------------------------
    @property
    def padded_size(self) -> int:
        """Power-of-two size of the Haar tree actually used."""
        return self._padded_size

    @property
    def height(self) -> int:
        """Number of detail levels ``h = log2(padded_size)``."""
        return self._height

    @property
    def level_probabilities(self) -> np.ndarray:
        """Probability of a user sampling each detail level."""
        return self._level_probabilities.copy()

    @property
    def level_user_counts(self) -> Optional[np.ndarray]:
        """Users assigned to each level in the last collection."""
        return None if self._level_user_counts is None else self._level_user_counts.copy()

    def coefficients(self) -> np.ndarray:
        """Estimated Haar coefficients of the population frequency vector."""
        self._require_fitted()
        return self._coefficients.copy()

    def _normalize_level_probabilities(
        self, probabilities: Optional[Sequence[float]]
    ) -> np.ndarray:
        if probabilities is None:
            return np.full(self._height, 1.0 / self._height)
        array = np.asarray(probabilities, dtype=np.float64)
        if array.shape != (self._height,):
            raise ConfigurationError(
                f"level_probabilities must have {self._height} entries, got {array.shape}"
            )
        if not np.all(np.isfinite(array)) or np.any(array < 0) or array.sum() <= 0:
            raise ConfigurationError(
                "level_probabilities must be finite, non-negative and sum > 0"
            )
        return array / array.sum()

    # ------------------------------------------------------------------
    # Collection
    # ------------------------------------------------------------------
    def _reset_accumulators(self) -> None:
        self._accumulators = {
            level: self._oracles[level].accumulator()
            for level in range(1, self._height + 1)
        }
        self._level_user_counts = np.zeros(self._height, dtype=np.int64)

    def _collect(
        self,
        items: Optional[np.ndarray],
        counts: np.ndarray,
        rng: np.random.Generator,
        mode: str,
    ) -> None:
        self._reset_accumulators()
        self._accumulate_batch(items, counts, rng, mode)
        self._mark_dirty()

    def _partial_collect(
        self,
        items: np.ndarray,
        counts: np.ndarray,
        rng: np.random.Generator,
        mode: str,
    ) -> None:
        if self._accumulators is None:
            self._reset_accumulators()
        self._accumulate_batch(items, counts, rng, mode)

    def _merge_state(self, other: "HaarWaveletMechanism") -> None:
        if self._accumulators is None:
            self._reset_accumulators()
        for level in range(1, self._height + 1):
            self._accumulators[level].merge(other._accumulators[level])
        self._level_user_counts += other._level_user_counts

    def _merge_signature(self) -> tuple:
        return super()._merge_signature() + (
            self._padded_size,
            tuple(np.round(self._level_probabilities, 12)),
        )

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------
    def state_dict(self) -> dict:
        return self._pack_level_state(self._accumulators, self._level_user_counts)

    def load_state_dict(self, state: dict) -> "HaarWaveletMechanism":
        n_users, accumulators, counts = self._unpack_level_state(
            state,
            range(1, self._height + 1),
            lambda level: self._oracles[level].accumulator(),
        )
        if accumulators is not None:
            self._accumulators = accumulators
            self._level_user_counts = counts
            self._mark_dirty()
        else:
            self._accumulators = None
            self._coefficients = None
            self._frequencies = None
            self._prefix = None
            self._level_user_counts = None
            self._mark_clean()
        self._n_users = n_users
        return self

    def _accumulate_batch(
        self,
        items: Optional[np.ndarray],
        counts: np.ndarray,
        rng: np.random.Generator,
        mode: str,
    ) -> None:
        if mode == "per_user":
            self._accumulate_per_user(items, rng)
        else:
            self._accumulate_aggregate(counts, rng)

    def _refresh_estimates(self) -> None:
        """Decode every level at once, then invert the Haar transform.

        Level ``l``'s HRR estimates land in the dyadic block
        ``[D'/2^l, D'/2^(l-1))`` — the Haar layout — through
        :func:`~repro.frequency_oracles.hadamard.dyadic_estimates`, whose
        multi-level butterfly runs each stage once over all unfinished
        levels (``log2 D' - 1`` passes instead of ``~log2^2(D')/2``);
        each block is then rescaled by ``2^{-l/2}``.  Bit-identical to
        decoding the levels one by one.
        """
        coefficients = dyadic_estimates(
            [self._accumulators[level] for level in range(1, self._height + 1)]
        )
        # The scaling coefficient of a probability vector over the padded
        # domain is the known constant 1/sqrt(D'); the paper hard-codes it.
        coefficients[0] = 1.0 / np.sqrt(self._padded_size)
        for level in range(1, self._height + 1):
            start = self._padded_size >> level
            coefficients[start : 2 * start] /= 2.0 ** (level / 2.0)
        self._coefficients = coefficients
        reconstructed = haar_inverse(coefficients)
        self._frequencies = reconstructed[: self._domain_size]
        self._prefix = np.concatenate([[0.0], np.cumsum(self._frequencies)])

    def _accumulate_per_user(self, items: np.ndarray, rng: np.random.Generator) -> None:
        """Run the real local protocol with each user sampling a level.

        The level draw is :func:`~repro.privacy.randomness.categorical`
        (``rng.choice``'s values and stream) and
        :func:`~repro.core.base.group_by_label` groups the users with one
        stable sort.  A level-``l`` user's HRR key is ``item >> (l - 1)``:
        the block ``item >> l`` in the high bits and the coefficient's
        sign (set for the block's right half) in bit 0, so
        :meth:`HadamardAccumulator._add_keys` perturbs and folds the group
        straight into the level's sums.  Only levels that received users
        are visited (empty levels never consumed randomness anyway).
        """
        assignments = categorical(rng, self._level_probabilities, items.shape[0])
        counts, ordered, groups = group_by_label(items, assignments, self._height)
        self._level_user_counts += counts
        for level_index, users in groups:
            level = level_index + 1
            self._accumulators[level]._add_keys(ordered[users] >> (level - 1), rng)

    def _accumulate_aggregate(self, counts: np.ndarray, rng: np.random.Generator) -> None:
        """Aggregate mode: partition the counts across levels, then run the
        exact (vectorised) HRR protocol per level.

        HRR has no closed-form per-item aggregate to sample from, so every
        level's users are expanded — but as runs of ``(block, sign)`` pairs,
        not items: the items of block ``b`` at level ``l`` are the left
        half (sign ``+1``) then the right half (sign ``-1``), so summing the
        level's counts over each half gives run lengths whose expansion
        (:meth:`HadamardAccumulator.add_runs`) is exactly the per-user
        sequence of the expanded items, in the same order.  ``add_runs``
        carries each run's sign in bit 0 of its repeated key, so the
        expansion is one narrow array (at most two bytes per user while
        ``D' <= 2^16``), and folds the users' reports into the sums with one
        unweighted ``bincount``.
        """
        padded_counts = np.zeros(self._padded_size, dtype=np.int64)
        padded_counts[: self._domain_size] = counts
        remaining = padded_counts.copy()
        remaining_probability = 1.0
        for level in range(1, self._height + 1):
            probability = self._level_probabilities[level - 1]
            if level == self._height:
                level_counts = remaining.copy()
            else:
                share = 0.0 if remaining_probability <= 0 else min(
                    1.0, probability / remaining_probability
                )
                level_counts = rng.binomial(remaining, share)
                remaining -= level_counts
                remaining_probability -= probability
            batch_users = int(level_counts.sum())
            self._level_user_counts[level - 1] += batch_users
            if batch_users == 0:
                continue
            pair_counts = level_counts.reshape(-1, 2, 1 << (level - 1)).sum(axis=2).ravel()
            pairs = np.arange(pair_counts.shape[0], dtype=np.int64)
            self._accumulators[level].add_runs(
                pairs >> 1, pair_counts, rng, signs=1 - 2 * (pairs & 1)
            )

    # ------------------------------------------------------------------
    # Query answering
    # ------------------------------------------------------------------
    def _answer_range(self, start: int, end: int) -> float:
        return float(self._prefix[end + 1] - self._prefix[start])

    def answer_range_via_coefficients(self, start: int, end: int) -> float:
        """Answer a range directly in the coefficient basis (Section 4.6).

        Mathematically identical to :meth:`answer_range` (both are the same
        linear functional of the estimated coefficients); exposed so the
        tests can verify the equivalence and so users can see the textbook
        evaluation path.
        """
        self._require_fitted()
        start, end = self._check_range(start, end)
        indices, weights = haar_range_weights(start, end, self._padded_size)
        return float(np.dot(self._coefficients[indices], weights))

    def estimate_frequencies(self) -> np.ndarray:
        """Per-item estimates from the inverted coefficient vector."""
        self._require_fitted()
        return self._frequencies.copy()

    def estimate_cdf(self) -> np.ndarray:
        """The materialized prefix sums, reused instead of re-deriving the
        CDF from the reconstructed frequencies (bit-identical)."""
        self._require_fitted()
        return self._prefix[1:].copy()

    def answer_ranges(self, queries: np.ndarray) -> np.ndarray:
        """Vectorised evaluation via prefix sums (O(1) per query)."""
        return self._answer_batch(
            "answer_ranges",
            self._range_batch(queries),
            lambda batch: self._prefix_ranges(batch, self._prefix),
        )

    def per_query_variance_bound(self) -> float:
        """Equation (3): ``log2^2(D) V_F / 2`` independent of the range."""
        from repro.analysis.variance import haar_range_variance

        self._require_fitted()
        return haar_range_variance(self.epsilon, self.n_users, max(2, self._padded_size))
