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
* in aggregate simulation the users are split across the levels level 1
  first (a level's key is the previous level's shifted right once), and
  all levels' HRR users are sampled together: one count-space stage per
  index bit over every level that still has it, ``log2 D' - 1`` stages a
  fit;
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

from typing import Any, Dict, Iterable, Optional, Sequence, Tuple

import numpy as np

from repro.core.base import RangeQueryMechanism
from repro.frequency_oracles.hadamard import (
    HadamardRandomizedResponse,
    add_level_runs,
    dyadic_estimates,
)
from repro.hierarchy.decomposition import batched_detail_energies
from repro.transforms.haar import haar_inverse, haar_range_weights
from repro.transforms.hadamard import next_power_of_two

__all__ = ["HaarWaveletMechanism"]


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
        self._padded_size = max(2, next_power_of_two(domain_size))
        self._height = self._padded_size.bit_length() - 1
        self._init_level_probabilities(level_probabilities, self._height)
        # One HRR oracle per level, over that level's coefficient positions.
        self._init_labels(
            {
                level: HadamardRandomizedResponse(epsilon, self._padded_size >> level)
                for level in range(1, self._height + 1)
            },
            self._level_probabilities,
        )
        self._coefficients: Optional[np.ndarray] = None

    # ------------------------------------------------------------------
    # Configuration
    # ------------------------------------------------------------------
    config_kind = "haar"
    config_optional = frozenset({"name", "level_probabilities"})

    def config_dict(self) -> Dict[str, Any]:
        config = super().config_dict()
        config["level_probabilities"] = self._level_probabilities_config
        return config

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
        """Users that reported each level so far, counted since the
        last one-shot fit and cumulative across ``partial_fit`` and
        ``merge_from`` (``None`` unfitted)."""
        return self._user_counts()

    def coefficients(self) -> np.ndarray:
        """Estimated Haar coefficients of the population frequency vector."""
        self._require_fitted()
        return self._coefficients.copy()

    # ------------------------------------------------------------------
    # Collection
    # ------------------------------------------------------------------
    def _merge_signature(self) -> tuple:
        return super()._merge_signature() + (
            self._padded_size,
            tuple(np.round(self._level_probabilities, 12)),
        )

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

    def _label_cells(self, level: int, items: np.ndarray) -> np.ndarray:
        """A level-``l`` user's HRR key ``item >> (l - 1)``: the block
        ``item >> l`` in the high bits and the coefficient's sign (set for
        the block's right half) in bit 0."""
        return items >> (level - 1)

    def _label_chain(self) -> range:
        """Level ``l + 1``'s key is level ``l``'s shifted right once:
        level 1 first."""
        return range(self._height)

    def _fold_users(self, level: int, items: np.ndarray, rng: np.random.Generator) -> None:
        """Run HRR for a level's users: :meth:`HadamardAccumulator._add_keys`
        perturbs their keys and folds them straight into the level's sums."""
        self._accumulators[level]._add_keys(self._label_cells(level, items), rng)

    def _fold_shares(
        self,
        shares: Iterable[Tuple[int, np.ndarray, np.ndarray]],
        rng: np.random.Generator,
    ) -> None:
        """Aggregate mode: run HRR on every level's share of the counts at
        once, exact in distribution (per-user mode keeps the per-user
        stream).

        HRR has no closed-form per-item aggregate to sample from, so the
        thinned levels (each a run of users per distinct key) go to
        :func:`~repro.frequency_oracles.hadamard.add_level_runs` together:
        the levels large enough for count space share each index bit's
        stage, ``log2 D' - 1`` stages for the whole fit; smaller levels draw
        their users' indices per user; the randomized-response flips are
        one binomial count per occupied (index, sign) cell of every level.
        """
        levels = list(shares)
        if not levels:
            return
        add_level_runs(
            [self._accumulators[level] for level, _, _ in levels],
            [keys for _, keys, _ in levels],
            [counts for _, _, counts in levels],
            rng,
        )

    # ------------------------------------------------------------------
    # Query answering
    # ------------------------------------------------------------------
    def answer_range_via_coefficients(self, start: int, end: int) -> float:
        """Answer a range directly in the coefficient basis (Section 4.6).

        Mathematically identical to :meth:`answer_range` (both are the same
        linear functional of the estimated coefficients); exposed so the
        tests can verify the equivalence and so users can see the textbook
        evaluation path.
        """
        start, end = self._range_batch([[start, end]])[0].tolist()
        indices, weights = haar_range_weights(start, end, self._padded_size)
        return float(np.dot(self._coefficients[indices], weights))

    def answer_ranges(self, queries: np.ndarray) -> np.ndarray:
        """Vectorised evaluation via prefix sums (O(1) per query).

        The inherited template, bound on this class too so that a profiler
        can wrap the Haar read path under its own name.
        """
        return self._answer_batch(
            "answer_ranges", self._range_batch(queries), self._range_answers
        )

    def _answer_weights(self, queries: np.ndarray) -> np.ndarray:
        """A range puts weight ``(L - R) / 2^{l/2}`` on each level-``l``
        coefficient (``L``, ``R``: its overlaps with the block's halves, as
        in :func:`haar_range_weights`), which is an HRR estimate over
        ``2^{l/2}``; the level's squared weights sum to its binary detail
        energy ``(L - R)^2 / 2^l``
        (:func:`~repro.hierarchy.decomposition.batched_detail_energies`,
        level ``l`` at depth ``h - l + 1``) over ``2^l``."""
        energies = batched_detail_energies(2, self._height, queries[:, 0], queries[:, 1])
        return (energies[::-1] / 2.0 ** np.arange(1, self._height + 1)[:, None]).T
