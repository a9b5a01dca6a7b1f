"""Hadamard Randomized Response (HRR) frequency oracle.

Section 3.2 of the paper: the user's one-hot vector ``e_v`` has the (scaled)
Hadamard transform ``phi[v][.]`` whose entries are all ``+-1``.  The user
samples one coefficient index ``j`` uniformly at random, perturbs the single
bit ``phi[v][j]`` with binary randomized response, and reports the pair
``(j, perturbed bit)`` — ``ceil(log2 D) + 1`` bits of communication.

The aggregator sums the unbiased per-report coefficient estimates, divides by
the number of users (after re-weighting for the ``1/D`` sampling rate) and
applies the inverse Hadamard transform to recover frequency estimates for
every item.  The per-item variance equals ``4 e^eps / (N (e^eps - 1)^2)``,
the same as OUE and OLH.

This oracle additionally supports *signed* one-hot inputs ``s * e_v`` with
``s`` in ``{-1, +1}``, which is exactly what the Haar wavelet mechanism
(Section 4.6) needs: negating the input merely negates the Hadamard
coefficients, so the same perturbation and decoding apply unchanged.
"""

from __future__ import annotations

from typing import Any, Dict, Optional, Sequence

import numpy as np

from repro.exceptions import ConfigurationError, InvalidQueryError
from repro.frequency_oracles.accumulators import OracleAccumulator
from repro.frequency_oracles.base import FrequencyOracle, OracleReports
from repro.privacy.mechanisms import binary_rr_probability
from repro.privacy.randomness import RandomState, as_generator
from repro.transforms.hadamard import (
    dyadic_fast_walsh_hadamard_transform,
    entries_from_parities,
    hadamard_entry,
    hadamard_parities,
    inverse_fast_walsh_hadamard_transform,
    is_power_of_two,
)

__all__ = ["HadamardAccumulator", "HadamardRandomizedResponse", "dyadic_estimates"]


class HadamardAccumulator(OracleAccumulator):
    """Sufficient statistic of HRR: per-index perturbed-coefficient sums.

    Each report contributes its (sign-carrying) perturbed bit to the sampled
    Hadamard index; the length-``D'`` sum vector plus the user count fully
    determine the decoded estimates, and sums from shards simply add.
    """

    def __init__(self, oracle: "HadamardRandomizedResponse") -> None:
        super().__init__(oracle)
        self._sums = np.zeros(oracle.padded_size, dtype=np.float64)

    def _add_reports(self, reports: OracleReports) -> None:
        # Reports may come from outside the process, so every field is
        # checked before the statistic changes: a rejected batch leaves the
        # sums and the user count untouched.
        padded_size = self._oracle.padded_size
        indices = np.asarray(reports.payload["indices"])
        values = np.asarray(reports.payload["values"])
        if indices.shape != (reports.n_users,) or values.shape != (reports.n_users,):
            raise InvalidQueryError(
                f"indices and values must be one-dimensional with one entry per "
                f"user ({reports.n_users}), got shapes {indices.shape} and {values.shape}"
            )
        if indices.dtype.kind not in "iu" and not (
            indices.dtype.kind == "f" and np.array_equal(indices, np.trunc(indices))
        ):
            raise InvalidQueryError("Hadamard indices must be integers")
        if indices.size and (indices.min() < 0 or indices.max() >= padded_size):
            raise InvalidQueryError(f"Hadamard indices must be in [0, {padded_size})")
        if values.dtype.kind not in "iuf" or not np.all(np.abs(values) == 1):
            raise InvalidQueryError("report values must be -1 or +1")
        self._fold(indices.astype(np.int64, copy=False), values)

    def _fold(self, indices: np.ndarray, values: np.ndarray) -> None:
        """Add validated reports (int64 indices, +-1 values) to the sums."""
        self._sums += np.bincount(
            indices, weights=values, minlength=self._oracle.padded_size
        )

    def add_runs(
        self,
        values: np.ndarray,
        counts: np.ndarray,
        random_state: RandomState = None,
        signs: Optional[np.ndarray] = None,
    ) -> "HadamardAccumulator":
        """Accumulate ``counts[k]`` users holding ``signs[k] * e_{values[k]}``.

        Run ``k``'s users come before run ``k + 1``'s, and each user runs
        the exact batched protocol (:meth:`HadamardRandomizedResponse.encode_batch`
        on the expanded arrays, with the same random draws).  Only the
        run arrays are validated — ``O(runs)``, not ``O(users)`` — because
        the expanded reports are generated here and need no re-checking.
        The expansion is the only ``O(N)`` memory: one int64 and (when
        signed) one byte per user.
        """
        oracle = self._oracle
        values = oracle._check_values(values)
        counts = np.asarray(counts, dtype=np.int64)
        if counts.shape != values.shape or (counts.size and counts.min() < 0):
            raise InvalidQueryError("counts must be non-negative, one per run")
        negative = None if signs is None else oracle._negative_mask(signs, values.shape[0])
        rng = as_generator(random_state)
        self._add_runs(values, counts, rng, negative)
        self._n_users += int(counts.sum())
        return self

    def _add_runs(
        self,
        values: np.ndarray,
        counts: np.ndarray,
        rng: np.random.Generator,
        negative: Optional[np.ndarray] = None,
    ) -> None:
        users_negative = None if negative is None else np.repeat(negative, counts)
        reports = self._oracle._encode(np.repeat(values, counts), users_negative, rng)
        self._fold(reports.payload["indices"], reports.payload["values"])

    def _add_simulated(self, counts: np.ndarray, rng: np.random.Generator) -> None:
        # HRR couples the sampled index with the user's item, so there is no
        # per-item closed form; the counts are runs of items 0..D-1, and the
        # exact batched protocol runs on their expansion.
        self._add_runs(
            np.arange(self._oracle.domain_size, dtype=np.int64), counts, rng
        )

    def _merge_statistic(self, other: "HadamardAccumulator") -> None:
        self._sums += other._sums

    def _statistic_arrays(self) -> dict:
        return {"sums": self._sums}

    def _load_statistic_arrays(self, arrays: dict) -> None:
        self._sums = arrays["sums"]

    def _coefficient_estimates(self) -> np.ndarray:
        # Each coefficient was sampled with probability 1/D', so the sum over
        # the users that picked index j estimates N/D' * (2p-1) * C_j.
        oracle = self._oracle
        return self._sums * oracle.padded_size / (self._n_users * oracle.unbiasing_factor)

    def estimate(self) -> np.ndarray:
        oracle = self._oracle
        if self._n_users == 0:
            return np.zeros(oracle.domain_size)
        estimates = inverse_fast_walsh_hadamard_transform(self._coefficient_estimates())
        return estimates[: oracle.domain_size]


def dyadic_estimates(accumulators: Sequence[HadamardAccumulator]) -> np.ndarray:
    """Decode a stack of HRR accumulators in the dyadic (Haar) layout.

    ``accumulators`` must have domain sizes ``D/2, D/4, ..., 1`` (powers of
    two, so no padding).  Returns a length-``D`` vector whose block
    ``[s, 2s)`` holds the estimates of the accumulator of size ``s`` —
    bit-identical to its :meth:`~HadamardAccumulator.estimate` — and whose
    index ``0`` is ``0``.  All blocks are inverted together by
    :func:`~repro.transforms.hadamard.dyadic_fast_walsh_hadamard_transform`,
    i.e. one butterfly pass per stage instead of one transform per level.
    """
    size = 2 * accumulators[0].oracle.domain_size
    blocks = [size >> level for level in range(1, len(accumulators) + 1)]
    domains = [accumulator.oracle.domain_size for accumulator in accumulators]
    if blocks[-1] != 1 or domains != blocks:
        raise ConfigurationError(f"dyadic decoding needs domain sizes {blocks}, got {domains}")
    coefficient_estimates = np.zeros(size, dtype=np.float64)
    for block, accumulator in zip(blocks, accumulators):
        if accumulator.n_users:
            coefficient_estimates[block : 2 * block] = accumulator._coefficient_estimates()
    estimates = dyadic_fast_walsh_hadamard_transform(coefficient_estimates)
    for block in blocks:
        estimates[block : 2 * block] /= float(block)
    return estimates


def _next_power_of_two(value: int) -> int:
    power = 1
    while power < value:
        power <<= 1
    return power


class HadamardRandomizedResponse(FrequencyOracle):
    """HRR frequency oracle.

    Report layout (:meth:`encode`): ``{"index": int, "value": -1 or +1}``.

    Parameters
    ----------
    epsilon:
        Privacy budget per report.
    domain_size:
        Item domain size ``D``.  The Hadamard transform needs a power of
        two; other sizes are padded internally and the padding positions are
        dropped from the estimates, so callers never see them.
    """

    name = "hrr"

    def __init__(self, epsilon: float, domain_size: int) -> None:
        super().__init__(epsilon, domain_size)
        self._padded_size = (
            int(domain_size)
            if is_power_of_two(int(domain_size))
            else _next_power_of_two(int(domain_size))
        )
        self._keep_probability = binary_rr_probability(epsilon)

    @property
    def padded_size(self) -> int:
        """Power-of-two size of the Hadamard transform actually used."""
        return self._padded_size

    @property
    def keep_probability(self) -> float:
        """Probability ``p = e^eps / (1 + e^eps)`` of keeping the true bit."""
        return self._keep_probability

    @property
    def unbiasing_factor(self) -> float:
        """``2p - 1``, the factor dividing every report during decoding."""
        return 2.0 * self._keep_probability - 1.0

    # ------------------------------------------------------------------
    # User side
    # ------------------------------------------------------------------
    def encode(
        self, value: int, random_state: RandomState = None, sign: int = 1
    ) -> Dict[str, Any]:
        value = self._check_value(value)
        if sign not in (-1, 1):
            raise InvalidQueryError(f"sign must be -1 or +1, got {sign!r}")
        rng = as_generator(random_state)
        index = int(rng.integers(0, self._padded_size))
        coefficient = sign * hadamard_entry(value, index)
        if rng.random() >= self._keep_probability:
            coefficient = -coefficient
        return {"index": index, "value": coefficient}

    def encode_batch(
        self,
        values: np.ndarray,
        random_state: RandomState = None,
        signs: Optional[np.ndarray] = None,
    ) -> OracleReports:
        values = self._check_values(values)
        negative = None if signs is None else self._negative_mask(signs, values.shape[0])
        return self._encode(values, negative, as_generator(random_state))

    @staticmethod
    def _negative_mask(signs: np.ndarray, n_users: int) -> np.ndarray:
        signs = np.asarray(signs, dtype=np.int64)
        if signs.shape != (n_users,):
            raise InvalidQueryError("signs must have one entry per user")
        if not np.all(np.abs(signs) == 1):
            raise InvalidQueryError("signs must be -1 or +1")
        return signs < 0

    def _encode(
        self,
        values: np.ndarray,
        negative: Optional[np.ndarray],
        rng: np.random.Generator,
    ) -> OracleReports:
        """The batched protocol on validated int64 ``values``.

        ``negative`` marks users whose input is ``-e_v``.  The entry's
        parity, the sign and the randomized-response flip are combined as
        bits (``^=``, one byte per user) and turned into ``+-1`` once.
        """
        n_users = values.shape[0]
        indices = rng.integers(0, self._padded_size, size=n_users)
        parities = hadamard_parities(values, indices)
        if negative is not None:
            parities ^= negative
        parities ^= rng.random(n_users) >= self._keep_probability
        return OracleReports(
            payload={"indices": indices, "values": entries_from_parities(parities)},
            n_users=n_users,
        )

    # ------------------------------------------------------------------
    # Aggregator side
    # ------------------------------------------------------------------
    def accumulator(self) -> HadamardAccumulator:
        """Mergeable accumulator over the per-index coefficient sums."""
        return HadamardAccumulator(self)

    def aggregate(self, reports: OracleReports) -> np.ndarray:
        """Decode reports into (possibly signed) frequency estimates.

        Computes an unbiased estimate of every Hadamard coefficient of the
        population's mean (signed) indicator vector, then inverts the
        transform in ``O(D log D)``.
        """
        return self.accumulator().add(reports).estimate()

    def simulate_aggregate(
        self, true_counts: np.ndarray, random_state: RandomState = None
    ) -> np.ndarray:
        """Fast path: vectorised per-user protocol driven by the counts.

        HRR reports couple the sampled index with the user's item, so there
        is no per-item closed-form aggregate to sample from; instead the
        counts are taken as runs of the items ``0..D-1`` and expanded to one
        item per user (``O(N)`` memory, see
        :meth:`HadamardAccumulator.add_runs`), and the exact batched protocol
        runs on the expansion: a constant number of ``O(N)`` NumPy passes,
        the random draws among them.  Exact, not approximate.
        """
        return self.accumulator().add_counts(true_counts, random_state).estimate()

    def theoretical_variance(self, n_users: int) -> float:
        """``4 p (1 - p) / (N (2p - 1)^2) = 4 e^eps / (N (e^eps - 1)^2)``."""
        if n_users <= 0:
            raise InvalidQueryError(f"n_users must be positive, got {n_users!r}")
        p = self._keep_probability
        return 4.0 * p * (1.0 - p) / (n_users * (2.0 * p - 1.0) ** 2)
