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
from repro.frequency_oracles.accumulators import OracleAccumulator, checked_report_symbols
from repro.frequency_oracles.base import FrequencyOracle, OracleReports
from repro.privacy.mechanisms import binary_rr_probability
from repro.privacy.randomness import RandomState, as_generator, power_of_two_integers
from repro.transforms.hadamard import (
    dyadic_fast_walsh_hadamard_transform,
    hadamard_entry,
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

    @staticmethod
    def statistic_shapes(oracle: "HadamardRandomizedResponse") -> dict:
        return {"sums": (oracle.padded_size,)}

    def _add_reports(self, reports: OracleReports) -> None:
        # Reports may come from outside the process, so every field is
        # checked before the statistic changes: a rejected batch leaves the
        # sums and the user count untouched.
        indices = checked_report_symbols(
            reports.payload["indices"], reports.n_users, self._oracle.padded_size,
            "Hadamard indices",
        )
        values = np.asarray(reports.payload["values"])
        if values.shape != indices.shape:
            raise InvalidQueryError(
                f"values must have one entry per user ({reports.n_users}), "
                f"got shape {values.shape}"
            )
        if values.dtype.kind not in "iuf" or not np.all(np.abs(values) == 1):
            raise InvalidQueryError("report values must be -1 or +1")
        self._fold(indices, values)

    def _fold(self, indices: np.ndarray, values: np.ndarray) -> None:
        """Add validated reports (int64 indices, +-1 values) to the sums."""
        self._sums += np.bincount(
            indices, weights=values, minlength=self._oracle.padded_size
        )

    def _fold_codes(self, codes: np.ndarray) -> None:
        """Add reports coded as ``2 * index + [value == +1]`` to the sums.

        Codes fold where they are generated: :meth:`add_runs` (aggregate
        fits) and :meth:`_add_keys` (per-user writes) pass the output of
        :meth:`HadamardRandomizedResponse._perturbed_codes` straight here,
        with no report arrays in between.  One unweighted ``bincount``
        tallies both values of every index; ``+1`` tallies minus ``-1``
        tallies is exact integer arithmetic, so it equals :meth:`_fold`'s
        weighted ``+-1.0`` ``bincount`` bit for bit.  (For reports that
        arrive as index/value arrays the weighted ``bincount`` is the
        cheaper of the two.)
        """
        tallies = np.bincount(codes, minlength=2 * self._oracle.padded_size)
        self._sums += tallies[1::2] - tallies[0::2]

    def _add_items(self, values: np.ndarray, rng: np.random.Generator) -> None:
        self._add_keys(values << 1, rng)

    def _add_keys(self, keys: np.ndarray, rng: np.random.Generator) -> None:
        """Run HRR for users keyed ``2 v + [input negated]`` and fold them.

        The trusted per-user fold: exactly the sums, user count and
        generator state of ``add(encode_batch(v, rng, signs=...))``, but
        no :class:`OracleReports` or int64 index/value arrays are built
        and nothing the server generated itself is re-checked.  ``keys``
        may have any integer dtype (the codes take the same one) and is
        overwritten.  The Haar mechanism keys a level-``l`` user as
        ``item >> (l - 1)``: the block in the high bits, the sign in
        bit 0.
        """
        self._fold_codes(self._oracle._perturbed_codes(keys, rng))
        self._n_users += keys.shape[0]

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
        Each run's sign rides in bit 0 of its key (see
        :meth:`HadamardRandomizedResponse._perturbed_codes`), so a single
        ``np.repeat`` expands values and signs together, in the narrowest
        unsigned dtype holding ``2 D'`` (two bytes per user up to
        ``D' = 2^15``); the user's code takes the same width.  The largest
        ``O(N)`` buffers are the float64 uniforms of the flips and
        ``bincount``'s intp copy of the codes.
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
        oracle = self._oracle
        keys = np.repeat(oracle._keys(values, negative), counts)
        self._fold_codes(oracle._perturbed_codes(keys, rng))

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
        self._index_bits = self._padded_size.bit_length() - 1
        #: Narrowest unsigned dtype holding a user's key or code (< 2 D').
        self._code_dtype = np.min_scalar_type(2 * self._padded_size - 1)

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

        ``negative`` marks users whose input is ``-e_v``.  Works in the
        narrow code dtype and emits int64 indices and int64 ``+-1`` values.
        """
        codes = self._perturbed_codes(self._keys(values, negative), rng)
        reported = np.bitwise_and(codes, 1, dtype=np.int64)
        reported <<= 1
        reported -= 1
        return OracleReports(
            payload={"indices": np.right_shift(codes, 1, dtype=np.int64), "values": reported},
            n_users=values.shape[0],
        )

    def _keys(self, values: np.ndarray, negative: Optional[np.ndarray]) -> np.ndarray:
        """``2 v + [input negated]`` in the code dtype: each user's (or
        run's) item with its sign in bit 0."""
        keys = values.astype(self._code_dtype)
        keys <<= 1
        if negative is not None:
            keys |= negative
        return keys

    def _perturbed_codes(self, keys: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        """Run HRR for the users with ``keys``; return ``2 j + [reported +1]``.

        Draws every user's index ``j`` (the values of
        ``rng.integers(0, D', size=n)``, via
        :func:`~repro.privacy.randomness.power_of_two_integers`), then the
        randomized-response flips from ``rng.random(n)``.  The code
        ``2 j + 1`` carries a ``1`` in bit 0 to meet the key's sign bit, so
        one ``np.bitwise_count`` of ``key & code`` is ``<v, j>`` plus the
        sign: the parity of the reported ``-1``.  The flip is XORed into
        that parity, which then clears bit 0 of the code where the report
        is ``-1``.  ``keys`` is overwritten; codes share its dtype.
        """
        n_users = keys.shape[0]
        codes = power_of_two_integers(rng, self._index_bits, n_users, keys.dtype)
        codes <<= 1
        codes |= 1
        keys &= codes
        parities = np.bitwise_count(keys)
        parities ^= rng.random(n_users) >= self._keep_probability
        parities &= 1
        codes ^= parities
        return codes

    # ------------------------------------------------------------------
    # Aggregator side
    # ------------------------------------------------------------------
    #: Mergeable accumulator over the per-index coefficient sums.
    accumulator_class = HadamardAccumulator

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
        counts are taken as runs of the items ``0..D-1`` and the exact
        batched protocol runs on their expansion
        (:meth:`HadamardAccumulator.add_runs`): one ``np.repeat`` into a
        narrow dtype, the index draws read straight from the generator's
        words, one popcount and one unweighted ``bincount`` — a constant
        number of ``O(N)`` NumPy passes, the same random draws as
        encoding every user.  Exact, not approximate.
        """
        return self.accumulator().add_counts(true_counts, random_state).estimate()

    def theoretical_variance(self, n_users: int) -> float:
        """``4 p (1 - p) / (N (2p - 1)^2) = 4 e^eps / (N (e^eps - 1)^2)``."""
        if n_users <= 0:
            raise InvalidQueryError(f"n_users must be positive, got {n_users!r}")
        p = self._keep_probability
        return 4.0 * p * (1.0 - p) / (n_users * (2.0 * p - 1.0) ** 2)
