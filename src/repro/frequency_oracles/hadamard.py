"""Hadamard Randomized Response (HRR) frequency oracle.

Section 3.2 of the paper: the user's one-hot vector ``e_v`` has the (scaled)
Hadamard transform ``phi[v][.]`` whose entries are all ``+-1``.  The user
samples one coefficient index ``j`` uniformly at random, perturbs the single
bit ``phi[v][j]`` with binary randomized response, and reports the pair
``(j, perturbed bit)`` — ``ceil(log2 D) + 1`` bits of communication.

The aggregator sums the unbiased per-report coefficient estimates, divides by
the number of users (after re-weighting for the ``1/D`` sampling rate) and
applies the inverse Hadamard transform to recover frequency estimates for
every item.  Every report adds ``+-1 / (2p - 1)`` to every item's
estimate, whichever index it sampled, so a zero-frequency item's variance
is ``1 / (N (2p - 1)^2)``: ``V_F + 1 / N``, one ``1 / N`` above the
``V_F = 4 e^eps / (N (e^eps - 1)^2)`` of OUE and OLH (see
:meth:`HadamardRandomizedResponse.theoretical_variance`).

This oracle additionally supports *signed* one-hot inputs ``s * e_v`` with
``s`` in ``{-1, +1}``, which is exactly what the Haar wavelet mechanism
(Section 4.6) needs: negating the input merely negates the Hadamard
coefficients, so the same perturbation and decoding apply unchanged.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from repro.exceptions import ConfigurationError, InvalidQueryError
from repro.frequency_oracles.accumulators import OracleAccumulator, checked_report_symbols
from repro.frequency_oracles.base import FrequencyOracle, OracleReports
from repro.privacy.mechanisms import binary_rr_probability
from repro.privacy.randomness import (
    COUNT_SPACE_USERS_PER_BIT,
    RandomState,
    as_generator,
    fair_binomial,
    power_of_two_integers,
)
from repro.transforms.hadamard import (
    dyadic_fast_walsh_hadamard_transform,
    inverse_fast_walsh_hadamard_transform,
    next_power_of_two,
)

__all__ = [
    "HadamardAccumulator",
    "HadamardRandomizedResponse",
    "add_level_runs",
    "count_space_tallies",
    "dyadic_estimates",
    "sample_level_runs",
]


class HadamardAccumulator(OracleAccumulator):
    """Sufficient statistic of HRR: per-index perturbed-coefficient sums.

    Each report contributes its (sign-carrying) perturbed bit to the sampled
    Hadamard index; the length-``D'`` sum vector plus the user count fully
    determine the decoded estimates, and sums from shards simply add.
    """

    statistic_key = "sums"

    @staticmethod
    def statistic_size(oracle: "HadamardRandomizedResponse") -> int:
        return oracle.padded_size

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
        self._statistic += np.bincount(
            indices, weights=values, minlength=self._oracle.padded_size
        )

    def _fold_codes(self, codes: np.ndarray) -> None:
        """Add reports coded as ``2 * index + [value == +1]`` to the sums.

        The per-user fold: :meth:`_add_keys` passes the output of
        :meth:`HadamardRandomizedResponse._perturbed_codes` straight here,
        with no report arrays in between.  One unweighted ``bincount``
        tallies both values of every index; ``+1`` tallies minus ``-1``
        tallies is exact integer arithmetic, so it equals :meth:`_fold`'s
        weighted ``+-1.0`` ``bincount`` bit for bit.  (For reports that
        arrive as index/value arrays the weighted ``bincount`` is the
        cheaper of the two.)
        """
        tallies = np.bincount(codes, minlength=2 * self._oracle.padded_size)
        self._statistic += tallies[1::2] - tallies[0::2]

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

        Exact in distribution; per-user mode keeps the per-user stream.
        The users' indices and flips are sampled by :func:`add_level_runs`
        over a stack of one level.
        Only the run arrays are validated — ``O(runs)``, not ``O(users)``
        — because the users are simulated here and need no re-checking.
        Each run's sign rides in bit 0 of its key (see
        :meth:`HadamardRandomizedResponse._keys`).
        """
        oracle = self._oracle
        values = oracle._check_values(values)
        counts = np.asarray(counts, dtype=np.int64)
        if counts.shape != values.shape or (counts.size and counts.min() < 0):
            raise InvalidQueryError("counts must be non-negative, one per run")
        negative = None if signs is None else oracle._negative_mask(signs, values.shape[0])
        keys = oracle._keys(values, negative)
        add_level_runs([self], [keys], [counts], as_generator(random_state))
        return self

    def _add_simulated(self, counts: np.ndarray, rng: np.random.Generator) -> None:
        """Exact in distribution; per-user mode keeps the per-user stream.

        HRR reports couple the sampled index with the user's item, so there
        is no per-item closed-form aggregate to sample from; instead the
        counts are taken as runs of the items ``0..D-1``
        (:func:`sample_level_runs`, the one aggregate HRR path, over a stack
        of one level): the indices are sampled in count space for
        a large batch or drawn per user for a small one, then the flips
        are one binomial count per (index, sign) cell — the per-cell
        simulation the unary oracles use.
        """
        oracle = self._oracle
        # The keys 2 v of the items v = 0..D-1, all with sign +1.
        keys = np.arange(0, 2 * oracle.domain_size, 2, dtype=oracle._code_dtype)
        sample_level_runs([self], [keys], [counts], rng)

    def _coefficient_estimates(self) -> np.ndarray:
        # Each coefficient was sampled with probability 1/D', so the sum over
        # the users that picked index j estimates N/D' * (2p-1) * C_j.
        oracle = self._oracle
        return self._statistic * oracle.padded_size / (self._n_users * oracle.unbiasing_factor)

    def estimate(self) -> np.ndarray:
        """Unbiased estimates of every Hadamard coefficient of the
        population's mean (signed) indicator vector, inverted in
        ``O(D log D)``."""
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


def add_level_runs(
    accumulators: Sequence[HadamardAccumulator],
    keys: Sequence[np.ndarray],
    counts: Sequence[np.ndarray],
    rng: np.random.Generator,
) -> None:
    """Fold ``counts[i][k]`` users keyed ``keys[i][k]`` into
    ``accumulators[i]``: :func:`sample_level_runs` samples their statistic
    and each level's user count grows by its users.  A Haar fit's levels
    go through here together, :meth:`HadamardAccumulator.add_runs` as a
    stack of one."""
    sample_level_runs(accumulators, keys, counts, rng)
    for accumulator, level_counts in zip(accumulators, counts):
        accumulator._n_users += int(level_counts.sum())


def sample_level_runs(
    accumulators: Sequence[HadamardAccumulator],
    keys: Sequence[np.ndarray],
    counts: Sequence[np.ndarray],
    rng: np.random.Generator,
) -> None:
    """Add the sampled statistic of ``counts[i][k]`` users keyed
    ``keys[i][k]`` to ``accumulators[i]``, per cell, leaving the user
    counts to the caller.

    The aggregate HRR sampler, of one level and of a Haar fit's levels
    together.  Keys are ``2 v + [input negated]`` (see
    :meth:`HadamardRandomizedResponse._keys`) and the levels must share one
    ``epsilon``.  First each level's users' true
    codes ``2 j + [true sign is +1]`` are tallied, by whichever way is
    cheaper for that level's size:

    * per user, below the level's ``_count_space_min_users`` (``log2 D' *
      (fixed + per_index * D')`` users,
      :data:`~repro.privacy.randomness.COUNT_SPACE_USERS_PER_BIT`, the
      measured crossover), level by level: the runs are expanded in order
      with one ``np.repeat`` (two bytes per user up to ``D' = 2^15``), each
      user draws its index (:meth:`HadamardRandomizedResponse._true_codes`)
      and one unweighted ``bincount`` tallies the codes;
    * in count space otherwise, all such levels together
      (:func:`count_space_tallies`): one stage per index bit of the
      largest level, each one ``fair_binomial`` call over every unfinished
      level's cells, and no per-user array.

    Then each user's flip is an independent Bernoulli(``1 - p``) draw, so
    the flips of the ``T`` users in a cell number exactly Binomial(``T``,
    ``1 - p``): one ``rng.binomial`` over every level's occupied cells
    (``Binomial(0, .)`` reads no generator state, so that is every cell).  A
    flipped ``+1`` user reports ``-1`` and vice versa, so each cell nets
    ``T - 2 F`` and index ``j`` gains ``(T+ - 2 F+) - (T- - 2 F-)``, exact
    integer arithmetic.
    """
    oracles = [accumulator.oracle for accumulator in accumulators]
    tallies: List[Optional[np.ndarray]] = []
    stacked, key_tallies = [], []
    for oracle, level_keys, level_counts in zip(oracles, keys, counts):
        cells = 2 * oracle.padded_size
        if level_counts.sum() >= oracle._count_space_min_users:
            stacked.append(len(tallies))
            key_tallies.append(
                np.bincount(level_keys, weights=level_counts, minlength=cells).astype(np.int64)
            )
            tallies.append(None)
        else:
            users = np.repeat(level_keys.astype(oracle._code_dtype, copy=False), level_counts)
            tallies.append(np.bincount(oracle._true_codes(users, rng), minlength=cells))
    for index, level_tallies in zip(stacked, count_space_tallies(key_tallies, rng)):
        tallies[index] = level_tallies
    flat = np.concatenate(tallies)
    occupied = np.flatnonzero(flat)
    flat[occupied] -= 2 * rng.binomial(flat[occupied], 1.0 - oracles[0].keep_probability)
    start = 0
    for accumulator, level_tallies in zip(accumulators, tallies):
        cells = flat[start : start + level_tallies.shape[0]]
        start += level_tallies.shape[0]
        accumulator._statistic += cells[1::2] - cells[0::2]


def count_space_tallies(
    key_tallies: Sequence[np.ndarray], rng: np.random.Generator
) -> List[np.ndarray]:
    """Count-space :meth:`~HadamardRandomizedResponse._true_codes` for a
    stack of levels: the tallies of the users' true codes, sampled from the
    int64 tallies of their keys ``2 v + [input negated]`` (length ``2 D'``
    each, ``D'`` a power of two) with no per-user array.

    A cell holds (the index bits drawn so far, the item bits not yet met,
    a parity bit), ``2 D'`` cells a level.  Index bit by index bit, low
    bit first, the ``n`` users of every cell draw that bit of their index:
    Binomial(``n``, 1/2) of them draw a ``1``
    (:func:`~repro.privacy.randomness.fair_binomial`) and the rest a
    ``0``.  A ``1`` meeting a ``1`` bit of the item flips the parity, and
    the cells of the two item bits merge.  The parity starts as ``[input
    +1]``, so after ``log2 D'`` stages cell ``2 j + b`` counts the users of
    index ``j`` whose true coefficient ``(-1)^(<v, j> + negated)`` is
    ``+1`` iff ``b``: the code tallies of independent uniform indices,
    exact in distribution.

    The levels' states are concatenated, largest first, into one buffer
    that every stage updates in place.  The stage for index bit ``b`` runs
    one ``fair_binomial`` call and its sums over every level with more
    than ``b`` index bits: each such level's block is a whole number of
    ``(2, 2^b, 2)`` cells, so the reshape never mixes levels, and a
    finished level drops off the tail.
    A Haar fit's stack takes as many calls as its largest level has index
    bits, 9 at ``D = 1024`` instead of one per level and bit, 45; a stack
    of one is the one-level sampler.  Returns the tallies in the order
    given.
    """
    if not key_tallies:
        return []
    order = sorted(range(len(key_tallies)), key=lambda index: -key_tallies[index].shape[0])
    sizes = [key_tallies[index].shape[0] for index in order]
    state = np.concatenate([key_tallies[index].reshape(-1, 2)[:, ::-1].ravel() for index in order])
    tallies: List[Optional[np.ndarray]] = [None] * len(order)
    active, bit = len(order), 0
    while True:
        # Levels with ``bit`` index bits (``2 << bit`` cells) are finished.
        while active and sizes[active - 1] == 2 << bit:
            active -= 1
            end = state.shape[0] - sizes[active]
            tallies[order[active]], state = state[end:], state[:end]
        if not active:
            return tallies
        # (higher bits, this item/index bit, lower index bits, parity)
        cells = state.reshape(-1, 2, 1 << bit, 2)
        ones = fair_binomial(rng, cells)
        # In place: the zeros of both item bits merge, and a one meeting a
        # one bit of the item flips the parity.
        cells -= ones
        cells[:, 0] += cells[:, 1]
        np.add(ones[:, 0, :, 0], ones[:, 1, :, 1], out=cells[:, 1, :, 0])
        np.add(ones[:, 0, :, 1], ones[:, 1, :, 0], out=cells[:, 1, :, 1])
        bit += 1


class HadamardRandomizedResponse(FrequencyOracle):
    """HRR frequency oracle.

    Report layout (:meth:`encode_batch`): ``{"indices", "values"}``, int64
    arrays of one entry per user — each user's sampled Hadamard index and
    her perturbed ``-1`` / ``+1`` coefficient.

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
        self._padded_size = next_power_of_two(domain_size)
        self._keep_probability = binary_rr_probability(epsilon)
        self._index_bits = self._padded_size.bit_length() - 1
        #: Narrowest unsigned dtype holding a user's key or code (< 2 D').
        self._code_dtype = np.min_scalar_type(2 * self._padded_size - 1)
        fixed, per_index = COUNT_SPACE_USERS_PER_BIT
        #: Batch size from which aggregate mode samples in count space.
        self._count_space_min_users = self._index_bits * (fixed + per_index * self._padded_size)

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
    def encode_batch(
        self,
        values: np.ndarray,
        random_state: RandomState = None,
        signs: Optional[np.ndarray] = None,
    ) -> OracleReports:
        """Encode a population, ``signs[i] * e_{values[i]}`` per user (all
        ``+1`` by default).  Works in the narrow code dtype and emits int64
        indices and int64 ``+-1`` values."""
        values = self._check_values(values)
        negative = None if signs is None else self._negative_mask(signs, values.shape[0])
        codes = self._perturbed_codes(self._keys(values, negative), as_generator(random_state))
        reported = np.bitwise_and(codes, 1, dtype=np.int64)
        reported <<= 1
        reported -= 1
        return OracleReports(
            payload={"indices": np.right_shift(codes, 1, dtype=np.int64), "values": reported},
            n_users=values.shape[0],
        )

    @staticmethod
    def _negative_mask(signs: np.ndarray, n_users: int) -> np.ndarray:
        signs = np.asarray(signs, dtype=np.int64)
        if signs.shape != (n_users,):
            raise InvalidQueryError("signs must have one entry per user")
        if not np.all(np.abs(signs) == 1):
            raise InvalidQueryError("signs must be -1 or +1")
        return signs < 0

    def _keys(self, values: np.ndarray, negative: Optional[np.ndarray]) -> np.ndarray:
        """``2 v + [input negated]`` in the code dtype: each user's (or
        run's) item with its sign in bit 0."""
        keys = values.astype(self._code_dtype)
        keys <<= 1
        if negative is not None:
            keys |= negative
        return keys

    def _true_codes(self, keys: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        """Draw the users' indices; return ``2 j + [true coefficient +1]``.

        Draws every user's index ``j`` (the values of
        ``rng.integers(0, D', size=n)``, via
        :func:`~repro.privacy.randomness.power_of_two_integers`).  The code
        ``2 j + 1`` carries a ``1`` in bit 0 to meet the key's sign bit, so
        one ``np.bitwise_count`` of ``key & code`` is ``<v, j>`` plus the
        sign: the parity of a true ``-1``, which then clears bit 0 of the
        code.  ``keys`` is overwritten; codes share its dtype.
        """
        codes = power_of_two_integers(rng, self._index_bits, keys.shape[0], keys.dtype)
        codes <<= 1
        codes |= 1
        keys &= codes
        parities = np.bitwise_count(keys)
        parities &= 1
        codes ^= parities
        return codes

    def _perturbed_codes(self, keys: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        """Run HRR per user for ``keys``; return ``2 j + [reported +1]``.

        The per-user protocol: :meth:`_true_codes`, then one flip per user
        from ``rng.random(n)``, XORed into bit 0.  ``keys`` is overwritten.
        """
        codes = self._true_codes(keys, rng)
        codes ^= rng.random(keys.shape[0]) >= self._keep_probability
        return codes

    # ------------------------------------------------------------------
    # Aggregator side
    # ------------------------------------------------------------------
    #: Mergeable accumulator over the per-index coefficient sums.
    accumulator_class = HadamardAccumulator

    def theoretical_variance(self, n_users: int) -> float:
        """``1 / (N (2p - 1)^2) = ((e^eps + 1) / (e^eps - 1))^2 / N``.

        A user adds ``phi[v][j] y / (2p - 1)`` to item ``v``'s estimate,
        whose square is ``1 / (2p - 1)^2`` whichever index ``j`` it drew,
        so an item of frequency ``f`` has variance ``(1 / (2p - 1)^2 - f) /
        N``; this is its ``f = 0`` value.  It is ``1 / N`` above OUE's
        ``4 e^eps / (N (e^eps - 1)^2)``, the ``V_F`` of
        :mod:`repro.analysis.variance`.
        """
        if n_users <= 0:
            raise InvalidQueryError(f"n_users must be positive, got {n_users!r}")
        return 1.0 / (n_users * self.unbiasing_factor**2)
