"""Random number generator plumbing.

Every stochastic entry point in the library accepts a ``random_state``
argument that may be ``None`` (fresh entropy), an ``int`` seed, or an
existing :class:`numpy.random.Generator`.  Centralising the conversion in
:func:`as_generator` keeps experiments reproducible from a single seed and
avoids the legacy ``numpy.random.RandomState`` global state.
"""

from __future__ import annotations

from typing import List, Union

import numpy as np
from numpy.typing import DTypeLike

from repro.exceptions import ConfigurationError

__all__ = [
    "RandomState",
    "as_generator",
    "as_seed_sequence",
    "categorical",
    "fair_binomial",
    "power_of_two_integers",
    "spawn_generators",
]

#: Anything accepted as a source of randomness by the library.
RandomState = Union[None, int, np.integer, np.random.Generator, np.random.SeedSequence]


def as_generator(random_state: RandomState = None) -> np.random.Generator:
    """Coerce ``random_state`` into a :class:`numpy.random.Generator`.

    Passing an existing generator returns it unchanged (so callers can share
    a stream); anything else seeds a fresh PCG64 generator.
    """
    if isinstance(random_state, np.random.Generator):
        return random_state
    if isinstance(random_state, np.random.SeedSequence):
        return np.random.default_rng(random_state)
    if random_state is None:
        return np.random.default_rng()
    return np.random.default_rng(int(random_state))


#: Draw count below which :func:`power_of_two_integers` delegates to
#: ``rng.integers``: reading and writing the PCG64 state costs a few
#: microseconds, which only larger draws win back.
RAW_WORDS_MIN_SIZE = 1024

#: ``(fixed, per index)`` users per index bit from which HRR's aggregate
#: fold samples its users' Hadamard indices in count space
#: (:func:`fair_binomial` per index bit) instead of drawing them one by
#: one: the threshold for ``D'`` indices is
#: ``log2 D' * (fixed + per index * D')`` users.  Fitted to the measured
#: crossover (2-core x86 VM, ``benchmarks/bench_hrr_count_space.py``
#: prints the table): one stage costs ~30 µs plus ~20 ns per cell of
#: ``2 D'``, one user drawn on its own ~7 ns.
COUNT_SPACE_USERS_PER_BIT = (6000, 4)


def power_of_two_integers(
    rng: np.random.Generator, bits: int, size: int, dtype: DTypeLike = np.int64
) -> np.ndarray:
    """``rng.integers(0, 2**bits, size=size)`` as ``dtype``, from raw PCG64 words.

    Returns the same values and leaves ``rng`` in the same state as that
    call, but skips numpy's per-draw bounded-integer step.  For a range
    below ``2^32`` numpy draws one 32-bit word per value and keeps the top
    bits of ``word * 2^bits``; for a power-of-two range Lemire's method
    never rejects (Lemire, "Fast Random Integer Generation in an
    Interval", ACM TOMACS 2019), so each value is simply the top ``bits``
    bits of its word.  PCG64 serves a 64-bit word as its low then its high
    half and parks an unused high half in the state (``has_uint32`` /
    ``uinteger``); the parked half is consumed first here and the state is
    left exactly as numpy leaves it.

    Any other bit generator, ``bits`` outside ``1..31``, or fewer than
    :data:`RAW_WORDS_MIN_SIZE` values delegates to ``rng.integers``.  The
    state is read, advanced and written back in separate steps, so another
    thread must not draw from ``rng`` meanwhile.  This module is the one
    place in the library that reads generator words directly (lint rule
    LDP-R001): here and in :func:`fair_binomial`.
    """
    bit_generator = rng.bit_generator
    if (
        type(bit_generator) is not np.random.PCG64
        or not 1 <= bits <= 31
        or size < RAW_WORDS_MIN_SIZE
    ):
        return rng.integers(0, 1 << bits, size=size).astype(dtype, copy=False)
    out = np.empty(size, dtype=dtype)
    shift = 32 - bits
    state = bit_generator.state
    parked = state["has_uint32"]
    if parked:
        out[0] = state["uinteger"] >> shift
    remaining = size - parked
    raw = bit_generator.random_raw((remaining + 1) // 2)
    words = raw.astype("<u8", copy=False).view("<u4")[:remaining]
    np.right_shift(words, shift, out=out[parked:])
    state = bit_generator.state
    state["has_uint32"] = remaining % 2
    if remaining:
        state["uinteger"] = int(raw[-1] >> np.uint64(32))
    bit_generator.state = state
    return out


#: Raw words :func:`fair_binomial` draws and counts at a time (16 KiB, and
#: as much again for their running popcount), however many users a call
#: splits.
FAIR_BINOMIAL_CHUNK_WORDS = 1 << 11


def fair_binomial(rng: np.random.Generator, counts: np.ndarray) -> np.ndarray:
    """A Binomial(``counts[k]``, 1/2) draw for every entry, as int64.

    Each draw is the popcount of ``counts[k]`` fresh raw PCG64 bits: the
    entries, in C order, read consecutive bits of
    ``rng.bit_generator.random_raw(ceil(counts.sum() / 64))``, low bit of
    each word first, and the unread rest of the last word is dropped, so
    successive calls read disjoint words.  Exact, since each bit is a fair
    coin; the cost is a few passes over the entries plus one over the
    ``counts.sum() / 64`` words, however large each count is (16,384
    entries below 30: 0.3–0.5 ms here, 2.2–2.4 ms through
    ``rng.binomial``, on a 2-core x86 VM).  The words are drawn and
    counted :data:`FAIR_BINOMIAL_CHUNK_WORDS` at a time with a running
    popcount, which reads the same words in the same order.  PCG64's
    parked half-word (see :func:`power_of_two_integers`) is neither read
    nor disturbed.  ``counts`` must be a non-negative int64 array.  Any
    other bit generator draws ``rng.binomial(counts, 0.5)``.
    """
    bit_generator = rng.bit_generator
    if type(bit_generator) is not np.random.PCG64:
        return rng.binomial(counts, 0.5)
    ends = np.add.accumulate(counts.reshape(-1))
    n_words = (int(ends[-1]) + 63) >> 6 if ends.size else 0
    # ``below`` overwrites ``ends`` chunk by chunk with the ones among the
    # first e bits: those through the word of bit e - 1, less those of that
    # word above bit e - 1.  An e of 0 keeps its 0.
    below = ends
    ones_before, first = 0, int(ends.searchsorted(1))
    for start in range(0, n_words, FAIR_BINOMIAL_CHUNK_WORDS):
        words = bit_generator.random_raw(min(FAIR_BINOMIAL_CHUNK_WORDS, n_words - start))
        through = np.bitwise_count(words, out=np.empty(words.shape, dtype=np.int64))
        through[0] += ones_before
        np.add.accumulate(through, out=through)
        ones_before = int(through[-1])
        stop = (start + words.shape[0]) << 6
        last = first + int(ends[first:].searchsorted(stop, side="right"))
        chunk = ends[first:last]
        chunk -= 1
        local = chunk >> 6
        local -= start
        high = words[local]
        high >>= chunk.view(np.uint64) & np.uint64(63)
        high >>= np.uint64(1)
        np.subtract(through[local], np.bitwise_count(high), out=chunk)
        first = last
    draws = np.empty_like(below)
    draws[:1] = below[:1]
    np.subtract(below[1:], below[:-1], out=draws[1:])
    return draws.reshape(counts.shape)


def categorical(
    rng: np.random.Generator, probabilities: np.ndarray, size: int
) -> np.ndarray:
    """``rng.choice(len(probabilities), size=size, p=probabilities)``.

    Runs numpy's own algorithm for that call — one ``rng.random(size)``
    looked up in the normalised cumulative sum with
    ``searchsorted(side="right")`` — so the values, the int64 dtype and the
    generator state match it exactly, zero-probability entries included
    (their flat CDF step is never landed on).  It skips ``choice``'s
    checks of ``p`` (a 14-level, 500-user draw took 43 µs through
    ``choice`` and 25 µs here on a 2-core x86 VM), so ``probabilities``
    must already be a non-negative float64 vector with a positive sum.
    """
    cdf = probabilities.cumsum()
    cdf /= cdf[-1]
    return cdf.searchsorted(rng.random(size), side="right")


def as_seed_sequence(random_state: RandomState) -> np.random.SeedSequence:
    """Coerce ``random_state`` into a spawnable :class:`numpy.random.SeedSequence`.

    The returned sequence is the *parent* stream factory: ``seq.spawn(k)``
    children are deterministic in spawn order, so a holder that keeps the
    sequence around can mint additional independent streams later and still
    match a run that spawned them all up front (numpy's ``SeedSequence``
    tracks ``n_children_spawned``).  This is what lets the sharded collector
    grow its shard set without perturbing existing streams.
    """
    if isinstance(random_state, np.random.SeedSequence):
        return random_state
    if isinstance(random_state, np.random.Generator):
        # Derive a seed sequence from the generator's own stream so that the
        # spawned generators remain reproducible given the parent state.
        return np.random.SeedSequence(
            random_state.integers(0, 2**63 - 1, size=4).tolist()
        )
    if random_state is None:
        return np.random.SeedSequence()
    return np.random.SeedSequence(int(random_state))


def spawn_generators(random_state: RandomState, count: int) -> List[np.random.Generator]:
    """Derive ``count`` statistically independent generators.

    Used by the experiment runner to give each repetition its own stream so
    that repetitions can be reordered or parallelised without changing
    results.
    """
    if count < 0:
        raise ConfigurationError(f"count must be non-negative, got {count!r}")
    seq = as_seed_sequence(random_state)
    return [np.random.default_rng(child) for child in seq.spawn(count)]

