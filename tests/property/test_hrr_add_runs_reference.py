"""Property tests pinning HRR's run-length aggregate path bit for bit.

``HadamardAccumulator.add_runs`` (the Haar and tree aggregate fits) takes
one of two paths, chosen by the batch's user count against the oracle's
count-space threshold, and each must leave exactly the sums, and the
generator exactly in the state, of a straightforward test-local
reference:

* below the threshold, the per-cell simulation: expand the runs to one
  item per user, draw each user's Hadamard index, tally the users' true
  ``(index, sign)`` cells with one ``bincount`` and draw each cell's
  randomized-response flips as one binomial count;
* at or above it, the count-space simulation: tally the users' keys,
  then for each index bit, low bit first, split every cell's users by the
  next bits of the raw PCG64 stream (a ``1`` bit is an index bit of
  ``1``; one fresh run of words per stage) and move them to their child
  cells by index arithmetic, then the same per-cell flips.

(That both paths are the per-user protocol in distribution is checked
statistically in ``tests/unit/test_oracle_hadamard.py`` and
``benchmarks/bench_hrr_count_space.py``.)  The per-user domains reach
``D' = 2^17``, past every width the accumulator may pick for its per-user
arrays; the count-space domains stop at ``D' = 2^14``, whose threshold is
a million users.  A Haar-shaped stack of levels also pins the flips
drawn over the occupied cells only to a draw over every cell.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.frequency_oracles.hadamard import (
    HadamardRandomizedResponse,
    count_space_tallies,
    sample_level_runs,
)

#: Powers of two and their neighbours from D' = 2 to D' = 2^17.
DOMAINS = (
    1, 2, 3, 1000, 1024, 1025, 2**14 - 5, 2**14, 2**14 + 3, 2**15, 2**15 + 1, 2**16, 2**17 - 7
)
#: Domains whose count-space threshold a test batch can reach cheaply.
COUNT_SPACE_DOMAINS = (1, 2, 3, 5, 16, 100, 1024, 2**14 - 5)
seeds = st.integers(min_value=0, max_value=2**32 - 1)


def per_cell_flips(oracle, sums, tallies, rng):
    """Add true-code tallies ``2 j + [true sign +1]`` with per-cell flips."""
    flips = rng.binomial(tallies, 1.0 - oracle.keep_probability)
    plus = tallies[1::2] - 2 * flips[1::2]
    minus = tallies[0::2] - 2 * flips[0::2]
    return sums + (plus - minus)


def reference_per_user(oracle, values, counts, negative, rng):
    """Expand → index draw → true codes → ``bincount``."""
    users = np.repeat(values, counts)
    indices = rng.integers(0, oracle.padded_size, size=users.shape[0])
    parity = (np.bitwise_count(users & indices) & 1).astype(np.int64)
    parity ^= np.repeat(negative, counts)
    return np.bincount(2 * indices + 1 - parity, minlength=2 * oracle.padded_size)


def raw_bits(rng, n_bits):
    """The next ``n_bits`` bits of the stream, in fresh words, low bit first."""
    words = rng.bit_generator.random_raw(-(-n_bits // 64)).astype("<u8")
    return np.unpackbits(words.view(np.uint8), bitorder="little")[:n_bits]


def reference_count_space(oracle, values, counts, negative, rng):
    """Key tallies → one stage per index bit → true-code tallies."""
    cells = 2 * oracle.padded_size
    # Cell 2 x + b: x holds the index bits drawn so far and the item bits
    # not yet met; b is [coefficient +1] so far, i.e. [input +1].
    state = np.bincount(2 * values + 1 - negative, weights=counts, minlength=cells)
    state = state.astype(np.int64)
    x, positive = np.arange(cells) >> 1, np.arange(cells) & 1
    for bit in range(oracle.padded_size.bit_length() - 1):
        taken = np.concatenate([[0], np.cumsum(raw_bits(rng, int(state.sum())))])
        ends = np.cumsum(state)
        ones = taken[ends] - taken[ends - state]
        item_bit = (x >> bit) & 1
        to_zero = 2 * (x & ~(1 << bit)) + positive
        to_one = 2 * (x | (1 << bit)) + (positive ^ item_bit)
        state = np.bincount(to_zero, weights=state - ones, minlength=cells) + np.bincount(
            to_one, weights=ones, minlength=cells
        )
        state = state.astype(np.int64)
    return state


def reference_add_runs(oracle, sums, values, counts, rng, signs=None):
    values = np.asarray(values, dtype=np.int64)
    counts = np.asarray(counts, dtype=np.int64)
    negative = np.zeros_like(values) if signs is None else (np.asarray(signs) < 0).astype(np.int64)
    if counts.sum() >= oracle._count_space_min_users:
        tallies = reference_count_space(oracle, values, counts, negative, rng)
    else:
        tallies = reference_per_user(oracle, values, counts, negative, rng)
    return per_cell_flips(oracle, sums, tallies, rng)


@st.composite
def run_batches(draw):
    """Small runs over any domain, or runs scaled past the count-space
    threshold over a domain where that is cheap."""
    count_space = draw(st.booleans())
    domain = draw(st.sampled_from(COUNT_SPACE_DOMAINS if count_space else DOMAINS))
    value = st.one_of(st.just(domain - 1), st.integers(min_value=0, max_value=domain - 1))
    values = draw(st.lists(value, min_size=int(count_space), max_size=12))
    per_run = {"min_size": len(values), "max_size": len(values)}
    counts = draw(st.lists(st.integers(min_value=0, max_value=40), **per_run))
    if count_space:
        threshold = HadamardRandomizedResponse(1.0, domain)._count_space_min_users
        counts[draw(st.integers(0, len(values) - 1))] += 1
        scale = max(1, -(-threshold // sum(counts)))
        counts = [count * draw(st.integers(scale, 2 * scale)) for count in counts]
    signs = draw(st.one_of(st.none(), st.lists(st.sampled_from([-1, 1]), **per_run)))
    return domain, values, counts, signs


@given(
    batch=run_batches(),
    epsilon=st.sampled_from([0.1, 1.1, 5.0]),
    start=st.sampled_from(["zero", "integral", "fractional"]),
    seed=seeds,
)
@settings(max_examples=150, deadline=None)
def test_add_runs_matches_reference_on_either_path(batch, epsilon, start, seed):
    domain, values, counts, signs = batch
    oracle = HadamardRandomizedResponse(epsilon=epsilon, domain_size=domain)
    starting = np.random.default_rng(seed ^ 0x5EED)
    sums = {
        "zero": np.zeros(oracle.padded_size),
        "integral": starting.integers(-50, 50, oracle.padded_size).astype(np.float64),
        "fractional": starting.standard_normal(oracle.padded_size) * 1e3,
    }[start]
    expected_rng = np.random.default_rng(seed)
    expected = reference_add_runs(oracle, sums, values, counts, expected_rng, signs)

    accumulator = oracle.accumulator()
    accumulator._statistic = sums.copy()
    actual_rng = np.random.default_rng(seed)
    accumulator.add_runs(
        np.asarray(values, dtype=np.int64),
        np.asarray(counts, dtype=np.int64),
        actual_rng,
        signs=None if signs is None else np.asarray(signs),
    )

    assert accumulator._statistic.tobytes() == expected.tobytes()
    assert accumulator.n_users == sum(counts)
    assert actual_rng.bit_generator.state == expected_rng.bit_generator.state


@given(
    domain=st.sampled_from(COUNT_SPACE_DOMAINS),
    count_space=st.booleans(),
    seed=seeds,
    n_batches=st.integers(1, 3),
)
@settings(max_examples=40, deadline=None)
def test_successive_add_runs_share_one_stream(domain, count_space, seed, n_batches):
    oracle = HadamardRandomizedResponse(epsilon=0.7, domain_size=domain)
    values = np.arange(min(domain, 9), dtype=np.int64)
    counts = (values % 4) * 3 + 1
    if count_space:
        counts *= max(1, -(-oracle._count_space_min_users // int(counts.sum())))
    assert (counts.sum() >= oracle._count_space_min_users) == count_space or domain == 1
    signs = 1 - 2 * (values & 1)
    expected_rng = np.random.default_rng(seed)
    expected = np.zeros(oracle.padded_size)
    actual_rng = np.random.default_rng(seed)
    accumulator = oracle.accumulator()
    for _ in range(n_batches):
        expected = reference_add_runs(oracle, expected, values, counts, expected_rng, signs)
        accumulator.add_runs(values, counts, actual_rng, signs=signs)
    assert accumulator._statistic.tobytes() == expected.tobytes()
    assert actual_rng.random() == expected_rng.random()


def full_array_stack(accumulators, keys, counts, rng):
    """The stacked sampler with every cell's flips drawn, empty or not."""
    oracles = [accumulator.oracle for accumulator in accumulators]
    tallies, stacked = [], []
    for oracle, level_keys, level_counts in zip(oracles, keys, counts):
        cells = 2 * oracle.padded_size
        if level_counts.sum() >= oracle._count_space_min_users:
            key_tallies = np.bincount(level_keys, weights=level_counts, minlength=cells)
            stacked.append((len(tallies), key_tallies.astype(np.int64)))
            tallies.append(None)
        else:
            codes = oracle._true_codes(np.repeat(level_keys, level_counts), rng)
            tallies.append(np.bincount(codes, minlength=cells))
    sampled = count_space_tallies([key_tallies for _, key_tallies in stacked], rng)
    for (index, _), level_tallies in zip(stacked, sampled):
        tallies[index] = level_tallies
    flip = 1.0 - oracles[0].keep_probability
    for accumulator, level_tallies in zip(accumulators, tallies):
        level_tallies = level_tallies - 2 * rng.binomial(level_tallies, flip)
        accumulator._statistic += level_tallies[1::2] - level_tallies[0::2]


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_stack_flips_over_occupied_cells_match_a_full_array_draw(seed):
    """500 users over the 14 Haar levels of ``D = 16384``: most cells are
    empty, and skipping them leaves every sum and the generator as a
    draw over all ``2 D'`` cells of every level would."""
    rng = np.random.default_rng(seed)
    oracles = [HadamardRandomizedResponse(1.1, 16384 >> level) for level in range(1, 15)]
    users = np.bincount(rng.integers(0, len(oracles), size=500), minlength=len(oracles))
    keys, counts = [], []
    for oracle, level_users in zip(oracles, users):
        items = rng.integers(0, oracle.domain_size, size=level_users)
        negative = rng.integers(0, 2, size=level_users).astype(oracle._code_dtype)
        keys.append(oracle._keys(items, negative))
        counts.append(np.ones(level_users, dtype=np.int64))
    actual = [oracle.accumulator() for oracle in oracles]
    expected = [oracle.accumulator() for oracle in oracles]
    actual_rng, expected_rng = np.random.default_rng(seed + 10), np.random.default_rng(seed + 10)
    sample_level_runs(actual, keys, counts, actual_rng)
    full_array_stack(expected, keys, counts, expected_rng)
    for left, right in zip(actual, expected):
        assert left._statistic.tobytes() == right._statistic.tobytes()
    assert actual_rng.bit_generator.state == expected_rng.bit_generator.state
