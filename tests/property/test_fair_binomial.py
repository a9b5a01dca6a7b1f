"""Property tests for :func:`repro.privacy.randomness.fair_binomial`.

HRR's count-space sampler splits every cell's users with it, once per
index bit, so it must be Binomial(``n``, 1/2) exactly and read the stream
as documented: the entries, in C order, take consecutive bits of fresh
raw PCG64 words, low bit first, and each call starts on a fresh word.
"""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.privacy import randomness
from repro.privacy.randomness import fair_binomial

seeds = st.integers(min_value=0, max_value=2**64 - 1)
#: Counts around the 64-bit word boundaries, and larger ones.
counts_lists = st.lists(
    st.one_of(st.sampled_from([0, 1, 63, 64, 65, 127, 128, 129]), st.integers(0, 3000)),
    max_size=24,
)


def raw_bits(rng, n_bits):
    """The next ``n_bits`` bits of fresh words, low bit first."""
    words = rng.bit_generator.random_raw(-(-n_bits // 64)).astype("<u8")
    return np.unpackbits(words.view(np.uint8), bitorder="little")[:n_bits]


def reference(rng, counts):
    """Entry ``k`` is the number of ones in its run of the bit stream."""
    flat = np.asarray(counts, dtype=np.int64).reshape(-1)
    taken = np.concatenate([[0], np.cumsum(raw_bits(rng, int(flat.sum())))])
    ends = np.cumsum(flat)
    return (taken[ends] - taken[ends - flat]).reshape(np.shape(counts))


def twins(seed, parked=False):
    """Two PCG64 generators in one state; ``parked`` leaves a half-word."""
    pair = [np.random.default_rng(seed) for _ in range(2)]
    for rng in pair:
        if parked:
            rng.integers(0, 7)  # one 32-bit draw: parks the high half
    return pair


@given(counts=counts_lists, seed=seeds, parked=st.booleans(), rows=st.sampled_from([1, 2]))
@settings(max_examples=200, deadline=None)
def test_matches_the_documented_bit_stream(counts, seed, parked, rows):
    if rows == 2:
        counts = counts[: len(counts) // 2 * 2]
    counts = np.asarray(counts, dtype=np.int64).reshape(rows, -1)
    expected_rng, actual_rng = twins(seed, parked)
    expected = reference(expected_rng, counts)
    actual = fair_binomial(actual_rng, counts)
    assert actual.dtype == np.int64 and actual.shape == counts.shape
    assert np.array_equal(actual, expected)
    assert actual_rng.bit_generator.state == expected_rng.bit_generator.state
    # The parked half-word is neither read nor disturbed.
    assert actual_rng.integers(0, 2**32) == expected_rng.integers(0, 2**32)


@given(counts=counts_lists, seed=seeds, chunk=st.sampled_from([1, 2, 3, 64]))
@settings(max_examples=100, deadline=None)
def test_chunked_words_read_the_same_stream(counts, seed, chunk):
    counts = np.asarray(counts, dtype=np.int64)
    expected_rng, actual_rng = twins(seed)
    expected = reference(expected_rng, counts)
    saved = randomness.FAIR_BINOMIAL_CHUNK_WORDS
    randomness.FAIR_BINOMIAL_CHUNK_WORDS = chunk
    try:
        actual = fair_binomial(actual_rng, counts)
    finally:
        randomness.FAIR_BINOMIAL_CHUNK_WORDS = saved
    assert np.array_equal(actual, expected)
    assert actual_rng.bit_generator.state == expected_rng.bit_generator.state


def test_buffers_do_not_grow_with_the_users():
    # 2^24 bits are 2^18 words: 2 MiB drawn at once, a few chunks' worth here.
    counts = np.full(4, 1 << 22, dtype=np.int64)
    tracemalloc.start()
    try:
        draws = fair_binomial(np.random.default_rng(0), counts)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 8 * randomness.FAIR_BINOMIAL_CHUNK_WORDS
    assert np.all(np.abs(draws - (1 << 21)) < 6 * 2**10)


@pytest.mark.parametrize(
    "n, words", [(0, 0), (1, 1), (63, 1), (64, 1), (65, 2), (128, 2), (129, 3)]
)
def test_a_call_reads_whole_words(n, words):
    actual_rng, expected_rng = twins(n)
    draw = fair_binomial(actual_rng, np.array([n], dtype=np.int64))
    raw = expected_rng.bit_generator.random_raw(words).astype("<u8")
    bits = np.unpackbits(raw.view(np.uint8), bitorder="little")
    assert draw.tolist() == [int(bits[:n].sum())]
    assert actual_rng.bit_generator.state == expected_rng.bit_generator.state


@given(first=counts_lists, second=counts_lists, seed=seeds)
@settings(max_examples=100, deadline=None)
def test_successive_calls_read_disjoint_words(first, second, seed):
    actual_rng, expected_rng = twins(seed)
    first, second = (np.asarray(counts, dtype=np.int64) for counts in (first, second))
    actual = [fair_binomial(actual_rng, first), fair_binomial(actual_rng, second)]
    expected = [reference(expected_rng, first), reference(expected_rng, second)]
    assert all(np.array_equal(a, e) for a, e in zip(actual, expected))
    assert actual_rng.bit_generator.state == expected_rng.bit_generator.state


@pytest.mark.parametrize("n", [1, 2, 5, 63, 64, 65, 200])
def test_pmf_and_moments_match_binomial(n):
    draws = 40_000
    sample = fair_binomial(np.random.default_rng(n), np.full(draws, n, dtype=np.int64))
    assert sample.min() >= 0 and sample.max() <= n
    # Mean n/2 and variance n/4 (about the known mean), each within 5
    # standard errors; the fourth central moment is (n/4)(1 + 3(n-2)/4).
    assert abs(sample.mean() - n / 2) <= 5 * math.sqrt(n / 4 / draws)
    fourth_moment = n / 4 * (1 + 3 * (n - 2) / 4)
    variance_se = math.sqrt((fourth_moment - (n / 4) ** 2) / draws)
    assert abs(np.mean((sample - n / 2) ** 2) - n / 4) <= 5 * variance_se
    # Chi-square of the pmf, pooling the tails into cells of >= 20 expected.
    pmf = np.array([math.comb(n, k) for k in range(n + 1)], dtype=np.float64) / 2.0**n
    observed = np.bincount(sample, minlength=n + 1).astype(np.float64)
    keep = pmf * draws >= 20
    expected = np.append(pmf[keep] * draws, pmf[~keep].sum() * draws)
    observed = np.append(observed[keep], observed[~keep].sum())
    if expected[-1] == 0:
        expected, observed = expected[:-1], observed[:-1]
    chi_square = float(((observed - expected) ** 2 / expected).sum())
    degrees = len(expected) - 1
    assert chi_square <= degrees + 6 * math.sqrt(2 * degrees)


@given(
    make=st.sampled_from([np.random.Philox, np.random.SFC64, np.random.MT19937]),
    counts=counts_lists,
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
@settings(max_examples=40, deadline=None)
def test_other_bit_generators_draw_numpy_binomials(make, counts, seed):
    counts = np.asarray(counts, dtype=np.int64)
    actual_rng, expected_rng = (np.random.Generator(make(seed)) for _ in range(2))
    assert np.array_equal(fair_binomial(actual_rng, counts), expected_rng.binomial(counts, 0.5))
    assert actual_rng.random() == expected_rng.random()
