"""Property tests for :func:`repro.privacy.randomness.power_of_two_integers`.

The helper replaces ``rng.integers(0, 2**bits, size=n)`` on the HRR paths,
so it must return the same values *and* leave the generator where that call
leaves it — including PCG64's parked half-word — or every later draw, and
every HRR and Haar golden, would shift.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.privacy.randomness import RAW_WORDS_MIN_SIZE, power_of_two_integers

seeds = st.integers(min_value=0, max_value=2**64 - 1)
#: Sizes on both sides of the raw-word threshold, odd and even.
EDGE_SIZES = [0, 1, 2, 3, RAW_WORDS_MIN_SIZE - 1, RAW_WORDS_MIN_SIZE, RAW_WORDS_MIN_SIZE + 1]
sizes = st.one_of(st.sampled_from(EDGE_SIZES), st.integers(min_value=0, max_value=5_000))
BIT_GENERATORS = (np.random.Philox, np.random.SFC64, np.random.MT19937, np.random.PCG64DXSM)


def twin_generators(make, seed, parked):
    """Two generators in the same state; ``parked`` leaves a half-word."""
    twins = [np.random.Generator(make(seed)) for _ in range(2)]
    for rng in twins:
        if parked:
            rng.integers(0, 7)  # one 32-bit draw: parks the high half
    return twins


def same_state(left, right):
    """Equality of bit-generator state dicts, some of which hold arrays."""
    if isinstance(left, dict):
        return left.keys() == right.keys() and all(same_state(left[k], right[k]) for k in left)
    if isinstance(left, np.ndarray):
        return np.array_equal(left, right)
    return left == right


def assert_same_stream(expected_rng, actual_rng):
    assert same_state(actual_rng.bit_generator.state, expected_rng.bit_generator.state)
    assert np.array_equal(actual_rng.integers(0, 13, size=5), expected_rng.integers(0, 13, size=5))
    assert actual_rng.random() == expected_rng.random()


@given(bits=st.integers(min_value=0, max_value=31), size=sizes, seed=seeds, parked=st.booleans())
@settings(max_examples=300, deadline=None)
def test_pcg64_matches_integers_and_leaves_the_same_state(bits, size, seed, parked):
    expected_rng, actual_rng = twin_generators(np.random.PCG64, seed, parked)
    expected = expected_rng.integers(0, 2**bits, size=size)
    actual = power_of_two_integers(actual_rng, bits, size)
    assert actual.dtype == expected.dtype == np.int64
    assert np.array_equal(actual, expected)
    assert_same_stream(expected_rng, actual_rng)


@pytest.mark.parametrize("bits", range(32))
def test_every_width_and_parity_of_size(bits):
    for size in EDGE_SIZES + [4 * RAW_WORDS_MIN_SIZE + 7]:
        for parked in (False, True):
            expected_rng, actual_rng = twin_generators(np.random.PCG64, 1000 * bits + size, parked)
            expected = expected_rng.integers(0, 2**bits, size=size)
            assert np.array_equal(power_of_two_integers(actual_rng, bits, size), expected)
            assert_same_stream(expected_rng, actual_rng)


@given(
    make=st.sampled_from(BIT_GENERATORS),
    bits=st.integers(min_value=0, max_value=31),
    size=sizes,
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    parked=st.booleans(),
)
@settings(max_examples=120, deadline=None)
def test_other_bit_generators_fall_back_to_integers(make, bits, size, seed, parked):
    expected_rng, actual_rng = twin_generators(make, seed, parked)
    expected = expected_rng.integers(0, 2**bits, size=size)
    assert np.array_equal(power_of_two_integers(actual_rng, bits, size), expected)
    assert_same_stream(expected_rng, actual_rng)


@pytest.mark.parametrize("dtype", [np.uint8, np.uint16, np.uint32, np.int64])
@pytest.mark.parametrize("parked", [False, True])
def test_narrow_dtypes_hold_the_same_values(dtype, parked):
    bits = np.iinfo(dtype).bits - 1 if dtype != np.int64 else 31
    expected_rng, actual_rng = twin_generators(np.random.PCG64, 77, parked)
    size = 2 * RAW_WORDS_MIN_SIZE + 1
    expected = expected_rng.integers(0, 2**bits, size=size)
    actual = power_of_two_integers(actual_rng, bits, size, dtype)
    assert actual.dtype == dtype
    assert np.array_equal(actual, expected)
    assert_same_stream(expected_rng, actual_rng)


class CountingGenerator(np.random.Generator):
    """A generator that counts its ``integers`` calls."""

    calls = 0

    def integers(self, *args, **kwargs):
        self.calls += 1
        return super().integers(*args, **kwargs)


@pytest.mark.parametrize(
    "make, bits, size, delegated",
    [
        (np.random.PCG64, 1, RAW_WORDS_MIN_SIZE, False),
        (np.random.PCG64, 31, RAW_WORDS_MIN_SIZE, False),
        (np.random.PCG64, 9, RAW_WORDS_MIN_SIZE - 1, True),
        (np.random.PCG64, 0, RAW_WORDS_MIN_SIZE, True),
        (np.random.PCG64, 32, RAW_WORDS_MIN_SIZE, True),
        (np.random.PCG64DXSM, 9, RAW_WORDS_MIN_SIZE, True),
        (np.random.Philox, 9, RAW_WORDS_MIN_SIZE, True),
    ],
)
def test_raw_words_only_for_large_pcg64_draws(make, bits, size, delegated):
    rng = CountingGenerator(make(3))
    power_of_two_integers(rng, bits, size)
    assert rng.calls == int(delegated)
