"""Property tests pinning the fast Hadamard paths to their references.

The popcount parity, the constant-geometry FWHT and the multi-level
(dyadic) decode must be *bit-identical* to the straightforward
implementations they replace, not merely close: the HRR and Haar goldens
depend on it.  The references below are test-local copies of the original
code.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.frequency_oracles.hadamard import HadamardRandomizedResponse, dyadic_estimates
from repro.transforms.hadamard import (
    dyadic_fast_walsh_hadamard_transform,
    fast_walsh_hadamard_transform,
    hadamard_entries,
    hadamard_entry,
)

#: Every power-of-two size up to 2^14 (the live-wavelet domain).
powers = st.integers(min_value=0, max_value=14)
seeds = st.integers(min_value=0, max_value=2**32 - 1)
#: Index bound well past any domain; includes the maximum itself.
MAX_INDEX = 2**40 - 1
indices = st.one_of(
    st.sampled_from([0, 1, MAX_INDEX]), st.integers(min_value=0, max_value=MAX_INDEX)
)


def reference_fwht(vector):
    """The textbook in-place butterfly of stride 1, 2, 4, ..."""
    data = np.array(vector, dtype=np.float64, copy=True)
    size = data.shape[0]
    step = 1
    while step < size:
        reshaped = data.reshape(-1, 2 * step)
        left = reshaped[:, :step].copy()
        right = reshaped[:, step:].copy()
        reshaped[:, :step] = left + right
        reshaped[:, step:] = left - right
        data = reshaped.reshape(-1)
        step *= 2
    return data


def reference_dyadic(vector):
    """One reference transform per dyadic block ``[s, 2s)``."""
    data = np.array(vector, dtype=np.float64, copy=True)
    block = 1
    while block < data.shape[0]:
        data[block : 2 * block] = reference_fwht(data[block : 2 * block])
        block *= 2
    return data


def random_vector(power, seed):
    rng = np.random.default_rng(seed)
    # Mixed magnitudes make rounding order visible in the last bits.
    return rng.standard_normal(1 << power) * 10.0 ** rng.integers(-6, 7, 1 << power)


@given(pairs=st.lists(st.tuples(indices, indices), min_size=1, max_size=64))
@settings(max_examples=200, deadline=None)
def test_hadamard_entries_match_scalar_entry(pairs):
    rows = np.array([row for row, _ in pairs], dtype=np.int64)
    cols = np.array([col for _, col in pairs], dtype=np.int64)
    expected = [hadamard_entry(int(row), int(col)) for row, col in pairs]
    entries = hadamard_entries(rows, cols)
    assert entries.dtype == np.int64
    np.testing.assert_array_equal(entries, expected)


@given(power=powers, seed=seeds)
@settings(max_examples=60, deadline=None)
def test_fwht_is_bit_identical_to_reference_butterfly(power, seed):
    vector = random_vector(power, seed)
    assert np.array_equal(fast_walsh_hadamard_transform(vector), reference_fwht(vector))


@given(power=powers, seed=seeds)
@settings(max_examples=60, deadline=None)
def test_dyadic_fwht_is_bit_identical_to_per_level_reference(power, seed):
    vector = random_vector(power, seed)
    before = vector.copy()
    assert np.array_equal(dyadic_fast_walsh_hadamard_transform(vector), reference_dyadic(vector))
    assert np.array_equal(vector, before)


@given(power=st.integers(min_value=1, max_value=14), seed=seeds, data=st.data())
@settings(max_examples=40, deadline=None)
def test_dyadic_estimates_equal_per_level_estimates(power, seed, data):
    size = 1 << power
    rng = np.random.default_rng(seed)
    accumulators = []
    for level in range(1, power + 1):
        oracle = HadamardRandomizedResponse(epsilon=1.0, domain_size=size >> level)
        accumulator = oracle.accumulator()
        # Some levels stay empty, as with skewed level probabilities.
        n_users = data.draw(st.sampled_from([0, 1, 50]))
        accumulator.add_items(rng.integers(0, oracle.domain_size, n_users), rng)
        accumulators.append(accumulator)
    expected = np.zeros(size)
    for accumulator in accumulators:
        block = accumulator.oracle.domain_size
        expected[block : 2 * block] = accumulator.estimate()
    assert np.array_equal(dyadic_estimates(accumulators), expected)
