"""Property tests pinning the per-user write path bit for bit.

Per-user collection draws every user's level with
:func:`~repro.privacy.randomness.categorical` and folds HRR users straight
into the level sums with ``HadamardAccumulator._add_keys`` /
``_add_items``.  Each must be indistinguishable from the straightforward
path it replaces:

* the fold leaves the sums (bit for bit; a mismatch prints ``float.hex``),
  the user count and the generator state of
  ``add(encode_batch(values, rng, signs=...))``;
* the level draw returns the values and dtype of
  ``rng.choice(len(p), size=n, p=p)`` and leaves the generator in the same
  state — including draws that land exactly on a step of the cumulative
  distribution, which random seeds essentially never produce, so those
  generators are built to emit a chosen first word.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.frequency_oracles.hadamard import HadamardRandomizedResponse
from repro.privacy.randomness import RAW_WORDS_MIN_SIZE, categorical

#: Powers of two and their neighbours from D' = 1 to D' = 2^17.
DOMAINS = (1, 2, 3, 5, 1000, 1024, 1025, 2**14 - 5, 2**14, 2**15 + 1, 2**16, 2**17 - 7, 2**17)
#: Batch sizes: empty, single, odd and either side of the raw-word cut-over.
SIZES = (0, 1, 7, 37, RAW_WORDS_MIN_SIZE - 1, RAW_WORDS_MIN_SIZE, RAW_WORDS_MIN_SIZE + 1)
seeds = st.integers(min_value=0, max_value=2**32 - 1)


def assert_same_sums(actual, expected):
    """Bit-identical float64 sums; mismatches are reported as ``float.hex``."""
    mismatches = np.flatnonzero(actual.view(np.int64) != expected.view(np.int64))
    assert mismatches.size == 0, [
        (int(index), float.hex(actual[index]), float.hex(expected[index]))
        for index in mismatches[:5]
    ]


@st.composite
def user_batches(draw):
    domain = draw(st.sampled_from(DOMAINS))
    n_users = draw(st.one_of(st.sampled_from(SIZES), st.integers(0, 3 * RAW_WORDS_MIN_SIZE)))
    signed = draw(st.booleans())
    return domain, n_users, signed


@given(
    batch=user_batches(),
    epsilon=st.sampled_from([0.1, 1.1, 5.0]),
    start=st.sampled_from(["zero", "integral", "fractional"]),
    seed=seeds,
)
@settings(max_examples=120, deadline=None)
def test_trusted_fold_matches_report_round_trip(batch, epsilon, start, seed):
    domain, n_users, signed = batch
    oracle = HadamardRandomizedResponse(epsilon=epsilon, domain_size=domain)
    data = np.random.default_rng(seed ^ 0x5EED)
    values = data.integers(0, domain, size=n_users)
    signs = 1 - 2 * data.integers(0, 2, size=n_users) if signed else None
    sums = {
        "zero": np.zeros(oracle.padded_size),
        "integral": data.integers(-50, 50, oracle.padded_size).astype(np.float64),
        "fractional": data.standard_normal(oracle.padded_size) * 1e3,
    }[start]

    expected_rng = np.random.default_rng(seed)
    expected = oracle.accumulator()
    expected._statistic = sums.copy()
    expected.add(oracle.encode_batch(values, expected_rng, signs=signs))

    actual_rng = np.random.default_rng(seed)
    actual = oracle.accumulator()
    actual._statistic = sums.copy()
    if signed:
        actual._add_keys((values << 1) | (signs < 0), actual_rng)
    else:
        actual._add_items(values, actual_rng)

    assert_same_sums(actual._statistic, expected._statistic)
    assert actual.n_users == expected.n_users == n_users
    assert actual_rng.bit_generator.state == expected_rng.bit_generator.state


@given(domain=st.sampled_from(DOMAINS), n_users=st.sampled_from(SIZES), seed=seeds)
@settings(max_examples=40, deadline=None)
def test_public_add_items_matches_report_round_trip(domain, n_users, seed):
    oracle = HadamardRandomizedResponse(epsilon=0.7, domain_size=domain)
    values = np.random.default_rng(seed ^ 0xF00D).integers(0, domain, size=n_users)
    expected_rng = np.random.default_rng(seed)
    expected = oracle.accumulator().add(oracle.encode_batch(values, expected_rng))
    actual_rng = np.random.default_rng(seed)
    actual = oracle.accumulator().add_items(values.tolist(), actual_rng)
    assert_same_sums(actual._statistic, expected._statistic)
    assert actual.n_users == expected.n_users
    assert actual_rng.bit_generator.state == expected_rng.bit_generator.state


@given(height=st.integers(1, 17), n_users=st.sampled_from(SIZES), seed=seeds)
@settings(max_examples=40, deadline=None)
def test_haar_level_key_is_block_and_sign(height, n_users, seed):
    """``item >> (l - 1)`` keys the level-``l`` user as the block with the
    right-half sign, the Haar mechanism's encode-batch arguments."""
    size = 1 << height
    data = np.random.default_rng(seed ^ 0xBEEF)
    items = data.integers(0, size, size=n_users)
    level = int(data.integers(1, height + 1))
    oracle = HadamardRandomizedResponse(epsilon=1.1, domain_size=size >> level)
    expected_rng = np.random.default_rng(seed)
    signs = 1 - 2 * ((items >> (level - 1)) & 1)
    expected = oracle.accumulator().add(
        oracle.encode_batch(items >> level, expected_rng, signs=signs)
    )
    actual_rng = np.random.default_rng(seed)
    actual = oracle.accumulator()
    actual._add_keys(items >> (level - 1), actual_rng)
    assert_same_sums(actual._statistic, expected._statistic)
    assert actual.n_users == expected.n_users
    assert actual_rng.bit_generator.state == expected_rng.bit_generator.state


# ----------------------------------------------------------------------
# Level draw
# ----------------------------------------------------------------------
_PCG64_MULTIPLIER = 0x2360ED051FC65DA44385DF649FCCF645


def generator_emitting(word: int, seed: int) -> np.random.Generator:
    """A PCG64 generator whose next 64-bit output is ``word``.

    PCG64 steps its 128-bit LCG state and outputs ``rotr(high ^ low, high
    >> 58)``; a post-step state with the top six bits clear and ``low =
    word ^ high`` outputs ``word``, and stepping back is one modular
    inverse.  ``rng.random()`` then returns ``(word >> 11) * 2**-53``.
    """
    rng = np.random.default_rng(seed)
    state = rng.bit_generator.state
    high = (seed * 0x9E3779B97F4A7C15) & ((1 << 58) - 1)
    stepped = (high << 64) | (word ^ high)
    inverse = pow(_PCG64_MULTIPLIER, -1, 1 << 128)
    state["state"]["state"] = (stepped - state["state"]["inc"]) * inverse % (1 << 128)
    state["has_uint32"] = 0
    rng.bit_generator.state = state
    return rng


@st.composite
def level_distributions(draw):
    """Probability vectors with zero entries, some of them dyadic (exact steps)."""
    weights = draw(st.lists(st.integers(0, 8), min_size=1, max_size=20))
    if not any(weights):
        weights[draw(st.integers(0, len(weights) - 1))] = 1
    probabilities = np.asarray(weights, dtype=np.float64)
    return probabilities / probabilities.sum()


def assert_draws_match(probabilities, n_users, make_rng):
    expected_rng, actual_rng = make_rng(), make_rng()
    expected = expected_rng.choice(probabilities.shape[0], size=n_users, p=probabilities)
    actual = categorical(actual_rng, probabilities, n_users)
    assert actual.dtype == expected.dtype
    assert actual.tolist() == expected.tolist()
    assert actual_rng.bit_generator.state == expected_rng.bit_generator.state


@given(
    probabilities=level_distributions(),
    n_users=st.one_of(st.sampled_from(SIZES), st.integers(0, 5000)),
    seed=seeds,
)
@settings(max_examples=150, deadline=None)
def test_categorical_matches_choice(probabilities, n_users, seed):
    assert_draws_match(probabilities, n_users, lambda: np.random.default_rng(seed))


@given(
    weights=st.lists(st.integers(0, 4), max_size=15),
    data=st.data(),
    seed=seeds,
)
@settings(max_examples=150, deadline=None)
def test_categorical_matches_choice_on_cdf_steps(weights, data, seed):
    """A uniform equal to a CDF value picks the next level with positive
    probability (``searchsorted(side="right")``), exactly like ``choice``."""
    # A filler weight tops the total up to 2^k, so every CDF value is an
    # exact dyadic double that a uniform can equal.
    total = sum(weights)
    weights.insert(data.draw(st.integers(0, len(weights))), (1 << total.bit_length()) - total)
    probabilities = np.asarray(weights, dtype=np.float64) / sum(weights)
    cdf = probabilities.cumsum()
    steps = sorted({float(value) for value in cdf if value < 1.0} | {0.0})
    step = data.draw(st.sampled_from(steps))
    word = int(step * 2**53) << 11
    n_users = data.draw(st.sampled_from([1, 2, 9]))
    assert_draws_match(probabilities, n_users, lambda: generator_emitting(word, seed))


@pytest.mark.parametrize(
    "probabilities, uniform, level",
    [([0.5, 0.0, 0.5], 0.5, 2), ([0.0, 1.0], 0.0, 1), ([0.25, 0.25, 0.0, 0.5], 0.5, 3)],
)
def test_generator_emitting_lands_on_a_step(probabilities, uniform, level):
    rng = generator_emitting(int(uniform * 2**53) << 11, seed=3)
    assert rng.random() == uniform
    rng = generator_emitting(int(uniform * 2**53) << 11, seed=3)
    assert categorical(rng, np.asarray(probabilities), 1).tolist() == [level]
