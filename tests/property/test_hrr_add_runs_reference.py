"""Property test pinning HRR's run-length aggregate path bit for bit.

``HadamardAccumulator.add_runs`` (the Haar and tree aggregate fits) must
leave exactly the sums, and the generator exactly in the state, of the
straightforward per-cell simulation it stands for: expand the runs to one
item per user, draw each user's Hadamard index, tally the users' true
``(index, sign)`` cells with one ``bincount`` and draw each cell's
randomized-response flips as one binomial count.  The reference below is a
test-local copy of that path.  (That the per-cell flips are the per-user
protocol in distribution is checked statistically in
``tests/unit/test_oracle_hadamard.py``.)  The sampled domains reach
``D' = 2^17``, past every width the accumulator may pick for its per-user
arrays.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.frequency_oracles.hadamard import HadamardRandomizedResponse

#: Powers of two and their neighbours from D' = 2 to D' = 2^17.
DOMAINS = (
    1, 2, 3, 1000, 1024, 1025, 2**14 - 5, 2**14, 2**14 + 3, 2**15, 2**15 + 1, 2**16, 2**17 - 7
)
seeds = st.integers(min_value=0, max_value=2**32 - 1)


def reference_add_runs(oracle, sums, values, counts, rng, signs=None):
    """Expand → index draw → true codes → ``bincount`` → per-cell binomial."""
    users = np.repeat(np.asarray(values, dtype=np.int64), counts)
    indices = rng.integers(0, oracle.padded_size, size=users.shape[0])
    negative = (np.bitwise_count(users & indices) & 1).astype(np.int64)
    if signs is not None:
        negative ^= np.repeat(np.asarray(signs) < 0, counts)
    tallies = np.bincount(2 * indices + 1 - negative, minlength=2 * oracle.padded_size)
    flips = rng.binomial(tallies, 1.0 - oracle.keep_probability)
    plus = tallies[1::2] - 2 * flips[1::2]
    minus = tallies[0::2] - 2 * flips[0::2]
    return sums + (plus - minus)


@st.composite
def run_batches(draw):
    domain = draw(st.sampled_from(DOMAINS))
    value = st.one_of(st.just(domain - 1), st.integers(min_value=0, max_value=domain - 1))
    values = draw(st.lists(value, max_size=12))
    per_run = {"min_size": len(values), "max_size": len(values)}
    counts = draw(st.lists(st.integers(min_value=0, max_value=40), **per_run))
    signs = draw(st.one_of(st.none(), st.lists(st.sampled_from([-1, 1]), **per_run)))
    return domain, values, counts, signs


@given(
    batch=run_batches(),
    epsilon=st.sampled_from([0.1, 1.1, 5.0]),
    start=st.sampled_from(["zero", "integral", "fractional"]),
    seed=seeds,
)
@settings(max_examples=150, deadline=None)
def test_add_runs_matches_per_cell_reference(batch, epsilon, start, seed):
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
    accumulator._sums = sums.copy()
    actual_rng = np.random.default_rng(seed)
    accumulator.add_runs(
        np.asarray(values, dtype=np.int64),
        np.asarray(counts, dtype=np.int64),
        actual_rng,
        signs=None if signs is None else np.asarray(signs),
    )

    assert accumulator._sums.tobytes() == expected.tobytes()
    assert accumulator.n_users == sum(counts)
    assert actual_rng.bit_generator.state == expected_rng.bit_generator.state


@given(domain=st.sampled_from(DOMAINS), seed=seeds, n_batches=st.integers(1, 3))
@settings(max_examples=40, deadline=None)
def test_successive_add_runs_share_one_stream(domain, seed, n_batches):
    oracle = HadamardRandomizedResponse(epsilon=0.7, domain_size=domain)
    values = np.arange(min(domain, 9), dtype=np.int64)
    counts = (values % 4) * 3 + 1
    signs = 1 - 2 * (values & 1)
    expected_rng = np.random.default_rng(seed)
    expected = np.zeros(oracle.padded_size)
    actual_rng = np.random.default_rng(seed)
    accumulator = oracle.accumulator()
    for _ in range(n_batches):
        expected = reference_add_runs(oracle, expected, values, counts, expected_rng, signs)
        accumulator.add_runs(values, counts, actual_rng, signs=signs)
    assert accumulator._sums.tobytes() == expected.tobytes()
    assert actual_rng.random() == expected_rng.random()
