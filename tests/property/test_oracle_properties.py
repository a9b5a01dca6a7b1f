"""Property-based tests for the frequency oracles.

Two invariants are checked across the whole (epsilon, domain, oracle) space:

* the perturbation probabilities used by every oracle satisfy the
  ``epsilon``-LDP constraint they advertise;
* the aggregator's estimate is (approximately) unbiased: averaged over many
  simulated aggregations the estimated frequencies converge to the truth.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.frequency_oracles.base import OracleReports
from repro.frequency_oracles.hadamard import HadamardRandomizedResponse
from repro.frequency_oracles.local_hashing import OptimalLocalHashing
from repro.frequency_oracles.randomized_response import GeneralizedRandomizedResponse
from repro.frequency_oracles.unary import OptimizedUnaryEncoding, SymmetricUnaryEncoding
from repro.privacy.mechanisms import ldp_guarantee_epsilon

epsilons = st.floats(min_value=0.1, max_value=3.0, allow_nan=False)
domains = st.integers(min_value=2, max_value=64)


@given(epsilon=epsilons, domain=domains)
@settings(max_examples=100, deadline=None)
def test_oue_bits_satisfy_ldp(epsilon, domain):
    oracle = OptimizedUnaryEncoding(epsilon, domain)
    # Changing the input flips two bits (one 1->0 and one 0->1); the
    # likelihood ratio of the pair is (p / q) * ((1 - q) / (1 - p)).
    ratio = (oracle.p / oracle.q) * ((1.0 - oracle.q) / (1.0 - oracle.p))
    assert np.log(ratio) <= epsilon + 1e-9


@given(epsilon=epsilons, domain=domains)
@settings(max_examples=100, deadline=None)
def test_sue_bits_satisfy_ldp(epsilon, domain):
    oracle = SymmetricUnaryEncoding(epsilon, domain)
    per_bit = ldp_guarantee_epsilon(oracle.p, oracle.q, binary_output=True)
    assert 2 * per_bit <= epsilon + 1e-9


@given(epsilon=epsilons, domain=domains)
@settings(max_examples=100, deadline=None)
def test_grr_satisfies_ldp(epsilon, domain):
    oracle = GeneralizedRandomizedResponse(epsilon, domain)
    assert np.log(oracle.p / oracle.q) <= epsilon + 1e-9


@given(epsilon=epsilons, domain=domains)
@settings(max_examples=100, deadline=None)
def test_olh_reported_symbol_satisfies_ldp(epsilon, domain):
    oracle = OptimalLocalHashing(epsilon, domain)
    # GRR over the hashed domain [g]: true symbol with p, others with
    # (1 - p) / (g - 1) each.
    wrong = (1.0 - oracle.p) / (oracle.hash_range - 1)
    assert np.log(oracle.p / wrong) <= epsilon + 1e-9


@given(epsilon=epsilons, domain=domains)
@settings(max_examples=100, deadline=None)
def test_hrr_bit_satisfies_ldp(epsilon, domain):
    oracle = HadamardRandomizedResponse(epsilon, domain)
    p = oracle.keep_probability
    assert ldp_guarantee_epsilon(p, 1.0 - p, binary_output=True) <= epsilon + 1e-9


@pytest.mark.parametrize(
    "oracle_class", [OptimizedUnaryEncoding, HadamardRandomizedResponse, OptimalLocalHashing]
)
@given(seed=st.integers(min_value=0, max_value=2**31 - 1))
@settings(max_examples=10, deadline=None)
def test_simulated_estimates_are_unbiased(oracle_class, seed):
    rng = np.random.default_rng(seed)
    domain = 8
    oracle = oracle_class(epsilon=2.0, domain_size=domain)
    true = np.array([0.35, 0.2, 0.15, 0.1, 0.08, 0.06, 0.04, 0.02])
    counts = (true * 20_000).astype(int)
    estimates = np.mean(
        [oracle.accumulator().add_counts(counts, rng).estimate() for _ in range(25)], axis=0
    )
    np.testing.assert_allclose(estimates, counts / counts.sum(), atol=0.03)


@given(
    epsilon=st.floats(min_value=0.3, max_value=2.5),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
)
@settings(max_examples=15, deadline=None)
def test_estimates_sum_to_approximately_one(epsilon, seed):
    rng = np.random.default_rng(seed)
    domain = 32
    n_users = 50_000
    oracle = OptimizedUnaryEncoding(epsilon, domain)
    counts = rng.multinomial(n_users, np.full(domain, 1 / domain))
    estimates = oracle.accumulator().add_counts(counts, rng).estimate()
    # The sum of the 32 (nearly independent) unbiased estimates has standard
    # deviation ~sqrt(domain * V_F); a fixed tolerance is far too tight at
    # the low-epsilon end of the strategy, so bound at six sigma instead.
    sigma = np.sqrt(domain * oracle.theoretical_variance(n_users))
    assert estimates.sum() == pytest.approx(1.0, abs=6 * sigma)


@given(
    epsilon=epsilons,
    domain=domains,
    n_users=st.integers(min_value=0, max_value=200),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
)
@settings(max_examples=50, deadline=None)
def test_packed_and_dense_unary_payloads_decode_identically(
    epsilon, domain, n_users, seed
):
    """The packed report layout is a pure re-encoding: same draws, same sums."""
    for oracle_class in (OptimizedUnaryEncoding, SymmetricUnaryEncoding):
        oracle = oracle_class(epsilon, domain)
        values = np.random.default_rng(seed).integers(0, domain, size=n_users)
        packed = oracle.encode_batch(values, np.random.default_rng(seed))
        bits = np.unpackbits(packed.payload["packed_bits"], axis=1, count=domain)
        dense = OracleReports(payload={"bits": bits}, n_users=n_users)
        from_packed = oracle.accumulator().add(packed).estimate()
        from_dense = oracle.accumulator().add(dense).estimate()
        np.testing.assert_array_equal(from_packed, from_dense)
