"""One contract over every registered frequency oracle.

Each accumulator keeps one float64 statistic vector under its
``statistic_key``; the base class persists, restores and merges it, so the
same checks hold for every oracle in the registry.  Pure oracles (a report
supports its own item with probability ``p``, any other with ``q``) decode
with the one unbias step ``(stat / N - q) / (p - q)``.
"""

import importlib

import numpy as np
import pytest

from repro import persist
from repro.exceptions import InvalidQueryError
from repro.frequency_oracles import (
    OracleAccumulator,
    PureOracle,
    available_oracles,
    make_oracle,
)
from repro.privacy import mechanisms

EPSILON = 1.1
#: Not a power of two, so HRR's statistic is padded past the domain.
DOMAIN = 12
ORACLES = available_oracles()
PURE_ORACLES = [
    name
    for name in ORACLES
    if isinstance(make_oracle(name, epsilon=EPSILON, domain_size=DOMAIN), PureOracle)
]


def _loaded(name, seed, mode="items"):
    oracle = make_oracle(name, epsilon=EPSILON, domain_size=DOMAIN)
    rng = np.random.default_rng(seed)
    items = rng.integers(0, DOMAIN, size=400)
    accumulator = oracle.accumulator()
    if mode == "items":
        return accumulator.add_items(items, rng)
    return accumulator.add_counts(np.bincount(items, minlength=DOMAIN), rng)


def test_three_abstract_hooks():
    assert OracleAccumulator.__abstractmethods__ == {
        "_add_reports",
        "_add_simulated",
        "estimate",
    }


def test_pure_oracles_are_the_four_support_protocols():
    assert PURE_ORACLES == ["grr", "olh", "oue", "sue"]


@pytest.mark.parametrize("name", ORACLES)
class TestOracleContract:
    def test_state_dict_holds_the_user_count_and_one_statistic(self, name):
        accumulator = _loaded(name, 1)
        state = accumulator.state_dict()
        key = accumulator.statistic_key
        assert set(state) == {"n_users", key}
        assert state[key].dtype == np.float64
        assert state[key].shape == (accumulator.statistic_size(accumulator.oracle),)
        assert int(state["n_users"]) == 400

    def test_restore_then_state_dict_gives_identical_bytes(self, name):
        accumulator = _loaded(name, 2)
        state = accumulator.state_dict()
        restored = accumulator.oracle.restore_accumulator(state)
        again = restored.state_dict()
        assert list(again) == list(state)
        for key in state:
            assert again[key].tobytes() == state[key].tobytes()
        assert persist.to_bytes(restored) == persist.to_bytes(accumulator)

    def test_merge_sums_statistics_and_user_counts(self, name):
        left, right = _loaded(name, 3), _loaded(name, 4, mode="counts")
        key = left.statistic_key
        expected = left.state_dict()[key] + right.state_dict()[key]
        merged = left.oracle.restore_accumulator(left.state_dict()).merge(right)
        assert merged.state_dict()[key].tobytes() == expected.tobytes()
        assert merged.n_users == left.n_users + right.n_users

    def test_float_items_and_counts_are_refused(self, name):
        """Floats are refused, not truncated: item 2.9 must not become 2,
        nor a count of 0.7 become 0.  Bools cast to 0/1 without loss."""
        accumulator = make_oracle(name, epsilon=EPSILON, domain_size=DOMAIN).accumulator()
        with pytest.raises(InvalidQueryError, match="integer dtype"):
            accumulator.add_items(np.array([2.9, 7.99]), random_state=0)
        counts = np.zeros(DOMAIN)
        counts[:4] = [2.5, 0.7, 0, 1]
        with pytest.raises(InvalidQueryError, match="integer dtype"):
            accumulator.add_counts(counts, random_state=0)
        assert accumulator.n_users == 0
        accumulator.add_items(np.array([True, False, True]), random_state=0)
        accumulator.add_counts(np.arange(DOMAIN) < 2, random_state=0)
        assert accumulator.n_users == 5

    @pytest.mark.parametrize("n_users", [0, -1])
    def test_variance_needs_a_positive_population(self, name, n_users):
        oracle = make_oracle(name, epsilon=EPSILON, domain_size=DOMAIN)
        with pytest.raises(InvalidQueryError):
            oracle.theoretical_variance(n_users)


@pytest.mark.parametrize("name", PURE_ORACLES)
@pytest.mark.parametrize("mode", ["items", "counts"])
def test_pure_estimate_is_the_unbias_step(name, mode):
    accumulator = _loaded(name, 5, mode)
    oracle = accumulator.oracle
    statistic = accumulator.state_dict()[accumulator.statistic_key]
    expected = (statistic / float(accumulator.n_users) - oracle.q) / (oracle.p - oracle.q)
    np.testing.assert_array_equal(accumulator.estimate(), expected)


@pytest.mark.parametrize(
    "name,expected",
    [
        ("oue", lambda oracle: mechanisms.oue_probabilities(EPSILON)),
        ("sue", lambda oracle: mechanisms.sue_probabilities(EPSILON)),
        ("grr", lambda oracle: mechanisms.grr_probabilities(EPSILON, DOMAIN)),
        ("olh", lambda oracle: mechanisms.olh_probabilities(EPSILON, oracle.hash_range)),
    ],
)
def test_pure_probabilities_come_from_the_privacy_layer(name, expected):
    oracle = make_oracle(name, epsilon=EPSILON, domain_size=DOMAIN)
    pair = expected(oracle)
    assert (oracle.p, oracle.q) == (pair.p, pair.q)


class TestRemovedSurfaces:
    """The scalar ``encode`` fork and what only it used are gone; a single
    user's report is a one-row ``encode_batch``."""

    @pytest.mark.parametrize("name", ORACLES)
    def test_no_scalar_encode(self, name):
        assert not hasattr(make_oracle(name, epsilon=EPSILON, domain_size=DOMAIN), "encode")

    @pytest.mark.parametrize(
        "module,owner,attribute",
        [
            ("repro.frequency_oracles", None, "BinaryRandomizedResponse"),
            ("repro.frequency_oracles.randomized_response", None, "BinaryRandomizedResponse"),
            ("repro.frequency_oracles.local_hashing", "UniversalHashFamily", "sample"),
            ("repro.frequency_oracles.local_hashing", "UniversalHashFamily", "evaluate"),
            ("repro.privacy.budget", "PrivacyBudget", "rr_keep_probability"),
            ("repro.frequency_oracles.accumulators", "OracleAccumulator", "statistic_shapes"),
        ],
    )
    def test_name_is_gone(self, module, owner, attribute):
        target = importlib.import_module(module)
        if owner is not None:
            target = getattr(target, owner)
        assert not hasattr(target, attribute)
