"""Hypothesis fuzzing of snapshot bytes: typed errors, untouched state.

A snapshot is untrusted input once it has crossed a disk or a wire.  Each
test starts from a valid snapshot, corrupts one part of it — a value
anywhere in the JSON header, or one array of the npz payload — and
restores it through a public entry point.  Two things must hold:

* the restore either succeeds or raises a :class:`~repro.exceptions.ReproError`
  subclass, never a builtin exception;
* a rejected restore into a ``template`` leaves the template's answers and
  ``n_users`` exactly as they were.

Header integers and floats are kept small: the fuzz probes types and
values.  Resource exhaustion is pinned by explicit cases at the end: a
header that claims a huge ``domain_size`` over small arrays.
"""

import json
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.factory import mechanism_from_spec
from repro.exceptions import ConfigurationError, ReproError
from repro.frequency_oracles.registry import make_oracle
from repro.persist import snapshots
from repro.persist.format import FORMAT_VERSION, MAGIC, pack_snapshot, unpack_snapshot
from repro.streaming import ShardedCollector

EPSILON = 1.1
DOMAIN = 16
GRID_SIDE = 4
FUZZ = settings(max_examples=60, deadline=None)

json_scalars = (
    st.none()
    | st.booleans()
    | st.integers(min_value=-2, max_value=5)
    | st.floats(min_value=-2.0, max_value=5.0)
    | st.sampled_from([float("nan"), float("inf")])
    | st.text(max_size=4)
)
json_values = st.recursive(
    json_scalars,
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(max_size=4), children, max_size=3),
    max_leaves=6,
)

fuzz_arrays = st.one_of(
    st.lists(st.floats(width=64), max_size=17).map(
        lambda values: np.asarray(values, dtype=np.float64)
    ),
    st.lists(st.integers(min_value=-3, max_value=3), max_size=17).map(
        lambda values: np.asarray(values, dtype=np.int64)
    ),
    st.integers(min_value=-3, max_value=40).map(np.int64),
    st.floats(width=64).map(np.float64),
    st.lists(st.text(max_size=2), min_size=1, max_size=4).map(np.asarray),
    st.lists(st.booleans(), max_size=17).map(lambda bits: np.asarray(bits, dtype=bool)),
    st.integers(min_value=0, max_value=17).map(lambda n: np.zeros((2, n))),
    st.integers(min_value=0, max_value=17).map(lambda n: np.ones(n, dtype=np.complex128)),
)


def _fitted(spec):
    if spec.startswith("grid"):
        dims = 3 if spec.startswith("grid3d") else 2
        mechanism = mechanism_from_spec(spec, epsilon=EPSILON, domain_size=GRID_SIDE)
        points = np.random.default_rng(1).integers(0, GRID_SIDE, size=(3000, dims))
        mechanism.fit_points(points, random_state=2)
        return mechanism
    mechanism = mechanism_from_spec(spec, epsilon=EPSILON, domain_size=DOMAIN)
    mechanism.fit_items(np.random.default_rng(1).integers(0, DOMAIN, 3000), random_state=2)
    return mechanism


def _accumulator(name):
    accumulator = make_oracle(name, epsilon=EPSILON, domain_size=DOMAIN).accumulator()
    accumulator.add_items(np.arange(DOMAIN).repeat(20), random_state=3)
    return accumulator


def _checkpoint(spec="hhc_4"):
    collector = ShardedCollector(
        spec, epsilon=EPSILON, domain_size=DOMAIN, n_shards=2, random_state=4
    )
    for batch in np.array_split(np.random.default_rng(5).integers(0, DOMAIN, 2000), 3):
        collector.submit(batch)
    return collector.checkpoint_bytes()


def _unpacked(snapshot):
    header, arrays = unpack_snapshot(snapshot)
    header.pop("format_version")
    return header, arrays


_HEAD = struct.Struct("<HI")  # (format version, header length)


def _container(header, arrays):
    """A container around any JSON header, object or not."""
    header_bytes = json.dumps(header).encode("utf-8")
    payload = pack_snapshot({}, arrays)[len(MAGIC) + _HEAD.size + len(b"{}") :]
    head = _HEAD.pack(FORMAT_VERSION, len(header_bytes))
    return MAGIC + head + header_bytes + payload


def _paths(value, prefix=()):
    """Every path into a JSON value, the root included."""
    yield prefix
    if isinstance(value, dict):
        for key, child in value.items():
            yield from _paths(child, prefix + (key,))
    elif isinstance(value, list):
        for index, child in enumerate(value):
            yield from _paths(child, prefix + (index,))


def _corrupt_header(data, header, arrays):
    """Replace or delete one value anywhere in the header."""
    path = data.draw(st.sampled_from(list(_paths(header))))
    value = data.draw(json_values)
    if not path:
        return _container(value, arrays)
    parent = header
    for part in path[:-1]:
        parent = parent[part]
    if data.draw(st.booleans()):
        parent[path[-1]] = value
    else:
        del parent[path[-1]]
    return _container(header, arrays)


def _corrupt_arrays(data, header, arrays):
    """Replace, delete or add one payload array."""
    names = sorted(arrays)
    action = data.draw(st.sampled_from(["replace", "delete", "add"]))
    if action == "add":
        stem = data.draw(st.sampled_from(names + ["extra"]))
        suffix = data.draw(st.sampled_from(["", "/0", "/ones", "/n_users"]))
        arrays[stem + suffix] = data.draw(fuzz_arrays)
    elif action == "delete":
        del arrays[data.draw(st.sampled_from(names))]
    else:
        arrays[data.draw(st.sampled_from(names))] = data.draw(fuzz_arrays)
    return _container(header, arrays)


def _corrupt(data, snapshot):
    header, arrays = _unpacked(snapshot)
    if data.draw(st.booleans(), label="corrupt header"):
        return _corrupt_header(data, header, arrays)
    return _corrupt_arrays(data, header, arrays)


def _restore(call):
    """Run a restore; a typed rejection returns ``None``, anything else
    propagates and fails the test."""
    try:
        return call()
    except ReproError:
        return None


@pytest.mark.parametrize(
    "spec", ["flat_oue", "flat_olh", "hhc_4", "hh_2", "haar", "grid2d_2", "grid3d_2"]
)
class TestMechanismSnapshots:
    @FUZZ
    @given(data=st.data())
    def test_restore_without_template_is_typed(self, spec, data):
        corrupted = _corrupt(data, snapshots.to_bytes(_fitted(spec)))
        _restore(lambda: snapshots.from_bytes(corrupted))

    @FUZZ
    @given(data=st.data())
    def test_rejected_restore_leaves_template_untouched(self, spec, data):
        template = _fitted(spec)
        corrupted = _corrupt(data, snapshots.to_bytes(template))
        answers = template.estimate_frequencies().copy()
        n_users = template.n_users
        if _restore(lambda: snapshots.from_bytes(corrupted, template=template)) is None:
            assert template.n_users == n_users
            assert np.array_equal(template.estimate_frequencies(), answers)


@FUZZ
@given(data=st.data(), name=st.sampled_from(["oue", "olh", "hrr", "grr"]))
def test_accumulator_restore_is_typed_and_leaves_template_untouched(data, name):
    template = _accumulator(name)
    corrupted = _corrupt(data, snapshots.to_bytes(template))
    answers = template.estimate().copy()
    _restore(lambda: snapshots.from_bytes(corrupted))
    _restore(lambda: snapshots.from_bytes(corrupted, template=template))
    _restore(lambda: snapshots.from_bytes(corrupted, template=template.oracle))
    assert template.n_users == 20 * DOMAIN
    assert np.array_equal(template.estimate(), answers)


@FUZZ
@given(data=st.data())
def test_collector_checkpoint_restore_is_typed(data):
    corrupted = _corrupt(data, _checkpoint())
    _restore(lambda: ShardedCollector.from_checkpoint_bytes(corrupted))
    _restore(lambda: snapshots.from_bytes(corrupted))


# The malformed inputs that once raised builtin errors or were silently
# accepted, pinned one by one on an hh_4 snapshot.
HEADER_CASES = {
    "config-not-object": lambda header: header.__setitem__("config", [1, 2]),
    "non-numeric-level-probabilities": lambda header: header["config"].__setitem__(
        "level_probabilities", ["x", "y"]
    ),
    "list-oracle-kwargs": lambda header: header["config"].__setitem__(
        "oracle_kwargs", [1]
    ),
}
ARRAY_CASES = {
    "vector-mechanism-n-users": ("n_users", lambda value: np.array([1, 2])),
    "vector-accumulator-n-users": ("accumulators/1/n_users", lambda value: np.array([1, 2])),
    "string-statistic": ("accumulators/1/ones", lambda value: np.full(value.shape, "a")),
    "nan-statistic": ("accumulators/1/ones", lambda value: np.full(value.shape, np.nan)),
    "negative-level-user-counts": ("level_user_counts", lambda value: -value - 1),
    "float-level-user-counts": ("level_user_counts", lambda value: value + 0.5),
}


@pytest.mark.parametrize("case", sorted(HEADER_CASES))
def test_malformed_config_is_a_configuration_error(case):
    header, arrays = _unpacked(snapshots.to_bytes(_fitted("hh_4")))
    HEADER_CASES[case](header)
    with pytest.raises(ConfigurationError):
        snapshots.from_bytes(_container(header, arrays))


@pytest.mark.parametrize("case", sorted(ARRAY_CASES))
def test_malformed_state_is_a_configuration_error(case):
    template = _fitted("hh_4")
    header, arrays = _unpacked(snapshots.to_bytes(template))
    name, corrupt = ARRAY_CASES[case]
    arrays[name] = corrupt(arrays[name])
    corrupted = _container(header, arrays)
    answers = template.estimate_frequencies().copy()
    with pytest.raises(ConfigurationError):
        snapshots.from_bytes(corrupted)
    with pytest.raises(ConfigurationError):
        snapshots.from_bytes(corrupted, template=template)
    assert template.n_users == 3000
    assert np.array_equal(template.estimate_frequencies(), answers)


def _label_counts(corrupt_counts, n_users=None):
    """Set a snapshot's per-label user counts (and optionally its n_users)."""

    def corrupt(arrays, prefix=""):
        key = prefix + "level_user_counts"
        arrays[key] = corrupt_counts(arrays[key])
        if n_users is not None:
            arrays[prefix + "n_users"] = np.int64(n_users)

    return corrupt


def _move_one_user(counts):
    moved = counts.copy()
    source = int(np.flatnonzero(moved)[0])
    moved[source] -= 1
    moved[(source + 1) % moved.shape[0]] += 1
    return moved


# Snapshots whose user counts contradict each other used to restore
# silently: the per-label counts must equal the users each label's
# accumulator holds, and they must add up to n_users.
INCONSISTENT_COUNTS = {
    "inflated-counts-and-tiny-n-users": _label_counts(
        lambda counts: np.full_like(counts, 10**9), n_users=7
    ),
    "counts-not-matching-accumulators": _label_counts(_move_one_user),
    "n-users-not-matching-counts": _label_counts(lambda counts: counts, n_users=7),
    "unfitted-n-users-with-accumulators": _label_counts(lambda counts: counts, n_users=-1),
}


@pytest.mark.parametrize("spec", ["hhc_4", "haar", "grid2d_2", "hh_4_splitting"])
@pytest.mark.parametrize("case", sorted(INCONSISTENT_COUNTS))
def test_inconsistent_user_counts_are_rejected(spec, case):
    if spec == "hh_4_splitting":
        template = mechanism_from_spec(
            "hh_4", epsilon=EPSILON, domain_size=DOMAIN, budget_strategy="splitting"
        )
        template.fit_items(np.random.default_rng(1).integers(0, DOMAIN, 3000), random_state=2)
    else:
        template = _fitted(spec)
    header, arrays = _unpacked(snapshots.to_bytes(template))
    INCONSISTENT_COUNTS[case](arrays)
    corrupted = _container(header, arrays)
    answers = template.estimate_frequencies().copy()
    with pytest.raises(ConfigurationError):
        snapshots.from_bytes(corrupted)
    with pytest.raises(ConfigurationError):
        snapshots.from_bytes(corrupted, template=template)
    assert template.n_users == 3000
    assert np.array_equal(template.estimate_frequencies(), answers)


@pytest.mark.parametrize("case", sorted(INCONSISTENT_COUNTS))
def test_inconsistent_checkpoint_shard_is_rejected(case):
    header, arrays = _unpacked(_checkpoint())
    INCONSISTENT_COUNTS[case](arrays, prefix="shard0/")
    with pytest.raises(ConfigurationError):
        ShardedCollector.from_checkpoint_bytes(_container(header, arrays))


def _claiming(kind, domain_size):
    """A small ``flat_oue`` snapshot of ``kind`` whose header claims
    ``domain_size``; its arrays still hold the ``DOMAIN``-sized statistic."""
    if kind == "accumulator":
        header, arrays = _unpacked(snapshots.to_bytes(_accumulator("oue")))
        header["oracle"]["domain_size"] = domain_size
        header["signature"][2] = domain_size
        return _container(header, arrays)
    if kind == "mechanism":
        _, arrays = _unpacked(snapshots.to_bytes(_fitted("flat_oue")))
        claimed = mechanism_from_spec("flat_oue", epsilon=EPSILON, domain_size=domain_size)
        header, _ = _unpacked(snapshots.to_bytes(claimed))
        return _container(header, arrays)
    _, arrays = _unpacked(_checkpoint("flat_oue"))
    claimed = ShardedCollector(
        "flat_oue", epsilon=EPSILON, domain_size=domain_size, n_shards=2, random_state=4
    )
    header, _ = _unpacked(claimed.checkpoint_bytes())
    return _container(header, arrays)


# The stored arrays are compared with the configuration before any
# statistic is allocated, so a header claiming a huge domain fails at the
# size of the arrays it carries.
@pytest.mark.parametrize("kind", ["mechanism", "accumulator", "collector"])
def test_huge_claimed_domain_is_a_configuration_error(kind):
    with pytest.raises(ConfigurationError):
        snapshots.from_bytes(_claiming(kind, 2**40))


def test_claimed_domain_is_not_allocated_before_the_check():
    snapshot = _claiming("mechanism", 2**26)
    tracemalloc.start()
    try:
        with pytest.raises(ConfigurationError):
            snapshots.from_bytes(snapshot)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20


def test_restore_holds_one_copy_of_the_statistic():
    oracle = make_oracle("oue", epsilon=EPSILON, domain_size=2**20)
    state = oracle.accumulator().state_dict()
    tracemalloc.start()
    try:
        restored = oracle.restore_accumulator(state)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert restored.n_users == 0
    # The checked 8 MiB float64 copy and its 1 MiB finiteness mask; no
    # zero-filled statistic is built only to be replaced.
    assert peak < 12 * 2**20
