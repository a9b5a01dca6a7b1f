"""Unit tests for repro.persist: snapshot round-trips and compatibility gates."""

import numpy as np
import pytest

from repro import persist
from repro.core.factory import mechanism_from_spec
from repro.core.flat import FlatMechanism
from repro.core.hierarchical import HierarchicalHistogramMechanism
from repro.core.wavelet import HaarWaveletMechanism
from repro.exceptions import ConfigurationError
from repro.frequency_oracles.registry import available_oracles, make_oracle
from repro.persist.format import (
    FORMAT_VERSION,
    MAGIC,
    flatten_arrays,
    nest_arrays,
    pack_snapshot,
    unpack_snapshot,
)

DOMAIN = 64
EPSILON = 1.0

MECHANISM_SPECS = [
    "flat_oue",
    "flat_sue",
    "flat_grr",
    "flat_olh",
    "flat_hrr",
    "hh_4",
    "hhc_4",
    "hhc_8_hrr",
    "hhc_4_olh",
    "haar",
    "grid2d_2",
]


@pytest.fixture
def items(rng):
    return rng.integers(0, DOMAIN, size=30_000)


class TestContainerFormat:
    def test_pack_unpack_round_trip(self):
        header = {"kind": "x", "note": "hello"}
        arrays = {"a": np.arange(5), "b/c": np.eye(3)}
        restored_header, restored = unpack_snapshot(pack_snapshot(header, arrays))
        assert restored_header["kind"] == "x"
        assert restored_header["format_version"] == FORMAT_VERSION
        np.testing.assert_array_equal(restored["a"], np.arange(5))
        np.testing.assert_array_equal(restored["b/c"], np.eye(3))

    def test_empty_arrays_allowed(self):
        header, arrays = unpack_snapshot(pack_snapshot({"kind": "x"}, {}))
        assert arrays == {}

    def test_bad_magic_rejected(self):
        with pytest.raises(ConfigurationError):
            unpack_snapshot(b"NOTASNAPSHOT" + b"\x00" * 32)

    def test_truncated_rejected(self):
        data = pack_snapshot({"kind": "x"}, {"a": np.arange(10)})
        with pytest.raises(ConfigurationError):
            unpack_snapshot(data[: len(MAGIC) + 2])
        with pytest.raises(ConfigurationError):
            unpack_snapshot(data[:-10])

    def test_newer_version_rejected(self):
        data = bytearray(pack_snapshot({"kind": "x"}, {}))
        data[len(MAGIC)] = 0xFF  # bump the little-endian version word
        with pytest.raises(ConfigurationError, match="version"):
            unpack_snapshot(bytes(data))

    def test_non_bytes_rejected(self):
        with pytest.raises(ConfigurationError):
            unpack_snapshot("not bytes")

    def test_flatten_nest_inverse(self):
        nested = {"a": {"b": np.arange(3), "c": {"d": np.zeros(2)}}, "e": np.ones(1)}
        flat = flatten_arrays(nested)
        assert set(flat) == {"a/b", "a/c/d", "e"}
        rebuilt = nest_arrays(flat)
        np.testing.assert_array_equal(rebuilt["a"]["c"]["d"], np.zeros(2))

    def test_flatten_rejects_separator_in_keys(self):
        with pytest.raises(ConfigurationError):
            flatten_arrays({"a/b": np.arange(2)})


class TestAccumulatorRoundTrip:
    @pytest.mark.parametrize("oracle_name", sorted(available_oracles()))
    def test_bit_exact_round_trip(self, oracle_name, items, rng):
        oracle = make_oracle(oracle_name, epsilon=EPSILON, domain_size=DOMAIN)
        accumulator = oracle.accumulator().add_items(items, rng)
        data = persist.to_bytes(accumulator)

        self_contained = persist.from_bytes(data)
        templated = persist.from_bytes(data, template=oracle)
        for restored in (self_contained, templated):
            assert restored.n_users == accumulator.n_users
            np.testing.assert_array_equal(restored.estimate(), accumulator.estimate())

    @pytest.mark.parametrize("oracle_name", sorted(available_oracles()))
    def test_restored_accumulator_keeps_accumulating(self, oracle_name, items, rng):
        oracle = make_oracle(oracle_name, epsilon=EPSILON, domain_size=DOMAIN)
        accumulator = oracle.accumulator().add_items(items[:10_000], rng)
        restored = persist.from_bytes(persist.to_bytes(accumulator), template=oracle)
        restored.add_items(items[10_000:], rng)
        assert restored.n_users == items.size
        assert np.all(np.isfinite(restored.estimate()))

    def test_epsilon_mismatch_rejected(self, items, rng):
        accumulator = make_oracle("oue", epsilon=1.0, domain_size=DOMAIN).accumulator()
        accumulator.add_items(items, rng)
        other = make_oracle("oue", epsilon=2.0, domain_size=DOMAIN)
        with pytest.raises(ConfigurationError, match="incompatible"):
            persist.from_bytes(persist.to_bytes(accumulator), template=other)

    def test_domain_mismatch_rejected(self, items, rng):
        accumulator = make_oracle("oue", epsilon=1.0, domain_size=DOMAIN).accumulator()
        accumulator.add_items(items, rng)
        other = make_oracle("oue", epsilon=1.0, domain_size=2 * DOMAIN)
        with pytest.raises(ConfigurationError, match="incompatible"):
            persist.from_bytes(persist.to_bytes(accumulator), template=other)

    def test_oracle_param_mismatch_rejected(self, items, rng):
        oracle = make_oracle("olh", epsilon=1.0, domain_size=DOMAIN, hash_range=4)
        accumulator = oracle.accumulator().add_items(items, rng)
        other = make_oracle("olh", epsilon=1.0, domain_size=DOMAIN, hash_range=8)
        with pytest.raises(ConfigurationError, match="incompatible"):
            persist.from_bytes(persist.to_bytes(accumulator), template=other)

    def test_state_dict_validates_shapes(self):
        oracle = make_oracle("oue", epsilon=1.0, domain_size=DOMAIN)
        accumulator = oracle.accumulator()
        state = accumulator.state_dict()
        state["ones"] = np.zeros(DOMAIN + 1)
        with pytest.raises(ConfigurationError):
            oracle.restore_accumulator(state)
        with pytest.raises(ConfigurationError):
            oracle.restore_accumulator({"bogus": np.zeros(DOMAIN)})


class TestMechanismRoundTrip:
    @pytest.mark.parametrize("spec", MECHANISM_SPECS)
    def test_bit_exact_round_trip(self, spec, items):
        mechanism = mechanism_from_spec(spec, epsilon=EPSILON, domain_size=DOMAIN)
        mechanism.fit_items(items, random_state=7)
        data = persist.to_bytes(mechanism)

        self_contained = persist.from_bytes(data)
        template = mechanism_from_spec(spec, epsilon=EPSILON, domain_size=DOMAIN)
        templated = persist.from_bytes(data, template=template)
        for restored in (self_contained, templated):
            assert restored.n_users == mechanism.n_users
            np.testing.assert_array_equal(
                restored.estimate_frequencies(), mechanism.estimate_frequencies()
            )
            queries = np.array([[0, 10], [5, 40], [0, DOMAIN - 1]])
            np.testing.assert_array_equal(
                restored.answer_ranges(queries), mechanism.answer_ranges(queries)
            )

    @pytest.mark.parametrize("spec", ["flat_oue", "hhc_4", "haar"])
    def test_file_round_trip(self, spec, items, tmp_path):
        mechanism = mechanism_from_spec(spec, epsilon=EPSILON, domain_size=DOMAIN)
        mechanism.fit_items(items, random_state=3)
        path = persist.save(mechanism, tmp_path / "mechanism.snap")
        restored = persist.load(path)
        np.testing.assert_array_equal(
            restored.estimate_frequencies(), mechanism.estimate_frequencies()
        )

    def test_unfitted_round_trip(self):
        mechanism = mechanism_from_spec("hhc_4", epsilon=EPSILON, domain_size=DOMAIN)
        restored = persist.from_bytes(persist.to_bytes(mechanism))
        assert not restored.is_fitted

    def test_restored_mechanism_keeps_collecting(self, items):
        mechanism = mechanism_from_spec("haar", epsilon=EPSILON, domain_size=DOMAIN)
        mechanism.partial_fit(items[:10_000], random_state=1)
        restored = persist.from_bytes(persist.to_bytes(mechanism))
        restored.partial_fit(items[10_000:], random_state=2)
        assert restored.n_users == items.size

    @pytest.mark.parametrize(
        "spec,domain",
        [("hh_2", 64), ("hh_2", 128), ("hhc_4", 64), ("haar", 64)],
    )
    def test_snapshot_round_trip_is_a_fixed_point(self, spec, domain):
        """Restoring and re-saving reproduces the snapshot byte for byte,
        and the level probabilities come back bit-identical (uniform 1/6
        and 1/7 are not fixed points of re-normalization)."""
        mechanism = mechanism_from_spec(spec, epsilon=EPSILON, domain_size=domain)
        mechanism.fit_items(
            np.random.default_rng(0).integers(0, domain, 1000), random_state=1
        )
        data = persist.to_bytes(mechanism)
        restored = persist.from_bytes(data)
        assert persist.to_bytes(restored) == data
        assert (
            restored.level_probabilities.tobytes()
            == mechanism.level_probabilities.tobytes()
        )

    def test_non_default_configuration_survives(self, items):
        mechanism = HierarchicalHistogramMechanism(
            EPSILON,
            DOMAIN,
            branching=4,
            consistency=False,
            budget_strategy="splitting",
            level_probabilities=[0.5, 0.3, 0.2],
        )
        mechanism.fit_items(items, random_state=5)
        restored = persist.from_bytes(persist.to_bytes(mechanism))
        assert restored.budget_strategy == "splitting"
        assert not restored.consistency
        np.testing.assert_array_equal(
            restored.level_probabilities, mechanism.level_probabilities
        )
        np.testing.assert_array_equal(
            restored.estimate_frequencies(), mechanism.estimate_frequencies()
        )

    @pytest.mark.parametrize(
        "other_spec, epsilon, domain",
        [
            ("hhc_4", 2.0, DOMAIN),        # epsilon mismatch
            ("hhc_4", EPSILON, 2 * DOMAIN),  # domain mismatch
            ("hhc_8", EPSILON, DOMAIN),    # branching mismatch
            ("hh_4", EPSILON, DOMAIN),     # consistency mismatch
            ("hhc_4_hrr", EPSILON, DOMAIN),  # oracle mismatch
        ],
    )
    def test_incompatible_template_rejected(self, other_spec, epsilon, domain, items):
        mechanism = mechanism_from_spec("hhc_4", epsilon=EPSILON, domain_size=DOMAIN)
        mechanism.fit_items(items, random_state=0)
        template = mechanism_from_spec(other_spec, epsilon=epsilon, domain_size=domain)
        with pytest.raises(ConfigurationError, match="incompatible"):
            persist.from_bytes(persist.to_bytes(mechanism), template=template)

    def test_wrong_kind_template_rejected(self, items):
        mechanism = mechanism_from_spec("flat_oue", epsilon=EPSILON, domain_size=DOMAIN)
        mechanism.fit_items(items, random_state=0)
        oracle = make_oracle("oue", epsilon=EPSILON, domain_size=DOMAIN)
        with pytest.raises(ConfigurationError):
            persist.from_bytes(persist.to_bytes(mechanism), template=oracle)

    def test_describe_exposes_header_only(self, items):
        mechanism = mechanism_from_spec("hhc_4", epsilon=EPSILON, domain_size=DOMAIN)
        mechanism.fit_items(items, random_state=0)
        header = persist.describe(persist.to_bytes(mechanism))
        assert header["kind"] == "mechanism"
        assert header["config"]["kind"] == "hierarchical"
        assert header["config"]["epsilon"] == pytest.approx(EPSILON)


class TestMechanismConfig:
    @pytest.mark.parametrize(
        "factory",
        [
            lambda: FlatMechanism(EPSILON, DOMAIN, oracle="olh", hash_range=4),
            lambda: HierarchicalHistogramMechanism(
                EPSILON, DOMAIN, branching=8, oracle="hrr", consistency=False
            ),
            lambda: HaarWaveletMechanism(EPSILON, DOMAIN),
        ],
    )
    def test_config_round_trip_preserves_signature(self, factory):
        mechanism = factory()
        clone = persist.mechanism_from_config(persist.mechanism_config(mechanism))
        assert clone is not mechanism
        assert not clone.is_fitted
        assert persist.normalize_signature(
            clone._merge_signature()
        ) == persist.normalize_signature(mechanism._merge_signature())

    def test_unknown_config_kind_rejected(self):
        with pytest.raises(ConfigurationError):
            persist.mechanism_from_config({"kind": "quantum"})

    def test_snapshot_of_unsupported_object_rejected(self):
        with pytest.raises(ConfigurationError):
            persist.to_bytes(object())
