"""Unit tests for the frequency oracle registry / factory."""

import pytest

from repro.exceptions import ConfigurationError
from repro.frequency_oracles.base import FrequencyOracle
from repro.frequency_oracles.registry import available_oracles, make_oracle, register_oracle


class TestRegistry:
    def test_all_paper_oracles_available(self):
        names = available_oracles()
        for expected in ("oue", "olh", "hrr", "grr", "sue"):
            assert expected in names

    @pytest.mark.parametrize("name", ["oue", "sue", "grr", "hrr", "olh"])
    def test_make_oracle_returns_configured_instance(self, name):
        oracle = make_oracle(name, epsilon=1.1, domain_size=32)
        assert isinstance(oracle, FrequencyOracle)
        assert oracle.epsilon == pytest.approx(1.1)
        assert oracle.domain_size == 32

    def test_make_oracle_is_case_insensitive(self):
        assert make_oracle("OUE", epsilon=1.0, domain_size=8).name == "oue"

    def test_make_oracle_forwards_kwargs(self):
        oracle = make_oracle("olh", epsilon=1.0, domain_size=16, hash_range=8)
        assert oracle.hash_range == 8

    def test_unknown_name_raises(self):
        with pytest.raises(ConfigurationError):
            make_oracle("nonexistent", epsilon=1.0, domain_size=8)

    def test_register_custom_oracle(self):
        from repro.frequency_oracles.unary import OptimizedUnaryEncoding

        class CustomOracle(OptimizedUnaryEncoding):
            name = "custom-test-oracle"

        register_oracle(CustomOracle)
        assert "custom-test-oracle" in available_oracles()
        assert isinstance(
            make_oracle("custom-test-oracle", epsilon=1.0, domain_size=4), CustomOracle
        )

    def test_register_requires_name(self):
        class Anonymous:
            name = ""

        with pytest.raises(ConfigurationError):
            register_oracle(Anonymous)

    def test_register_requires_an_accumulator(self):
        from repro.frequency_oracles.unary import OptimizedUnaryEncoding

        class NoAccumulator(OptimizedUnaryEncoding):
            name = "no-accumulator-test-oracle"
            accumulator_class = None

        class NotAnAccumulator(OptimizedUnaryEncoding):
            name = "not-an-accumulator-test-oracle"
            accumulator_class = dict

        for oracle_class in (NoAccumulator, NotAnAccumulator):
            with pytest.raises(ConfigurationError, match="accumulator_class"):
                register_oracle(oracle_class)
            assert oracle_class.name not in available_oracles()


class TestOneDecodePath:
    """Oracles decode only through their accumulators: the one-shot
    wrappers over them are gone."""

    @pytest.mark.parametrize("name", ["oue", "sue", "grr", "hrr", "olh"])
    @pytest.mark.parametrize(
        "attribute", ["aggregate", "simulate_aggregate", "estimate_from_users"]
    )
    def test_wrapper_is_gone(self, name, attribute):
        assert not hasattr(make_oracle(name, epsilon=1.0, domain_size=8), attribute)
        assert not hasattr(FrequencyOracle, attribute)
