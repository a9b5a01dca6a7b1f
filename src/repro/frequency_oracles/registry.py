"""Factory for frequency oracles.

Mechanisms and experiment configurations refer to oracles by their short
names (``"oue"``, ``"olh"``, ``"hrr"``, ...); :func:`make_oracle` resolves a
name into a configured instance so that the choice of primitive stays a
plain string in experiment configuration files.
"""

from __future__ import annotations

from typing import Dict, List, Type

from repro.exceptions import ConfigurationError
from repro.frequency_oracles.accumulators import OracleAccumulator
from repro.frequency_oracles.base import FrequencyOracle
from repro.frequency_oracles.hadamard import HadamardRandomizedResponse
from repro.frequency_oracles.local_hashing import OptimalLocalHashing
from repro.frequency_oracles.randomized_response import GeneralizedRandomizedResponse
from repro.frequency_oracles.unary import OptimizedUnaryEncoding, SymmetricUnaryEncoding

__all__ = ["make_oracle", "available_oracles", "register_oracle"]

_REGISTRY: Dict[str, Type[FrequencyOracle]] = {
    GeneralizedRandomizedResponse.name: GeneralizedRandomizedResponse,
    SymmetricUnaryEncoding.name: SymmetricUnaryEncoding,
    OptimizedUnaryEncoding.name: OptimizedUnaryEncoding,
    OptimalLocalHashing.name: OptimalLocalHashing,
    HadamardRandomizedResponse.name: HadamardRandomizedResponse,
}


def register_oracle(oracle_class: Type[FrequencyOracle]) -> Type[FrequencyOracle]:
    """Register a custom oracle class under its ``name`` attribute.

    May be used as a class decorator by downstream users adding their own
    primitives to the hierarchical histogram framework.  The class must set
    ``accumulator_class`` to an
    :class:`~repro.frequency_oracles.accumulators.OracleAccumulator`
    subclass: every mechanism collects and decodes through it.
    """
    name = getattr(oracle_class, "name", None)
    if not name or not isinstance(name, str):
        raise ConfigurationError("oracle classes must define a non-empty `name`")
    accumulator_class = getattr(oracle_class, "accumulator_class", None)
    if not (
        isinstance(accumulator_class, type) and issubclass(accumulator_class, OracleAccumulator)
    ):
        raise ConfigurationError(
            f"oracle class {oracle_class.__name__} must set accumulator_class "
            "to an OracleAccumulator subclass"
        )
    _REGISTRY[name] = oracle_class
    return oracle_class


def available_oracles() -> List[str]:
    """Names of all registered oracles."""
    return sorted(_REGISTRY)


def make_oracle(name: str, epsilon: float, domain_size: int, **kwargs) -> FrequencyOracle:
    """Instantiate a frequency oracle by name.

    Parameters
    ----------
    name:
        One of :func:`available_oracles` (case-insensitive).
    epsilon, domain_size:
        Forwarded to the oracle constructor, together with ``kwargs`` (e.g.
        ``hash_range`` for OLH).
    """
    key = str(name).lower()
    if key not in _REGISTRY:
        raise ConfigurationError(
            f"unknown frequency oracle {name!r}; available: {available_oracles()}"
        )
    return _REGISTRY[key](epsilon=epsilon, domain_size=domain_size, **kwargs)
