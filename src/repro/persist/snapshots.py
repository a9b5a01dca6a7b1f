"""Versioned snapshots of accumulators and fitted mechanisms.

The public surface is four symmetric functions —

* :func:`to_bytes` / :func:`from_bytes` for in-memory bytes (what
  :meth:`~repro.streaming.ShardedCollector.checkpoint_bytes` builds on);
* :func:`save` / :func:`load` for durable files (what crash recovery and
  an analyst keeping a fitted mechanism use);

— accepting any :class:`~repro.frequency_oracles.accumulators.OracleAccumulator`
or :class:`~repro.core.base.RangeQueryMechanism` (flat, hierarchical
histogram, Haar wavelet, N-d grid).  A snapshot carries three layers:

1. the container framing (magic, format version — :mod:`repro.persist.format`);
2. a JSON schema header: what kind of object, the configuration needed to
   rebuild it from scratch, and its *merge signature*;
3. the sufficient-statistic arrays, bit-exact.

Snapshots interact cleanly with lazy estimate materialization: only the
sufficient statistics are serialised, so saving a *dirty* mechanism (one
with batches absorbed but estimates not yet rebuilt) neither forces a
materialization nor loses anything — the restored mechanism materializes on
its first query and answers bit-identically to the snapshotted one.

Restoring is allowed in two modes.  With no ``template``, the object is
rebuilt from the stored configuration (so a snapshot is fully
self-contained).  With a ``template`` — an existing oracle, accumulator or
mechanism the caller already holds — the stored merge signature must match
the template's exactly; any divergence (different mechanism spec, epsilon,
domain size, oracle parameters, tree geometry) raises
:class:`~repro.exceptions.ConfigurationError` *before* any state is touched,
which is the compatibility gate that makes restored state safe to
``merge_from``.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Callable, Dict, Optional, TypeVar, Union

import numpy as np

from repro.core.base import RangeQueryMechanism
from repro.core.flat import FlatMechanism
from repro.core.hierarchical import HierarchicalHistogramMechanism
from repro.core.multidim import HierarchicalGrid2D, HierarchicalGridND
from repro.core.wavelet import HaarWaveletMechanism
from repro.exceptions import ConfigurationError, ReproError
from repro.frequency_oracles.accumulators import OracleAccumulator
from repro.frequency_oracles.base import FrequencyOracle
from repro.frequency_oracles.registry import make_oracle
from repro.hierarchy.tree import DomainTree
from repro.persist.format import (
    flatten_arrays,
    nest_arrays,
    pack_snapshot,
    unpack_snapshot,
    write_atomic,
)

__all__ = [
    "build_from_header",
    "from_bytes",
    "load",
    "mechanism_config",
    "mechanism_from_config",
    "normalize_signature",
    "resolve_mechanism",
    "save",
    "to_bytes",
]

Snapshotable = Union[OracleAccumulator, RangeQueryMechanism]

_Built = TypeVar("_Built")


def build_from_header(build: Callable[[], _Built], what: str) -> _Built:
    """Run a constructor fed by untrusted header JSON.

    A wrongly typed or out-of-range value makes the constructor raise a
    builtin error; it surfaces as :class:`~repro.exceptions.ConfigurationError`
    instead, so every malformed snapshot fails with a typed error.
    """
    try:
        return build()
    except ReproError:
        raise
    except (AttributeError, KeyError, TypeError, ValueError, OverflowError) as error:
        raise ConfigurationError(f"{what} is malformed: {error!r}") from error


def normalize_signature(signature: Any) -> Any:
    """Make a merge signature JSON-stable (tuples to lists, numpy to python).

    Signatures are compared *after* normalisation on both sides, so a
    signature that went through a JSON round-trip compares equal to a live
    one.
    """
    if isinstance(signature, (tuple, list)):
        return [normalize_signature(part) for part in signature]
    if isinstance(signature, (np.integer,)):
        return int(signature)
    if isinstance(signature, (np.floating,)):
        return float(signature)
    if isinstance(signature, (np.bool_, bool)):
        return bool(signature)
    return signature


def _check_signature(stored: Any, live: Any, what: str) -> None:
    stored = normalize_signature(stored)
    live = normalize_signature(live)
    if stored != live:
        raise ConfigurationError(
            f"snapshot is incompatible with the provided {what}: "
            f"stored signature {stored!r} != live signature {live!r} "
            "(mechanism spec, epsilon, domain size and protocol parameters "
            "must all match)"
        )


# ----------------------------------------------------------------------
# Mechanism configuration (rebuild-from-scratch support)
# ----------------------------------------------------------------------
def mechanism_config(mechanism: RangeQueryMechanism) -> Dict[str, Any]:
    """JSON-serialisable constructor description of a mechanism.

    Covers the registered mechanism families; raises
    :class:`~repro.exceptions.ConfigurationError` for anything else (such
    mechanisms can still be snapshotted template-only, but they cannot be
    rebuilt from the header).
    """
    if isinstance(mechanism, FlatMechanism):
        return {
            "kind": "flat",
            "epsilon": float(mechanism.epsilon),
            "domain_size": int(mechanism.domain_size),
            "oracle": mechanism.oracle.name,
            "oracle_kwargs": dict(mechanism._oracle_kwargs),
            "name": mechanism._name,
        }
    if isinstance(mechanism, HierarchicalHistogramMechanism):
        return {
            "kind": "hierarchical",
            "epsilon": float(mechanism.epsilon),
            "domain_size": int(mechanism.domain_size),
            "branching": int(mechanism.branching),
            "oracle": mechanism._oracle_name,
            "consistency": bool(mechanism.consistency),
            "budget_strategy": mechanism.budget_strategy,
            "level_probabilities": mechanism._level_probabilities_config,
            "oracle_kwargs": dict(mechanism._oracle_kwargs),
            "name": mechanism._name,
        }
    if isinstance(mechanism, HaarWaveletMechanism):
        return {
            "kind": "haar",
            "epsilon": float(mechanism.epsilon),
            "domain_size": int(mechanism.domain_size),
            "level_probabilities": mechanism._level_probabilities_config,
            "name": mechanism._name,
        }
    if isinstance(mechanism, HierarchicalGrid2D):
        # The d = 2 specialization keeps the historical "grid2d" kind (no
        # dims field) so pre-refactor snapshots stay byte-compatible.
        return {
            "kind": "grid2d",
            "epsilon": float(mechanism.epsilon),
            "domain_size": int(mechanism.domain_size),  # grid side length
            "branching": int(mechanism.branching),
            "oracle": mechanism._oracle_name,
            "oracle_kwargs": dict(mechanism._oracle_kwargs),
            "name": mechanism._name,
        }
    if isinstance(mechanism, HierarchicalGridND):
        return {
            "kind": "gridnd",
            "epsilon": float(mechanism.epsilon),
            "domain_size": int(mechanism.domain_size),  # grid side length
            "dims": int(mechanism.dims),
            "branching": int(mechanism.branching),
            "oracle": mechanism._oracle_name,
            "oracle_kwargs": dict(mechanism._oracle_kwargs),
            "name": mechanism._name,
        }
    raise ConfigurationError(
        f"{type(mechanism).__name__} has no snapshot configuration; "
        "pass an explicit template when restoring"
    )


def mechanism_from_config(config: Dict[str, Any]) -> RangeQueryMechanism:
    """Rebuild an unfitted mechanism from :func:`mechanism_config` output.

    ``config`` may come from an untrusted snapshot header: anything that is
    not a well-formed configuration raises
    :class:`~repro.exceptions.ConfigurationError`.
    """
    return build_from_header(lambda: _mechanism_from_config(dict(config)), "mechanism config")


def _mechanism_from_config(config: Dict[str, Any]) -> RangeQueryMechanism:
    kind = config.pop("kind", None)
    name = config.pop("name", None)
    try:
        if kind == "flat":
            return FlatMechanism(
                epsilon=config["epsilon"],
                domain_size=config["domain_size"],
                oracle=config["oracle"],
                name=name,
                **config.get("oracle_kwargs", {}),
            )
        if kind == "hierarchical":
            return HierarchicalHistogramMechanism(
                epsilon=config["epsilon"],
                domain_size=config["domain_size"],
                branching=config["branching"],
                oracle=config["oracle"],
                consistency=config["consistency"],
                level_probabilities=config.get("level_probabilities"),
                budget_strategy=config.get("budget_strategy", "sampling"),
                name=name,
                **config.get("oracle_kwargs", {}),
            )
        if kind == "haar":
            return HaarWaveletMechanism(
                epsilon=config["epsilon"],
                domain_size=config["domain_size"],
                level_probabilities=config.get("level_probabilities"),
                name=name,
            )
        if kind == "grid2d":
            return HierarchicalGrid2D(
                epsilon=config["epsilon"],
                domain_size=config["domain_size"],
                branching=config.get("branching", 2),
                oracle=config.get("oracle", "oue"),
                name=name,
                **config.get("oracle_kwargs", {}),
            )
        if kind == "gridnd":
            return HierarchicalGridND(
                epsilon=config["epsilon"],
                domain_size=config["domain_size"],
                dims=config["dims"],
                branching=config.get("branching", 2),
                oracle=config.get("oracle", "oue"),
                name=name,
                **config.get("oracle_kwargs", {}),
            )
    except KeyError as error:
        raise ConfigurationError(f"mechanism config is missing {error}")
    raise ConfigurationError(f"unknown mechanism config kind {kind!r}")


def _check_grid_level_count(config: Any, state: Dict[str, Any]) -> None:
    """Refuse a fitted grid snapshot whose header implies other level tuples
    than its arrays hold, before the grid is built.

    A grid of ``d`` axes builds one oracle per level tuple, ``h^d`` of them
    (``h`` levels per axis), so a small snapshot whose header claims many
    axes would cost time and memory exponential in ``d`` before
    :meth:`~repro.core.base.RangeQueryMechanism.load_state_dict` compared
    anything.  Here the count is arithmetic on the header.  A malformed
    config is left to the constructor, which refuses it.
    """
    stored = state.get("accumulators")
    if not isinstance(config, dict) or not isinstance(stored, dict):
        return
    kind = config.get("kind")
    if kind not in ("grid2d", "gridnd"):
        return
    side, branching = config.get("domain_size"), config.get("branching", 2)
    dims = 2 if kind == "grid2d" else config.get("dims")
    if not all(type(value) is int for value in (side, branching, dims)):
        return
    # Past 62 axes the constructor refuses the flattened domain at once;
    # below, h^d is a small integer.
    if side < 2 or branching < 2 or not 1 <= dims <= 62:
        return
    height = DomainTree(side, branching).height
    if height**dims != len(stored):
        raise ConfigurationError(
            f"grid header implies {height}^{dims} level tuples, the snapshot "
            f"holds {len(stored)}"
        )


def resolve_mechanism(
    mechanism: Union[str, RangeQueryMechanism],
    epsilon: Optional[float] = None,
    domain_size: Optional[int] = None,
    mechanism_kwargs: Optional[Dict[str, Any]] = None,
) -> RangeQueryMechanism:
    """Resolve a spec-string-or-instance into a prototype mechanism.

    The front door of :class:`~repro.streaming.ShardedCollector`, which
    accepts either form: with an instance,
    ``mechanism_kwargs`` are rejected and any explicit ``epsilon`` /
    ``domain_size`` must agree with it; with a spec string both are
    required.  The returned prototype is a configuration donor — callers
    clone it rather than fitting it.
    """
    if isinstance(mechanism, RangeQueryMechanism):
        if mechanism_kwargs:
            raise ConfigurationError(
                "mechanism_kwargs are only accepted with a spec string; "
                "configure the template instance instead"
            )
        if epsilon is not None and float(epsilon) != float(mechanism.epsilon):
            raise ConfigurationError(
                f"epsilon {epsilon!r} does not match the template's "
                f"{mechanism.epsilon!r}"
            )
        if domain_size is not None and int(domain_size) != mechanism.domain_size:
            raise ConfigurationError(
                f"domain_size {domain_size!r} does not match the template's "
                f"{mechanism.domain_size!r}"
            )
        return mechanism
    if epsilon is None or domain_size is None:
        raise ConfigurationError(
            "epsilon and domain_size are required with a spec string"
        )
    from repro.core.factory import mechanism_from_spec

    return mechanism_from_spec(
        str(mechanism),
        epsilon=epsilon,
        domain_size=domain_size,
        **(mechanism_kwargs or {}),
    )


# ----------------------------------------------------------------------
# Serialisation
# ----------------------------------------------------------------------
def to_bytes(obj: Snapshotable) -> bytes:
    """Serialise an accumulator or mechanism into one snapshot byte string."""
    if isinstance(obj, OracleAccumulator):
        header = {
            "kind": "accumulator",
            "accumulator_class": type(obj).__name__,
            "oracle": obj.oracle.config_dict(),
            "signature": normalize_signature(obj.oracle.merge_signature()),
        }
        arrays = flatten_arrays(obj.state_dict())
        return pack_snapshot(header, arrays)
    if isinstance(obj, RangeQueryMechanism):
        header = {
            "kind": "mechanism",
            "mechanism_class": type(obj).__name__,
            "signature": normalize_signature(obj._merge_signature()),
        }
        try:
            header["config"] = mechanism_config(obj)
        except ConfigurationError:
            pass  # template-only restore remains possible
        arrays = flatten_arrays(obj.state_dict())
        return pack_snapshot(header, arrays)
    raise ConfigurationError(
        f"cannot snapshot a {type(obj).__name__}; expected an "
        "OracleAccumulator or a RangeQueryMechanism"
    )


def from_bytes(
    data: bytes,
    template: Optional[Union[Snapshotable, FrequencyOracle]] = None,
) -> Any:
    """Restore a snapshot produced by :func:`to_bytes` / :func:`save`.

    Parameters
    ----------
    data:
        The snapshot bytes.
    template:
        Optional compatibility anchor and rebuild shortcut:

        * for accumulator snapshots — a :class:`FrequencyOracle` or an
          :class:`OracleAccumulator` whose oracle defines the target
          configuration;
        * for mechanism snapshots — an (unfitted or fitted)
          :class:`RangeQueryMechanism` instance whose collected state is
          **replaced** by the snapshot;
        * ``None`` — rebuild everything from the stored configuration.

        When given, the template's merge signature must equal the stored
        one; a mismatch raises
        :class:`~repro.exceptions.ConfigurationError`.
    """
    header, flat = unpack_snapshot(data)
    kind = header.get("kind")
    state = nest_arrays(flat)
    if kind == "accumulator":
        if template is None:
            oracle = build_from_header(
                lambda: make_oracle(**header["oracle"]), "oracle configuration"
            )
        elif isinstance(template, FrequencyOracle):
            oracle = template
        elif isinstance(template, OracleAccumulator):
            oracle = template.oracle
        else:
            raise ConfigurationError(
                "accumulator snapshots take a FrequencyOracle or "
                f"OracleAccumulator template, got {type(template).__name__}"
            )
        _check_signature(header.get("signature"), oracle.merge_signature(), "oracle")
        return oracle.restore_accumulator(state)
    if kind == "mechanism":
        if template is None:
            config = header.get("config")
            if config is None:
                raise ConfigurationError(
                    "snapshot has no rebuild configuration; pass the "
                    "mechanism instance to restore into as template="
                )
            _check_grid_level_count(config, state)
            mechanism = mechanism_from_config(config)
        elif isinstance(template, RangeQueryMechanism):
            mechanism = template
        else:
            raise ConfigurationError(
                "mechanism snapshots take a RangeQueryMechanism template, "
                f"got {type(template).__name__}"
            )
        _check_signature(
            header.get("signature"), mechanism._merge_signature(), "mechanism"
        )
        return mechanism.load_state_dict(state)
    if kind == "collector":
        from repro.streaming.sharded import ShardedCollector

        if template is not None:
            raise ConfigurationError(
                "collector checkpoints rebuild themselves; template= is not accepted"
            )
        return ShardedCollector._from_parsed(header, flat)
    raise ConfigurationError(f"unknown snapshot kind {kind!r}")


def save(obj: Snapshotable, path: Union[str, Path]) -> Path:
    """Write a snapshot of ``obj`` to ``path`` (atomically via a temp file)."""
    return write_atomic(path, to_bytes(obj))


def load(
    path: Union[str, Path],
    template: Optional[Union[Snapshotable, FrequencyOracle]] = None,
) -> Any:
    """Read a snapshot file written by :func:`save`; see :func:`from_bytes`."""
    return from_bytes(Path(path).read_bytes(), template=template)


def describe(data: bytes) -> Dict[str, Any]:
    """The snapshot's JSON header without restoring any state."""
    header, _ = unpack_snapshot(data)
    return json.loads(json.dumps(header))
