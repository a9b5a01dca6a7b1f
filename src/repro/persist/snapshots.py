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

A mechanism describes itself: its class names its header ``config_kind``
and its :meth:`~repro.core.base.RangeQueryMechanism.config_dict` returns
its constructor keywords.  This module holds no per-class code, only the
one ``kind -> class`` table :data:`MECHANISM_KINDS`; rebuilding is a table
lookup plus a constructor call.  A stored configuration holds exactly the
constructor's keywords: only the class's ``config_optional`` keys may be
absent, and an unknown key is refused.

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

import functools
import inspect
import json
from pathlib import Path
from typing import Any, Callable, Dict, FrozenSet, Mapping, Optional, Tuple, TypeVar, Union

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
    "MECHANISM_KINDS",
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
#: The mechanism families a header can rebuild, by their ``config_kind``.
MECHANISM_KINDS: Dict[str, type] = {
    cls.config_kind: cls
    for cls in (
        FlatMechanism,
        HierarchicalHistogramMechanism,
        HaarWaveletMechanism,
        HierarchicalGrid2D,
        HierarchicalGridND,
    )
}


@functools.lru_cache(maxsize=None)
def _config_keys(cls: type) -> FrozenSet[str]:
    """The keys of a ``cls`` config: its constructor's parameter names (the
    ``**oracle_kwargs`` catch-all is one ``oracle_kwargs`` mapping)."""
    return frozenset(inspect.signature(cls).parameters)


def mechanism_config(mechanism: RangeQueryMechanism) -> Dict[str, Any]:
    """JSON-serialisable constructor description of a mechanism: its
    ``config_kind`` plus its
    :meth:`~repro.core.base.RangeQueryMechanism.config_dict`.

    Raises :class:`~repro.exceptions.ConfigurationError` for a mechanism
    whose kind is not in :data:`MECHANISM_KINDS` (such mechanisms can still
    be snapshotted template-only, but they cannot be rebuilt from the
    header).
    """
    if mechanism.config_kind not in MECHANISM_KINDS:
        raise ConfigurationError(
            f"{type(mechanism).__name__} has no snapshot configuration; "
            "pass an explicit template when restoring"
        )
    return {"kind": mechanism.config_kind, **mechanism.config_dict()}


def mechanism_from_config(config: Mapping[str, Any]) -> RangeQueryMechanism:
    """Rebuild an unfitted mechanism from :func:`mechanism_config` output.

    ``config`` may come from an untrusted snapshot header: an unknown kind,
    a missing or unknown key, or a value the constructor refuses raises
    :class:`~repro.exceptions.ConfigurationError`.  Only the class's
    ``config_optional`` keys may be absent.
    """
    cls, options = _checked_config(config)
    oracle_kwargs = options.pop("oracle_kwargs", {})
    return build_from_header(lambda: cls(**options, **oracle_kwargs), "mechanism config")


def _checked_config(config: Any) -> Tuple[type, Dict[str, Any]]:
    """The class a config names and its constructor options, once the
    config holds exactly that class's keys."""
    if not isinstance(config, Mapping):
        raise ConfigurationError(
            f"mechanism config must be a mapping, got {type(config).__name__}"
        )
    options = dict(config)
    kind = options.pop("kind", None)
    cls = MECHANISM_KINDS.get(kind) if isinstance(kind, str) else None
    if cls is None:
        raise ConfigurationError(f"unknown mechanism config kind {kind!r}")
    keys = _config_keys(cls)
    if keys - cls.config_optional - options.keys() or options.keys() - keys:
        raise ConfigurationError(
            f"a {kind} mechanism config holds {sorted(keys)}, of which only "
            f"{sorted(cls.config_optional & keys)} may be absent; got "
            f"{sorted(map(str, options))}"
        )
    return cls, options


def _check_grid_level_count(config: Any, state: Dict[str, Any]) -> None:
    """Refuse a fitted grid snapshot whose header implies other level tuples
    than its arrays hold, before the grid is built.

    A grid of ``d`` axes builds one oracle per level tuple, ``h^d`` of them
    (``h`` levels per axis), so a small snapshot whose header claims many
    axes would cost time and memory exponential in ``d`` before
    :meth:`~repro.core.base.RangeQueryMechanism.load_state_dict` compared
    anything.  Here the count is arithmetic on the header.  A value of the
    wrong type or range is left to the constructor, which refuses it.
    """
    stored = state.get("accumulators")
    if not isinstance(stored, dict):
        return
    cls, options = _checked_config(config)
    if not issubclass(cls, HierarchicalGridND):
        return
    side, branching = options["domain_size"], options.get("branching", 2)
    dims = options.get("dims", 2)  # the 2-D grid's config has no dims key
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
        if obj.config_kind in MECHANISM_KINDS:  # else template-only restore
            header["config"] = mechanism_config(obj)
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
