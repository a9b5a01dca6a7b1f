"""Collect report batches over round-robin random streams into one state.

:class:`ShardedCollector` models the ingestion tier of a deployed LDP
pipeline: ``K`` shards are ``K`` independent random streams, report
batches go to them round-robin (or to a shard the caller names), and every
batch is folded into **one** accumulated mechanism with its shard's
stream.  Accumulator statistics are integer-valued sums, and no draw
depends on what was accumulated before, so the one state equals the sum of
``K`` per-shard states bit for bit — the shard a batch lands on decides
only which stream perturbs it, never the estimates' distribution.  A
reduce step copies the state into a fresh queryable mechanism.

Durability: :meth:`checkpoint` captures the complete collector state — the
accumulated sufficient statistic, every shard's random-generator state,
the round-robin cursor and the batch counter — in one :mod:`repro.persist`
container.  :meth:`restore` rebuilds a collector that continues
*bit-for-bit* where the checkpoint left off: feeding it the remaining
batches produces exactly the reduced estimates an uninterrupted run would
have produced, which is the crash-recovery contract the tests verify.
Checkpoints of releases that kept one mechanism per shard (``shard<i>/``
array groups) still restore: their groups merge on load.

Determinism contract (for a fixed ``random_state``): batches submitted with
an explicit ``shard=`` index do not consult or advance the round-robin
cursor, so explicit and round-robin submissions interleave
deterministically — the round-robin placement depends only on the ordered
sub-sequence of un-pinned batches, and each shard's randomness depends only
on the ordered batches that landed on it.
"""

from __future__ import annotations

from pathlib import Path
from typing import Any, Dict, Iterable, Optional, Union

import numpy as np

from repro.core.base import RangeQueryMechanism
from repro.exceptions import ConfigurationError, NotFittedError
from repro.persist.format import (
    flatten_arrays,
    nest_arrays,
    pack_snapshot,
    unpack_snapshot,
    write_atomic,
)
from repro.persist.snapshots import (
    _check_grid_level_count,
    build_from_header,
    mechanism_config,
    mechanism_from_config,
    resolve_mechanism,
)
from repro.privacy.randomness import RandomState, as_seed_sequence

__all__ = ["ShardedCollector"]

#: The one placement policy; checkpoints record it under ``router.name``.
ROUND_ROBIN = "round-robin"
#: Array group of the accumulated state in a checkpoint.
STATE_GROUP = "state"


def _check_router(router: Optional[str]) -> None:
    """Refuse every placement policy but round-robin, by name."""
    if router is not None and router != ROUND_ROBIN:
        raise ConfigurationError(
            f"unknown router policy {router!r}; batches are placed "
            f"{ROUND_ROBIN!r} (pin a batch with shard= instead)"
        )


def _generator_state(generator: np.random.Generator) -> Dict[str, Any]:
    """The JSON-serialisable state of a generator's bit generator."""
    return generator.bit_generator.state


def _generator_from_state(state: Dict[str, Any]) -> np.random.Generator:
    """Rebuild a generator whose stream continues from a saved state."""
    name = state.get("bit_generator", "PCG64")
    bit_generator_class = getattr(np.random, str(name), None)
    if not (
        isinstance(bit_generator_class, type)
        and issubclass(bit_generator_class, np.random.BitGenerator)
    ):
        raise ConfigurationError(f"unknown bit generator {name!r} in checkpoint")
    bit_generator = bit_generator_class()
    bit_generator.state = state
    return np.random.Generator(bit_generator)


class ShardedCollector:
    """Collect an LDP population over ``K`` round-robin random streams.

    Parameters
    ----------
    mechanism:
        Mechanism specification string (see
        :func:`repro.core.factory.mechanism_from_spec`) or a prebuilt
        :class:`~repro.core.base.RangeQueryMechanism` used as a
        configuration template; the collector accumulates into its own
        identically configured instance either way.
    epsilon, domain_size:
        Standard mechanism parameters.  Optional when ``mechanism`` is a
        prebuilt instance (taken from it); if given they must agree with
        the instance.
    n_shards:
        Number of shards ``K >= 1``, i.e. of random streams.
    random_state:
        Seed for the whole collection; shard ``i`` draws from spawn child
        ``i`` of it, so results are reproducible for a fixed seed and batch
        order.
    mode:
        Default simulation mode for submitted batches (``"aggregate"`` or
        ``"per_user"``), overridable per batch.
    router:
        ``None`` or ``"round-robin"``, the only placement policy; anything
        else raises :class:`~repro.exceptions.ConfigurationError`.
    mechanism_kwargs:
        Extra keyword arguments forwarded to the mechanism's constructor
        (spec-built collectors only).
    """

    def __init__(
        self,
        mechanism: Union[str, RangeQueryMechanism],
        epsilon: Optional[float] = None,
        domain_size: Optional[int] = None,
        n_shards: int = 4,
        random_state: RandomState = None,
        mode: str = "aggregate",
        router: Optional[str] = None,
        **mechanism_kwargs,
    ) -> None:
        if not isinstance(n_shards, (int, np.integer)) or n_shards < 1:
            raise ConfigurationError(
                f"n_shards must be a positive integer, got {n_shards!r}"
            )
        _check_router(router)
        RangeQueryMechanism._check_mode(mode)
        prototype = resolve_mechanism(
            mechanism,
            epsilon=epsilon,
            domain_size=domain_size,
            mechanism_kwargs=mechanism_kwargs,
        )
        self._spec = (
            mechanism.name
            if isinstance(mechanism, RangeQueryMechanism)
            else str(mechanism)
        )
        self._config = mechanism_config(prototype)
        self._epsilon = float(prototype.epsilon)
        self._domain_size = int(prototype.domain_size)
        self._mode = str(mode)
        self._cursor = 0
        self._state = self._fresh_mechanism()
        self._generators = [
            np.random.default_rng(child)
            for child in as_seed_sequence(random_state).spawn(int(n_shards))
        ]
        self._n_batches = 0

    def _fresh_mechanism(self) -> RangeQueryMechanism:
        return mechanism_from_config(self._config)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def n_shards(self) -> int:
        """Number of shards ``K`` (random streams)."""
        return len(self._generators)

    @property
    def epsilon(self) -> float:
        """Privacy budget of the collected reports (the served spec's epsilon)."""
        return self._epsilon

    @property
    def domain_size(self) -> int:
        """Domain size of the collected items."""
        return self._domain_size

    @property
    def spec(self) -> str:
        """The mechanism specification string the collector was built from."""
        return self._spec

    @property
    def n_users(self) -> int:
        """Total number of users accumulated so far."""
        return self._state.n_users or 0

    @property
    def n_batches(self) -> int:
        """Number of batches submitted so far."""
        return self._n_batches

    @property
    def ingest_generation(self) -> int:
        """Statistics mutations of the accumulated state (monotone).

        Equal at two points exactly when no batch was absorbed in between,
        so a cached :meth:`reduce` result keyed by it is fresh by
        construction.  Cheap, so read paths may poll it per request.
        """
        return self._state.ingest_generation

    # ------------------------------------------------------------------
    # Ingestion
    # ------------------------------------------------------------------
    def validate_batch(self, items: np.ndarray, mode: Optional[str] = None) -> np.ndarray:
        """Validate a batch *before* a round-robin decision is spent on it.

        The cursor never moves back, so a batch that the mechanism would
        reject must fail here first — otherwise a stream of bad batches
        would skew placement without contributing a single user.
        """
        items = self._state._validate_items(items)
        if mode is not None:
            RangeQueryMechanism._check_mode(mode)
        return items

    def next_shard(self) -> int:
        """Consume one round-robin decision: the shard of the next batch.

        :meth:`submit` calls it for un-pinned batches; the async ingestion
        service calls it when it queues a batch, and its worker then submits
        with ``shard=<returned index>``.
        """
        shard = self._cursor % len(self._generators)
        self._cursor = (shard + 1) % len(self._generators)
        return shard

    def submit(
        self,
        items: np.ndarray,
        shard: Optional[int] = None,
        mode: Optional[str] = None,
    ) -> int:
        """Accumulate one batch of users with a shard's random stream.

        Parameters
        ----------
        items:
            Integer item array, one entry per user of the batch.  Every user
            must appear in exactly one submitted batch overall — the usual
            one-report-per-user LDP accounting.
        shard:
            Shard whose stream perturbs the batch; when omitted the batch
            goes round-robin.  Explicit indices do not advance the
            round-robin cursor.
        mode:
            Override of the collector's default simulation mode.

        Returns
        -------
        int
            The index of the shard that absorbed the batch.
        """
        if shard is None:
            # The cursor never moves back, so the batch must prove itself
            # valid first.  Explicit-shard submissions touch no placement
            # state and already hit partial_fit's own validation, so they
            # skip the extra scan (this is also the path the async worker
            # takes after validating at submit time).
            items = self.validate_batch(items, mode=mode)
            index = self.next_shard()
        else:
            index = int(shard)
            if not 0 <= index < len(self._generators):
                raise ConfigurationError(
                    f"shard index {shard!r} out of range for "
                    f"{len(self._generators)} shards"
                )
        self._state.partial_fit(
            items,
            random_state=self._generators[index],
            mode=self._mode if mode is None else mode,
        )
        self._n_batches += 1
        return index

    def submit_points(
        self,
        points: np.ndarray,
        shard: Optional[int] = None,
        mode: Optional[str] = None,
    ) -> int:
        """Accumulate one batch of ``(n, d)`` coordinate points.

        Only available when the collector's mechanism has a grid surface
        (e.g. a ``grid2d`` or ``grid3d_4`` spec): the points are validated —
        column count against the mechanism's dimensionality, float
        coordinates rejected, bounds checked — and flattened to row-major
        items by the mechanism itself, then submitted like any other batch.
        """
        return self.submit(self.flatten_points(points), shard=shard, mode=mode)

    def flatten_points(self, points: np.ndarray) -> np.ndarray:
        """Validate ``(n, d)`` grid points and flatten them to row-major items.

        The one point gate of the ingest paths (:meth:`submit_points`, the
        async service and ``/v1/points``): raises
        :class:`~repro.exceptions.ConfigurationError` when the collector's
        mechanism is not a grid.
        """
        flatten = getattr(self._state, "flatten_points", None)
        if flatten is None:
            raise ConfigurationError(
                f"mechanism {self._spec!r} has no grid point surface; "
                "submit flattened items instead"
            )
        return flatten(points)

    def extend(self, batches: Iterable[np.ndarray]) -> "ShardedCollector":
        """Submit a stream of batches round-robin."""
        for batch in batches:
            self.submit(batch)
        return self

    # ------------------------------------------------------------------
    # Reduction
    # ------------------------------------------------------------------
    def reduce(self) -> RangeQueryMechanism:
        """Merge the accumulated state into one fresh queryable mechanism.

        The collector keeps its state, so ingestion may continue and
        :meth:`reduce` may be called again later — the streaming analytics
        pattern of querying a live collection.

        Merging only folds sufficient statistics; the returned mechanism
        materializes its estimates (consistency, prefix sums, inverse
        transforms) lazily on the first query.  Call
        :meth:`~repro.core.base.RangeQueryMechanism.materialize` on the
        result to move that one-time cost off the first read.
        """
        if not self._state.is_fitted:
            raise NotFittedError("the collector has not collected any reports yet")
        return self._fresh_mechanism().merge_from(self._state)

    # ------------------------------------------------------------------
    # Durability
    # ------------------------------------------------------------------
    def checkpoint_bytes(self) -> bytes:
        """Serialise the full collector state into one snapshot container.

        Captures everything a resumed run needs to be indistinguishable
        from an uninterrupted one: the accumulated statistics (one
        ``state/`` array group, whatever ``K`` is), every shard's random
        stream, the round-robin cursor and the batch counter.
        """
        header = {
            "kind": "collector",
            "spec": self._spec,
            "config": self._config,
            "n_shards": self.n_shards,
            "mode": self._mode,
            "n_batches": int(self._n_batches),
            "router": {"name": ROUND_ROBIN, "state": {"cursor": int(self._cursor)}},
            "generators": [_generator_state(gen) for gen in self._generators],
        }
        return pack_snapshot(
            header, flatten_arrays({STATE_GROUP: self._state.state_dict()})
        )

    def checkpoint(self, path: Union[str, Path]) -> Path:
        """Write :meth:`checkpoint_bytes` to ``path`` atomically."""
        return write_atomic(path, self.checkpoint_bytes())

    @classmethod
    def from_checkpoint_bytes(cls, data: bytes) -> "ShardedCollector":
        """Rebuild a collector that resumes exactly where ``data`` left off."""
        return cls._from_parsed(*unpack_snapshot(data))

    @classmethod
    def _from_parsed(
        cls, header: Dict[str, Any], flat: Dict[str, np.ndarray]
    ) -> "ShardedCollector":
        """Restore from an already-unpacked container (single-parse path
        shared with :func:`repro.persist.from_bytes`).

        A checkpoint holds either one ``state/`` group or, written by a
        release that kept one mechanism per shard, one ``shard<i>/`` group
        per shard; those groups are each validated and then merged.
        """
        if header.get("kind") != "collector":
            raise ConfigurationError(
                f"expected a collector checkpoint, got kind {header.get('kind')!r}"
            )
        for field in ("n_shards", "config"):
            if field not in header:
                raise ConfigurationError(f"collector checkpoint is missing {field!r}")
        states = nest_arrays(flat)
        legacy = any(key.startswith("shard") for key in states)
        if legacy and STATE_GROUP in states:
            raise ConfigurationError(
                "collector checkpoint mixes a state group with per-shard groups"
            )
        # Refuse a grid config that implies other level tuples than the
        # stored groups hold before the mechanism below builds them all.
        for group in states.values():
            if isinstance(group, dict):
                _check_grid_level_count(header["config"], group)
        collector = build_from_header(
            lambda: cls._from_header(header), "collector checkpoint header"
        )
        for index in range(collector.n_shards if legacy else 1):
            name = f"shard{index}" if legacy else STATE_GROUP
            if name not in states:
                raise ConfigurationError(f"checkpoint is missing its {name}/ arrays")
            group = collector._fresh_mechanism().load_state_dict(states[name])
            if group.is_fitted:
                collector._state.merge_from(group)
        return collector

    @classmethod
    def _from_header(cls, header: Dict[str, Any]) -> "ShardedCollector":
        """Everything but the accumulated statistics, from a checkpoint's
        JSON header.

        Fields written by older releases for shard-set growth
        (``stream_ids``, ``streams_spawned``, ``seed_sequence``) are not
        read: a fixed shard set needs only each shard's generator state.
        """
        n_shards = int(header["n_shards"])
        if n_shards < 1:
            raise ConfigurationError(
                f"n_shards must be a positive integer, got {n_shards!r}"
            )
        generator_states = header.get("generators", [])
        if len(generator_states) != n_shards:
            raise ConfigurationError(
                f"checkpoint holds {len(generator_states)} generator states "
                f"for {n_shards} shards"
            )
        router_info = header.get("router", {})
        _check_router(router_info.get("name"))
        mode = header.get("mode", "aggregate")
        RangeQueryMechanism._check_mode(mode)
        collector = cls.__new__(cls)
        collector._spec = str(header.get("spec", "mechanism"))
        collector._config = dict(header["config"])
        collector._state = collector._fresh_mechanism()
        collector._epsilon = float(collector._state.epsilon)
        collector._domain_size = int(collector._state.domain_size)
        collector._mode = str(mode)
        collector._cursor = int(router_info.get("state", {}).get("cursor", 0))
        collector._n_batches = int(header.get("n_batches", 0))
        collector._generators = [
            _generator_from_state(state) for state in generator_states
        ]
        return collector

    @classmethod
    def restore(cls, path: Union[str, Path]) -> "ShardedCollector":
        """Load a checkpoint file written by :meth:`checkpoint`."""
        return cls.from_checkpoint_bytes(Path(path).read_bytes())

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ShardedCollector(mechanism={self._spec!r}, n_shards={self.n_shards}, "
            f"n_users={self.n_users}, n_batches={self._n_batches})"
        )
