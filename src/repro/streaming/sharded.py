"""Fan report batches across simulated shards and reduce them.

:class:`ShardedCollector` models the ingestion tier of a deployed LDP
pipeline: ``K`` shards each own one mechanism instance and an independent
random stream, report batches are routed to shards (round-robin by default,
by a pluggable :class:`~repro.streaming.routing.ShardRouter` policy, or
explicitly by the caller), and a reduce step merges the shards' sufficient
statistics into one queryable mechanism.  Because accumulator merging is
exact (sums of sums), the reduced estimates follow the same distribution as
a one-shot fit of the whole population — shard count and routing policy are
pure throughput knobs, invisible to accuracy.

Durability: :meth:`checkpoint` captures the complete collector state —
every shard's sufficient statistic, every shard's random-generator state,
the router's position, and the batch counters — in one
:mod:`repro.persist` container.  :meth:`restore` rebuilds a collector that
continues *bit-for-bit* where the checkpoint left off: feeding it the
remaining batches produces exactly the reduced estimates an uninterrupted
run would have produced, which is the crash-recovery contract the tests
verify.

Determinism contract (for a fixed ``random_state``): batches submitted with
an explicit ``shard=`` index do not consult or advance the router, so
explicit and policy-routed submissions interleave deterministically — the
sequence of policy decisions depends only on the ordered sub-sequence of
policy-routed batches, and each shard's randomness depends only on the
ordered batches that landed on it.
"""

from __future__ import annotations

import threading
from pathlib import Path
from typing import Any, Dict, Iterable, List, Optional, Union

import numpy as np

from repro.core.base import RangeQueryMechanism
from repro.core.session import LdpRangeQuerySession
from repro.exceptions import ConfigurationError, NotFittedError
from repro.persist.format import (
    flatten_arrays,
    nest_arrays,
    pack_snapshot,
    unpack_snapshot,
    write_atomic,
)
from repro.persist.snapshots import (
    build_from_header,
    mechanism_config,
    mechanism_from_config,
    resolve_mechanism,
)
from repro.privacy.randomness import RandomState, as_seed_sequence
from repro.streaming.routing import (
    RoutingKey,
    ShardRouter,
    is_registered_router,
    make_router,
)

__all__ = ["ShardedCollector"]


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
    """Collect an LDP population across ``K`` independent shards.

    Parameters
    ----------
    mechanism:
        Mechanism specification string (see
        :func:`repro.core.factory.mechanism_from_spec`) or a prebuilt
        :class:`~repro.core.base.RangeQueryMechanism` used as a
        configuration template; every shard gets its own identically
        configured instance either way.
    epsilon, domain_size:
        Standard mechanism parameters, shared by all shards.  Optional when
        ``mechanism`` is a prebuilt instance (taken from it); if given they
        must agree with the instance.
    n_shards:
        Number of simulated shards ``K >= 1``.
    random_state:
        Seed for the whole collection; each shard derives an independent
        stream from it, so results are reproducible for a fixed seed,
        routing and batch order.
    mode:
        Default simulation mode for submitted batches (``"aggregate"`` or
        ``"per_user"``), overridable per batch.
    router:
        Routing policy for batches submitted without an explicit shard:
        ``None``/"round-robin" (default), "hash", "least-loaded", or a
        :class:`~repro.streaming.routing.ShardRouter` instance.
    mechanism_kwargs:
        Extra keyword arguments forwarded to every shard's constructor
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
        router: Union[None, str, ShardRouter] = None,
        **mechanism_kwargs,
    ) -> None:
        if not isinstance(n_shards, (int, np.integer)) or n_shards < 1:
            raise ConfigurationError(
                f"n_shards must be a positive integer, got {n_shards!r}"
            )
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
        self._router = make_router(router).bind(int(n_shards))
        self._shards: List[RangeQueryMechanism] = [
            self._make_mechanism() for _ in range(int(n_shards))
        ]
        # The parent seed sequence is retained (not just its first K children)
        # so the shard set can *grow* later: numpy's SeedSequence tracks how
        # many children it has spawned, making incremental spawns identical
        # to the tail of one up-front spawn — the property the autoscaler's
        # bit-identity contract rests on.
        self._seed_sequence = as_seed_sequence(random_state)
        self._generators = [
            np.random.default_rng(child)
            for child in self._seed_sequence.spawn(int(n_shards))
        ]
        self._streams_spawned = int(n_shards)
        self._stream_ids = list(range(int(n_shards)))
        self._n_batches = 0
        # Guards the batch counter: the ingestion service may run different
        # shards' submissions on different threads (distinct shards never
        # share mechanism or generator state, so only the counter is shared).
        self._counter_lock = threading.Lock()

    def _make_mechanism(self) -> RangeQueryMechanism:
        return mechanism_from_config(self._config)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def n_shards(self) -> int:
        """Number of shards ``K``."""
        return len(self._shards)

    @property
    def shards(self) -> List[RangeQueryMechanism]:
        """The per-shard mechanism instances (mutated by :meth:`submit`)."""
        return list(self._shards)

    @property
    def router(self) -> ShardRouter:
        """The routing policy deciding un-pinned submissions."""
        return self._router

    @property
    def epsilon(self) -> float:
        """Privacy budget shared by every shard (the served spec's epsilon)."""
        return self._epsilon

    @property
    def domain_size(self) -> int:
        """Domain size shared by every shard."""
        return self._domain_size

    @property
    def spec(self) -> str:
        """The mechanism specification string the shards were built from."""
        return self._spec

    @property
    def stream_ids(self) -> List[int]:
        """Stable random-stream id of each current shard index.

        Stream ``s`` is spawn child ``s`` of the collector's seed, for the
        life of the collector: growth appends fresh ids, shrink retires ids
        without reuse.  ``stream_ids[i]`` names the stream shard ``i``
        currently draws report noise from, which is what a static replay
        needs to pin batches onto the same streams.
        """
        return list(self._stream_ids)

    @property
    def streams_spawned(self) -> int:
        """Total random streams ever spawned (= n_shards of a static replay)."""
        return self._streams_spawned

    @property
    def n_users(self) -> int:
        """Total number of users accumulated across all shards."""
        return sum(shard.n_users or 0 for shard in self._shards)

    @property
    def n_batches(self) -> int:
        """Number of batches submitted so far."""
        return self._n_batches

    # ------------------------------------------------------------------
    # Ingestion
    # ------------------------------------------------------------------
    def validate_batch(self, items: np.ndarray, mode: Optional[str] = None) -> np.ndarray:
        """Validate a batch *before* any routing state is consumed.

        Routing decisions are irreversible (round-robin advances, load
        counters grow), so a batch that the mechanisms would reject must
        fail here first — otherwise a stream of bad batches would skew
        placement without contributing a single user.
        """
        items = self._shards[0]._validate_items(items)
        if mode is not None:
            RangeQueryMechanism._check_mode(mode)
        return items

    def route(self, n_items: int, key: RoutingKey = None) -> int:
        """Ask the router where a batch of ``n_items`` users would go.

        Does *not* submit anything, but does consume one routing decision
        (advancing round-robin, reserving least-loaded capacity), so the
        caller is expected to follow up with
        ``submit(items, shard=<returned index>)`` — this is the two-step
        dance the async ingestion service uses to route before queueing.
        """
        index = int(self._router.route(int(n_items), key=key))
        if not 0 <= index < len(self._shards):
            raise ConfigurationError(
                f"router returned shard {index} for {len(self._shards)} shards"
            )
        self._router.observe(index, int(n_items))
        return index

    def release_route(self, shard: int, n_items: int) -> None:
        """Hand back the load accounting of a routed-but-rejected batch.

        The non-blocking ingestion path (HTTP 503 backpressure) routes
        before it knows whether the target queue has room; when it does not,
        the batch never reaches a shard and load-aware policies must not
        keep counting it.  Positional decisions (a round-robin cursor
        advance) are *not* undone — they are placement history, not load.
        """
        self._router.release(int(shard), int(n_items))

    def submit(
        self,
        items: np.ndarray,
        shard: Optional[int] = None,
        mode: Optional[str] = None,
        key: RoutingKey = None,
    ) -> int:
        """Route one batch of users to a shard and accumulate it.

        Parameters
        ----------
        items:
            Integer item array, one entry per user of the batch.  Every user
            must appear in exactly one submitted batch overall — the usual
            one-report-per-user LDP accounting.
        shard:
            Target shard index; when omitted the router decides (round-robin
            unless configured otherwise).  Explicit indices bypass the
            router entirely and do not advance its state.
        mode:
            Override of the collector's default simulation mode.
        key:
            Optional routing key (user/tenant id) consulted by key-aware
            policies such as the hash router.

        Returns
        -------
        int
            The index of the shard that absorbed the batch.
        """
        if shard is None:
            # Policy routing is irreversible, so the batch must prove itself
            # valid before a routing decision is spent on it.  Explicit-shard
            # submissions touch no routing state and already hit partial_fit's
            # own validation, so they skip the extra scan (this is also the
            # path the async workers use after validating at submit time).
            items = self.validate_batch(items, mode=mode)
            index = self.route(items.shape[0], key=key)
        else:
            index = int(shard)
            if not 0 <= index < len(self._shards):
                raise ConfigurationError(
                    f"shard index {shard!r} out of range for {len(self._shards)} shards"
                )
        self._shards[index].partial_fit(
            items,
            random_state=self._generators[index],
            mode=self._mode if mode is None else mode,
        )
        with self._counter_lock:
            self._n_batches += 1
        return index

    def submit_points(
        self,
        points: np.ndarray,
        shard: Optional[int] = None,
        mode: Optional[str] = None,
        key: RoutingKey = None,
    ) -> int:
        """Route one batch of ``(n, d)`` coordinate points to a shard.

        Only available when the collector's mechanism has a grid surface
        (e.g. a ``grid2d`` or ``grid3d_4`` spec): the points are validated —
        column count against the mechanism's dimensionality, float
        coordinates rejected, bounds checked — and flattened to row-major
        items by the mechanism itself, then submitted like any other batch.
        """
        flatten = getattr(self._shards[0], "flatten_points", None)
        if flatten is None:
            raise ConfigurationError(
                f"mechanism {self._spec!r} has no grid point surface; "
                "submit flattened items with submit() instead"
            )
        return self.submit(flatten(points), shard=shard, mode=mode, key=key)

    def extend(self, batches: Iterable[np.ndarray]) -> "ShardedCollector":
        """Submit a stream of batches with policy routing."""
        for batch in batches:
            self.submit(batch)
        return self

    # ------------------------------------------------------------------
    # Scaling (grow/shrink the shard set between batches)
    # ------------------------------------------------------------------
    def add_shards(self, count: int = 1) -> List[int]:
        """Append ``count`` fresh shards and return their indices.

        Each new shard gets an identically configured mechanism and the
        *next* spawn children of the collector's seed sequence, so a run
        that grows from ``K`` to ``K'`` shards uses exactly the random
        streams a run constructed with ``K'`` shards would have used —
        growth never perturbs existing streams and never reuses a retired
        one.  Load-aware routers start the new shards at zero load, which is
        precisely what makes them attractive to the least-loaded policy.
        """
        if not isinstance(count, (int, np.integer)) or count < 1:
            raise ConfigurationError(
                f"count must be a positive integer, got {count!r}"
            )
        first = len(self._shards)
        for child in self._seed_sequence.spawn(int(count)):
            self._shards.append(self._make_mechanism())
            self._generators.append(np.random.default_rng(child))
            self._stream_ids.append(self._streams_spawned)
            self._streams_spawned += 1
        self._router.resize(len(self._shards))
        return list(range(first, len(self._shards)))

    def shrink_to(self, n_shards: int) -> List[tuple]:
        """Retire the highest-indexed shards down to ``n_shards``.

        Every retired shard's sufficient statistics are rebalanced into the
        least-loaded surviving shard via ``merge_from`` — merging is exact,
        so the eventual :meth:`reduce` still sums precisely the statistics
        every stream ever accumulated and stays bit-identical to a static
        run that pinned each batch to the same stream (see
        ``tests/integration/test_http_service.py``).  The retired random
        streams are gone for good: a later :meth:`add_shards` spawns fresh
        ones rather than resuming a stream whose position can no longer be
        trusted.  Returns ``(retired_stream_id, survivor_index)`` pairs,
        highest-indexed shard first, so callers can fold their own per-shard
        bookkeeping the same way.
        """
        if not isinstance(n_shards, (int, np.integer)) or n_shards < 1:
            raise ConfigurationError(
                f"n_shards must be a positive integer, got {n_shards!r}"
            )
        if n_shards > len(self._shards):
            raise ConfigurationError(
                f"cannot shrink to {n_shards} shards from {len(self._shards)}; "
                "use add_shards to grow"
            )
        retired: List[tuple] = []
        while len(self._shards) > int(n_shards):
            index = len(self._shards) - 1
            survivor = self._least_loaded_survivor(index)
            removed = self._shards.pop(index)
            if removed.is_fitted:
                self._shards[survivor].merge_from(removed)
            self._router.fold(index, survivor)
            self._router.resize(len(self._shards))
            self._generators.pop(index)
            retired.append((self._stream_ids.pop(index), survivor))
        return retired

    def _least_loaded_survivor(self, removed_index: int) -> int:
        """Lowest-indexed least-loaded shard below ``removed_index``.

        Prefers the router's own load signal (the least-loaded policy's
        routed-user counts); other policies fall back to absorbed users.
        Deterministic — ties break toward the lowest index — so shrink
        rebalancing is reproducible.
        """
        loads = getattr(self._router, "loads", None)
        if not loads or len(loads) <= removed_index:
            loads = [shard.n_users or 0 for shard in self._shards]
        return int(np.argmin(np.asarray(loads[:removed_index], dtype=np.int64)))

    # ------------------------------------------------------------------
    # Reduction
    # ------------------------------------------------------------------
    def generation_signature(self) -> tuple:
        """Fingerprint of the collected state a :meth:`reduce` would see.

        Combines the live stream ids (which change on every scale event)
        with each shard's monotone ``ingest_generation`` — two signatures
        are equal exactly when no batch has been absorbed and no shard
        added, retired or restored in between, so a cached ``reduce()``
        result keyed by this tuple is fresh by construction.  Cheap (no
        statistics are touched), so read paths may poll it per request.
        """
        return (
            tuple(int(stream) for stream in self._stream_ids),
            tuple(
                int(getattr(shard, "ingest_generation", 0)) for shard in self._shards
            ),
        )

    def reduce(self) -> RangeQueryMechanism:
        """Merge all fitted shards into one fresh queryable mechanism.

        The shards keep their state, so ingestion may continue and
        :meth:`reduce` may be called again later — the streaming analytics
        pattern of querying a live collection.

        Merging only folds sufficient statistics; the returned mechanism
        materializes its estimates (consistency, prefix sums, inverse
        transforms) lazily on the first query.  Call
        :meth:`~repro.core.base.RangeQueryMechanism.materialize` on the
        result to move that one-time cost off the first read.
        """
        fitted = [shard for shard in self._shards if shard.is_fitted]
        if not fitted:
            raise NotFittedError("no shard has collected any reports yet")
        reduced = self._make_mechanism()
        for shard in fitted:
            reduced.merge_from(shard)
        return reduced

    def session(self) -> LdpRangeQuerySession:
        """Wrap :meth:`reduce` in a high-level analysis session."""
        return LdpRangeQuerySession(
            epsilon=self._epsilon,
            domain_size=self._domain_size,
            mechanism=self.reduce(),
        )

    # ------------------------------------------------------------------
    # Durability
    # ------------------------------------------------------------------
    def checkpoint_bytes(self) -> bytes:
        """Serialise the full collector state into one snapshot container.

        Captures everything a resumed run needs to be indistinguishable
        from an uninterrupted one: shard statistics, shard random streams,
        router state and counters.  Custom router policies must be
        registered (:func:`repro.streaming.routing.register_router`) so the
        restore side can resolve the stored policy name back to a class;
        unregistered routers are rejected here rather than producing a
        checkpoint that can never be loaded.
        """
        if not is_registered_router(self._router):
            raise ConfigurationError(
                f"router {type(self._router).__name__} (name="
                f"{self._router.name!r}) is not registered; decorate it with "
                "repro.streaming.routing.register_router to make checkpoints "
                "restorable"
            )
        seq = self._seed_sequence
        entropy = seq.entropy
        header = {
            "kind": "collector",
            "spec": self._spec,
            "config": self._config,
            "n_shards": self.n_shards,
            "mode": self._mode,
            "n_batches": int(self._n_batches),
            "router": {
                "name": self._router.name,
                "state": self._router.state_dict(),
            },
            "generators": [_generator_state(gen) for gen in self._generators],
            # Scaling continuity: which spawn child each shard draws from,
            # and the parent seed sequence mid-spawn, so a restored collector
            # can keep growing with exactly the streams the original would
            # have spawned next.
            "stream_ids": [int(stream) for stream in self._stream_ids],
            "streams_spawned": int(self._streams_spawned),
            "seed_sequence": {
                "entropy": list(entropy) if isinstance(entropy, (list, tuple)) else entropy,
                "spawn_key": list(seq.spawn_key),
                "pool_size": int(seq.pool_size),
                "n_children_spawned": int(seq.n_children_spawned),
            },
        }
        arrays = {}
        for index, shard in enumerate(self._shards):
            arrays[f"shard{index}"] = shard.state_dict()
        return pack_snapshot(header, flatten_arrays(arrays))

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
        shared with :func:`repro.persist.from_bytes`)."""
        if header.get("kind") != "collector":
            raise ConfigurationError(
                f"expected a collector checkpoint, got kind {header.get('kind')!r}"
            )
        for field in ("n_shards", "config"):
            if field not in header:
                raise ConfigurationError(f"collector checkpoint is missing {field!r}")
        collector = build_from_header(
            lambda: cls._from_header(header), "collector checkpoint header"
        )
        states = nest_arrays(flat)
        shards = []
        for index in range(len(collector._generators)):
            shard = mechanism_from_config(collector._config)
            shard_state = states.get(f"shard{index}")
            if shard_state is None:
                raise ConfigurationError(f"checkpoint is missing shard {index}")
            shard.load_state_dict(shard_state)
            shards.append(shard)
        collector._shards = shards
        return collector

    @classmethod
    def _from_header(cls, header: Dict[str, Any]) -> "ShardedCollector":
        """Everything but the shards, from a checkpoint's JSON header."""
        n_shards = int(header["n_shards"])
        generator_states = header.get("generators", [])
        if len(generator_states) != n_shards:
            raise ConfigurationError(
                f"checkpoint holds {len(generator_states)} generator states "
                f"for {n_shards} shards"
            )
        router_info = header.get("router", {})
        router = make_router(router_info.get("name"))
        collector = cls.__new__(cls)
        collector._spec = str(header.get("spec", "mechanism"))
        collector._config = dict(header["config"])
        prototype = mechanism_from_config(collector._config)
        collector._epsilon = float(prototype.epsilon)
        collector._domain_size = int(prototype.domain_size)
        collector._mode = str(header.get("mode", "aggregate"))
        collector._router = router.bind(n_shards)
        collector._router.load_state_dict(router_info.get("state", {}))
        collector._n_batches = int(header.get("n_batches", 0))
        collector._counter_lock = threading.Lock()
        collector._generators = [
            _generator_from_state(state) for state in generator_states
        ]
        collector._stream_ids = [
            int(stream) for stream in header.get("stream_ids", range(n_shards))
        ]
        if len(collector._stream_ids) != n_shards:
            raise ConfigurationError(
                f"checkpoint holds {len(collector._stream_ids)} stream ids "
                f"for {n_shards} shards"
            )
        collector._streams_spawned = int(header.get("streams_spawned", n_shards))
        seed_info = header.get("seed_sequence")
        if seed_info is not None:
            entropy = seed_info.get("entropy")
            collector._seed_sequence = np.random.SeedSequence(
                entropy,
                spawn_key=tuple(int(k) for k in seed_info.get("spawn_key", ())),
                pool_size=int(seed_info.get("pool_size", 4)),
                n_children_spawned=int(seed_info.get("n_children_spawned", 0)),
            )
        else:
            # Legacy (pre-autoscale) checkpoint: resuming is still bit-exact
            # for the existing shards, but post-restore growth draws fresh
            # entropy instead of the original seed's next children.
            collector._seed_sequence = np.random.SeedSequence()
        return collector

    @classmethod
    def restore(cls, path: Union[str, Path]) -> "ShardedCollector":
        """Load a checkpoint file written by :meth:`checkpoint`."""
        return cls.from_checkpoint_bytes(Path(path).read_bytes())

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ShardedCollector(mechanism={self._spec!r}, n_shards={self.n_shards}, "
            f"router={self._router.name!r}, n_users={self.n_users}, "
            f"n_batches={self._n_batches})"
        )
