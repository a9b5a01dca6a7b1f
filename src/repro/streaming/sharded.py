"""Fan report batches across simulated shards and reduce them.

:class:`ShardedCollector` models the ingestion tier of a deployed LDP
pipeline: ``K`` shards each own one mechanism instance and an independent
random stream, report batches go to shards round-robin (or to a shard the
caller names), and a reduce step merges the shards' sufficient statistics
into one queryable mechanism.  Because accumulator merging is exact (sums
of sums), the reduced estimates follow the same distribution as a one-shot
fit of the whole population — the shard a batch lands on is invisible to
accuracy.

Durability: :meth:`checkpoint` captures the complete collector state —
every shard's sufficient statistic, every shard's random-generator state,
the round-robin cursor and the batch counter — in one :mod:`repro.persist`
container.  :meth:`restore` rebuilds a collector that continues
*bit-for-bit* where the checkpoint left off: feeding it the remaining
batches produces exactly the reduced estimates an uninterrupted run would
have produced, which is the crash-recovery contract the tests verify.

Determinism contract (for a fixed ``random_state``): batches submitted with
an explicit ``shard=`` index do not consult or advance the round-robin
cursor, so explicit and round-robin submissions interleave
deterministically — the round-robin placement depends only on the ordered
sub-sequence of un-pinned batches, and each shard's randomness depends only
on the ordered batches that landed on it.
"""

from __future__ import annotations

from pathlib import Path
from typing import Any, Dict, Iterable, List, Optional, Union

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
        router: Optional[str] = None,
        **mechanism_kwargs,
    ) -> None:
        if not isinstance(n_shards, (int, np.integer)) or n_shards < 1:
            raise ConfigurationError(
                f"n_shards must be a positive integer, got {n_shards!r}"
            )
        _check_router(router)
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
        self._shards: List[RangeQueryMechanism] = [
            self._fresh_mechanism() for _ in range(int(n_shards))
        ]
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
        """Number of shards ``K``."""
        return len(self._shards)

    @property
    def shards(self) -> List[RangeQueryMechanism]:
        """The per-shard mechanism instances (mutated by :meth:`submit`)."""
        return list(self._shards)

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
        """Validate a batch *before* a round-robin decision is spent on it.

        The cursor never moves back, so a batch that the mechanisms would
        reject must fail here first — otherwise a stream of bad batches
        would skew placement without contributing a single user.
        """
        items = self._shards[0]._validate_items(items)
        if mode is not None:
            RangeQueryMechanism._check_mode(mode)
        return items

    def next_shard(self) -> int:
        """Consume one round-robin decision: the shard of the next batch.

        :meth:`submit` calls it for un-pinned batches; the async ingestion
        service calls it when it queues a batch, and its worker then submits
        with ``shard=<returned index>``.
        """
        shard = self._cursor % len(self._shards)
        self._cursor = (shard + 1) % len(self._shards)
        return shard

    def submit(
        self,
        items: np.ndarray,
        shard: Optional[int] = None,
        mode: Optional[str] = None,
    ) -> int:
        """Place one batch of users on a shard and accumulate it.

        Parameters
        ----------
        items:
            Integer item array, one entry per user of the batch.  Every user
            must appear in exactly one submitted batch overall — the usual
            one-report-per-user LDP accounting.
        shard:
            Target shard index; when omitted the batch goes round-robin.
            Explicit indices do not advance the round-robin cursor.
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
            if not 0 <= index < len(self._shards):
                raise ConfigurationError(
                    f"shard index {shard!r} out of range for {len(self._shards)} shards"
                )
        self._shards[index].partial_fit(
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
        """Place one batch of ``(n, d)`` coordinate points on a shard.

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
        flatten = getattr(self._shards[0], "flatten_points", None)
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
    def generation_signature(self) -> tuple:
        """Fingerprint of the collected state a :meth:`reduce` would see.

        Each shard's monotone ``ingest_generation``: two signatures are
        equal exactly when no batch has been absorbed in between, so a
        cached ``reduce()`` result keyed by this tuple is fresh by
        construction.  Cheap (no statistics are touched), so read paths may
        poll it per request.
        """
        return tuple(
            int(getattr(shard, "ingest_generation", 0)) for shard in self._shards
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
        reduced = self._fresh_mechanism()
        for shard in fitted:
            reduced.merge_from(shard)
        return reduced

    # ------------------------------------------------------------------
    # Durability
    # ------------------------------------------------------------------
    def checkpoint_bytes(self) -> bytes:
        """Serialise the full collector state into one snapshot container.

        Captures everything a resumed run needs to be indistinguishable
        from an uninterrupted one: shard statistics, shard random streams,
        the round-robin cursor and the batch counter.
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
        states = nest_arrays(flat)
        # Refuse a grid config that implies other level tuples than the
        # stored shards hold before the prototype below builds them all.
        for key, shard_state in states.items():
            if key.startswith("shard") and isinstance(shard_state, dict):
                _check_grid_level_count(header["config"], shard_state)
        collector = build_from_header(
            lambda: cls._from_header(header), "collector checkpoint header"
        )
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
        """Everything but the shards, from a checkpoint's JSON header.

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
        collector = cls.__new__(cls)
        collector._spec = str(header.get("spec", "mechanism"))
        collector._config = dict(header["config"])
        prototype = mechanism_from_config(collector._config)
        collector._epsilon = float(prototype.epsilon)
        collector._domain_size = int(prototype.domain_size)
        collector._mode = str(header.get("mode", "aggregate"))
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
