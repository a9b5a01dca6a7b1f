"""Stored collector checkpoints keep restoring and continuing bit for bit.

``collector_checkpoints.json`` holds one checkpoint per simulation mode of a
2-shard round-robin ``hhc_4`` :class:`~repro.streaming.ShardedCollector`,
written after five batches, together with the digest of the run that went
on uninterrupted for three more batches.  Each stored checkpoint must
restore and, fed the same three batches, reach that digest: the checkpoint
header layout (``router: {name, state: {cursor}}``, per-shard generator
states) stays readable across releases.  The ``aggregate`` and
``per_user`` entries also pin the ``restored`` digest of the state right
after the restore, which no collection change may move; the continuation
digest moves with the stream of its mode.

The ``aggregate`` and ``per_user`` entries were written while every shard
kept its own mechanism: their arrays are ``shard<i>/...`` groups, which
merge on restore, and their digests hash each shard's user count.  Those
counts are recomputed from the stored ``shard<i>/n_users`` plus the shard
each fed batch's ``submit`` returned.  The fixture was written while
collectors could still grow, so those headers also carry ``stream_ids``,
``streams_spawned`` and ``seed_sequence``; restore ignores them.

The ``state_per_user`` entry is the same ``per_user`` run captured in the
one-state layout (a single ``state/...`` group); its digest hashes the
total user count instead.  The fixture is a capture and is not
regenerated: rewritten from the current code it would only compare the
code with itself.
"""

from __future__ import annotations

import base64
import hashlib
import json
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from repro.exceptions import ConfigurationError
from repro.persist.format import pack_snapshot, unpack_snapshot
from repro.streaming import ShardedCollector

FIXTURE_PATH = Path(__file__).with_name("collector_checkpoints.json")
MODES = ("aggregate", "per_user")
DOMAIN = 64
BATCHES_BEFORE = 5
BATCHES_AFTER = 3


def _stored(key: str) -> bytes:
    return base64.b64decode(json.loads(FIXTURE_PATH.read_text())[key]["checkpoint"])


def _batches(mode: str) -> np.ndarray:
    rng = np.random.default_rng(31 + len(mode))
    return rng.integers(0, DOMAIN, size=(BATCHES_BEFORE + BATCHES_AFTER, 400))


def _digest(collector: ShardedCollector, shard_users=None) -> str:
    """Hash of the reduced run; per-shard user counts when given, else
    the total."""
    sha = hashlib.sha256()
    reduced = collector.reduce()
    arrays = [
        reduced.estimate_frequencies(),
        np.asarray(reduced.level_user_counts),
        np.asarray(collector.n_users if shard_users is None else shard_users),
        np.asarray(collector.n_batches),
    ]
    for array in arrays:
        array = np.ascontiguousarray(array)
        sha.update(str(array.dtype).encode())
        sha.update(str(array.shape).encode())
        sha.update(array.tobytes())
    return sha.hexdigest()


def _feed(collector: ShardedCollector, batches, shard_users=None) -> ShardedCollector:
    for batch in batches:
        shard = collector.submit(batch)
        if shard_users is not None:
            shard_users[shard] += batch.size
    return collector


def _stored_shard_users(data: bytes) -> list:
    """Each ``shard<i>/`` group's user count (``-1`` means unfitted)."""
    header, arrays = unpack_snapshot(data)
    return [
        max(0, int(arrays[f"shard{index}/n_users"]))
        for index in range(header["n_shards"])
    ]


@pytest.mark.parametrize("mode", MODES)
def test_stored_checkpoint_restores_and_continues_bit_identically(mode):
    data = _stored(mode)
    stored = json.loads(FIXTURE_PATH.read_text())[mode]
    restored = ShardedCollector.from_checkpoint_bytes(data)
    assert restored.n_shards == 2
    assert restored.n_batches == BATCHES_BEFORE
    # Written again, the legacy state moves to the one-state layout and
    # continues exactly like the restored collector.
    resaved = restored.checkpoint_bytes()
    assert {key.split("/")[0] for key in unpack_snapshot(resaved)[1]} == {"state"}
    for collector in (restored, ShardedCollector.from_checkpoint_bytes(resaved)):
        shard_users = _stored_shard_users(data)
        assert _digest(collector, shard_users) == stored["restored"]
        _feed(collector, _batches(mode)[BATCHES_BEFORE:], shard_users)
        assert _digest(collector, shard_users) == stored["digest"]


def test_stored_state_checkpoint_restores_and_continues_bit_identically():
    stored = json.loads(FIXTURE_PATH.read_text())["state_per_user"]
    restored = ShardedCollector.from_checkpoint_bytes(_stored("state_per_user"))
    assert restored.n_shards == 2
    assert restored.n_batches == BATCHES_BEFORE
    batches = _batches("per_user")[BATCHES_BEFORE:]
    assert _digest(_feed(restored, batches)) == stored["digest"]
    # The same run stored in the per-shard layout continues identically.
    legacy = ShardedCollector.from_checkpoint_bytes(_stored("per_user"))
    assert _digest(_feed(legacy, batches)) == stored["digest"]


def test_legacy_checkpoint_missing_a_shard_group_is_refused():
    header, arrays = unpack_snapshot(_stored("aggregate"))
    kept = {key: value for key, value in arrays.items() if not key.startswith("shard1/")}
    with pytest.raises(ConfigurationError, match="missing its shard1/ arrays"):
        ShardedCollector.from_checkpoint_bytes(pack_snapshot(header, kept))


def test_checkpoint_mixing_both_layouts_is_refused():
    header, arrays = unpack_snapshot(_stored("per_user"))
    _, state_arrays = unpack_snapshot(_stored("state_per_user"))
    with pytest.raises(ConfigurationError, match="mixes"):
        ShardedCollector.from_checkpoint_bytes(
            pack_snapshot(header, {**arrays, **state_arrays})
        )


def _rewritten(data: bytes, **fields) -> bytes:
    """``data`` with its header fields replaced (arrays unchanged)."""
    header, arrays = unpack_snapshot(data)
    header.update(fields)
    return pack_snapshot(header, arrays)


@pytest.mark.parametrize("policy", ["hash", "least-loaded"])
def test_checkpoint_of_another_router_is_refused_by_name(policy):
    """Checkpoints written under a removed placement policy are refused,
    not silently re-routed round-robin."""
    data = _stored("aggregate")
    state = {"loads": [0, 0]} if policy == "least-loaded" else {"keyless": 3}
    with pytest.raises(ConfigurationError, match=policy):
        ShardedCollector.from_checkpoint_bytes(
            _rewritten(data, router={"name": policy, "state": state})
        )


def test_hostile_seed_sequence_is_not_read():
    """Restore reads no shard-growth fields: a header whose
    ``seed_sequence`` asks for a 4 TiB entropy pool restores exactly like
    one without the field, and allocates nothing for it."""
    data = _stored("per_user")
    header, arrays = unpack_snapshot(data)
    hostile = dict(header["seed_sequence"], pool_size=2**40)
    stripped = {
        key: value
        for key, value in header.items()
        if key not in ("seed_sequence", "stream_ids", "streams_spawned")
    }

    tracemalloc.start()
    try:
        restored = ShardedCollector.from_checkpoint_bytes(
            _rewritten(data, seed_sequence=hostile)
        )
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20

    plain = ShardedCollector.from_checkpoint_bytes(pack_snapshot(stripped, arrays))
    batches = _batches("per_user")[BATCHES_BEFORE:]
    assert _digest(_feed(restored, batches)) == _digest(_feed(plain, batches))
