"""Stored collector checkpoints keep restoring and continuing bit for bit.

``collector_checkpoints.json`` holds one checkpoint per simulation mode of a
2-shard round-robin ``hhc_4`` :class:`~repro.streaming.ShardedCollector`,
written after five batches, together with the digest of the run that went
on uninterrupted for three more batches.  Each stored checkpoint must
restore and, fed the same three batches, reach that digest: the checkpoint
header layout (``router: {name, state: {cursor}}``, per-shard generator
states, ``shard<i>/...`` arrays) stays readable across releases.  The
fixture was written while collectors could still grow, so its headers also
carry ``stream_ids``, ``streams_spawned`` and ``seed_sequence``; restore
ignores them.  The fixture is a capture from that release and is not
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


def _batches(mode: str) -> np.ndarray:
    rng = np.random.default_rng(31 + len(mode))
    return rng.integers(0, DOMAIN, size=(BATCHES_BEFORE + BATCHES_AFTER, 400))


def _digest(collector: ShardedCollector) -> str:
    sha = hashlib.sha256()
    reduced = collector.reduce()
    arrays = [
        reduced.estimate_frequencies(),
        np.asarray(reduced.level_user_counts),
        np.asarray([shard.n_users or 0 for shard in collector.shards]),
        np.asarray(collector.n_batches),
    ]
    for array in arrays:
        array = np.ascontiguousarray(array)
        sha.update(str(array.dtype).encode())
        sha.update(str(array.shape).encode())
        sha.update(array.tobytes())
    return sha.hexdigest()


def _feed(collector: ShardedCollector, batches) -> ShardedCollector:
    for batch in batches:
        collector.submit(batch)
    return collector


@pytest.mark.parametrize("mode", MODES)
def test_stored_checkpoint_restores_and_continues_bit_identically(mode):
    stored = json.loads(FIXTURE_PATH.read_text())[mode]
    restored = ShardedCollector.from_checkpoint_bytes(
        base64.b64decode(stored["checkpoint"])
    )
    assert restored.n_shards == 2
    assert restored.n_batches == BATCHES_BEFORE
    _feed(restored, _batches(mode)[BATCHES_BEFORE:])
    assert _digest(restored) == stored["digest"]


def _rewritten(data: bytes, **fields) -> bytes:
    """``data`` with its header fields replaced (arrays unchanged)."""
    header, arrays = unpack_snapshot(data)
    header.update(fields)
    return pack_snapshot(header, arrays)


@pytest.mark.parametrize("policy", ["hash", "least-loaded"])
def test_checkpoint_of_another_router_is_refused_by_name(policy):
    """Checkpoints written under a removed placement policy are refused,
    not silently re-routed round-robin."""
    data = base64.b64decode(
        json.loads(FIXTURE_PATH.read_text())["aggregate"]["checkpoint"]
    )
    state = {"loads": [0, 0]} if policy == "least-loaded" else {"keyless": 3}
    with pytest.raises(ConfigurationError, match=policy):
        ShardedCollector.from_checkpoint_bytes(
            _rewritten(data, router={"name": policy, "state": state})
        )


def test_hostile_seed_sequence_is_not_read():
    """Restore reads no shard-growth fields: a header whose
    ``seed_sequence`` asks for a 4 TiB entropy pool restores exactly like
    one without the field, and allocates nothing for it."""
    data = base64.b64decode(
        json.loads(FIXTURE_PATH.read_text())["per_user"]["checkpoint"]
    )
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

