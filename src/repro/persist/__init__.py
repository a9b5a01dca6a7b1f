"""Durable, versioned persistence of LDP aggregation state.

The streaming tier (PR 1) made every oracle and mechanism *mergeable*; this
package makes the merged thing *durable*.  A snapshot captures an
accumulator's or fitted mechanism's sufficient statistic bit-for-bit in a
self-describing container (JSON schema header + npz array payload, see
:mod:`repro.persist.format`), so that

* a crashed ingestion shard resumes from its last checkpoint and ends up in
  **exactly** the state an uninterrupted run would have reached
  (:meth:`repro.streaming.ShardedCollector.checkpoint` /
  :meth:`~repro.streaming.ShardedCollector.restore`);
* accumulator state travels between machines or processes as plain bytes
  (:func:`to_bytes` / :func:`from_bytes`);
* an analyst saves a fitted mechanism today and answers new range queries
  from the file tomorrow without re-collecting
  (:meth:`repro.core.session.LdpRangeQuerySession.save` / ``load``).

Compatibility is checked before any state moves: snapshots embed the merge
signature (mechanism class and spec parameters, epsilon, domain size,
oracle configuration), and restoring against a template with a different
signature raises :class:`~repro.exceptions.ConfigurationError`.  Snapshots
also carry a format version so newer files fail cleanly on older readers.

Example
-------
>>> import numpy as np
>>> from repro import LdpRangeQuerySession
>>> from repro import persist
>>> session = LdpRangeQuerySession(epsilon=1.0, domain_size=256, mechanism="hhc_4")
>>> _ = session.collect(np.random.default_rng(0).integers(0, 256, 100_000))
>>> data = persist.to_bytes(session.mechanism)          # ship or store
>>> restored = persist.from_bytes(data)                 # fully self-contained
>>> bool(np.array_equal(restored.estimate_frequencies(),
...                     session.mechanism.estimate_frequencies()))
True
"""

from repro.persist.format import (
    FORMAT_VERSION,
    MAGIC,
    pack_snapshot,
    unpack_snapshot,
    write_atomic,
)
from repro.persist.snapshots import (
    clone_unfitted,
    describe,
    from_bytes,
    load,
    mechanism_config,
    mechanism_from_config,
    normalize_signature,
    resolve_mechanism,
    save,
    to_bytes,
)

__all__ = [
    "FORMAT_VERSION",
    "MAGIC",
    "clone_unfitted",
    "describe",
    "from_bytes",
    "load",
    "mechanism_config",
    "mechanism_from_config",
    "normalize_signature",
    "pack_snapshot",
    "resolve_mechanism",
    "save",
    "to_bytes",
    "unpack_snapshot",
    "write_atomic",
]
