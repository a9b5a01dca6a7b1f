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
  (:func:`save` / :func:`load`).

Compatibility is checked before any state moves: snapshots embed the merge
signature (mechanism class and spec parameters, epsilon, domain size,
oracle configuration), and restoring against a template with a different
signature raises :class:`~repro.exceptions.ConfigurationError`.  Snapshots
also carry a format version so newer files fail cleanly on older readers.

Example
-------
>>> import numpy as np
>>> from repro import mechanism_from_spec, persist
>>> mechanism = mechanism_from_spec("hhc_4", epsilon=1.0, domain_size=256)
>>> _ = mechanism.fit_items(np.random.default_rng(0).integers(0, 256, 100_000))
>>> data = persist.to_bytes(mechanism)                  # ship or store
>>> restored = persist.from_bytes(data)                 # fully self-contained
>>> bool(np.array_equal(restored.estimate_frequencies(),
...                     mechanism.estimate_frequencies()))
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
