"""Binary container format of the snapshot subsystem.

Every snapshot produced by :mod:`repro.persist` is one self-describing byte
string with a fixed layout::

    bytes 0..9    magic  b"REPROSNAP\\x00"
    bytes 10..11  format version (little-endian uint16)
    bytes 12..15  header length in bytes (little-endian uint32)
    ...           JSON header (UTF-8)
    ...           ``numpy.savez`` archive holding every array of the state

The JSON header carries the *schema*: what kind of object was snapshotted
(accumulator / mechanism / collector), the configuration needed to rebuild
it, and the merge signature used for compatibility checks.  The npz payload
carries the sufficient statistics bit-for-bit (``float64``/``int64`` arrays
round-trip exactly), which is what makes ``load(save(x))`` reproduce ``x``'s
estimates to the last bit.

Why a hybrid instead of pickle: the header stays greppable and
forward-checkable (a newer reader can refuse cleanly, an older reader fails
with a precise version error instead of unpickling garbage), and nothing in
the file can execute code on load (``allow_pickle=False`` throughout).
"""

from __future__ import annotations

import io
import json
import os
import struct
from pathlib import Path
from typing import Any, Dict, Mapping, Tuple, Union

import numpy as np

from repro.exceptions import ConfigurationError

__all__ = [
    "FORMAT_VERSION",
    "MAGIC",
    "flatten_arrays",
    "nest_arrays",
    "pack_snapshot",
    "unpack_snapshot",
    "write_atomic",
]

#: File magic identifying a repro snapshot container.
MAGIC = b"REPROSNAP\x00"

#: Version of the container layout *and* of the state schemas inside it.
#: Bump on any incompatible change; readers refuse snapshots written by a
#: newer version instead of misinterpreting them.
FORMAT_VERSION = 1

_HEAD = struct.Struct("<HI")  # (format_version, header_length)


def pack_snapshot(header: Mapping[str, Any], arrays: Mapping[str, np.ndarray]) -> bytes:
    """Serialise a JSON header plus named arrays into one container."""
    header_bytes = json.dumps(dict(header), sort_keys=True).encode("utf-8")
    buffer = io.BytesIO()
    # ``savez`` with zero arrays still writes a valid (empty) archive, so
    # snapshots of unfitted state need no special casing.
    np.savez(buffer, **{key: np.asarray(value) for key, value in arrays.items()})
    return (
        MAGIC
        + _HEAD.pack(FORMAT_VERSION, len(header_bytes))
        + header_bytes
        + buffer.getvalue()
    )


def unpack_snapshot(data: bytes) -> Tuple[Dict[str, Any], Dict[str, np.ndarray]]:
    """Parse a container back into its header and arrays.

    Raises :class:`~repro.exceptions.ConfigurationError` on a wrong magic,
    a truncated container, or a format version newer than this reader.
    """
    if not isinstance(data, (bytes, bytearray, memoryview)):
        raise ConfigurationError(
            f"snapshot data must be bytes, got {type(data).__name__}"
        )
    data = bytes(data)
    if len(data) < len(MAGIC) + _HEAD.size or not data.startswith(MAGIC):
        raise ConfigurationError(
            "not a repro snapshot: bad magic (file truncated or foreign format)"
        )
    version, header_length = _HEAD.unpack_from(data, len(MAGIC))
    if version > FORMAT_VERSION:
        raise ConfigurationError(
            f"snapshot format version {version} is newer than this reader "
            f"(supports <= {FORMAT_VERSION}); upgrade repro to load it"
        )
    start = len(MAGIC) + _HEAD.size
    stop = start + header_length
    if stop > len(data):
        raise ConfigurationError("snapshot truncated inside its header")
    try:
        header = json.loads(data[start:stop].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as error:
        raise ConfigurationError(f"snapshot header is not valid JSON: {error}")
    if not isinstance(header, dict):
        raise ConfigurationError("snapshot header must be a JSON object")
    try:
        with np.load(io.BytesIO(data[stop:]), allow_pickle=False) as archive:
            arrays = {key: archive[key] for key in archive.files}
    except Exception as error:  # zipfile/numpy raise several unrelated types
        raise ConfigurationError(f"snapshot array payload is corrupt: {error}")
    header["format_version"] = int(version)
    return header, arrays


def write_atomic(path: Union[str, Path], data: bytes) -> Path:
    """Write ``data`` to ``path`` via a fsynced temp file + rename.

    A crash mid-write leaves either the old snapshot or the new one —
    never a truncated container: the data is fsynced before the rename (so
    the journal cannot order the rename ahead of the blocks) and the
    parent directory is fsynced after it (so the rename itself is
    durable).  The temp name embeds the pid, so concurrent writers to the
    same path cannot clobber each other's half-written temp file.  Shared
    by every durable snapshot surface.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as handle:
            handle.write(data)
            handle.flush()
            os.fsync(handle.fileno())
        tmp.replace(path)
    finally:
        tmp.unlink(missing_ok=True)
    try:
        directory_fd = os.open(path.parent, os.O_RDONLY)
    except OSError:  # pragma: no cover - platforms without dir fds
        return path
    try:
        os.fsync(directory_fd)
    finally:
        os.close(directory_fd)
    return path


def flatten_arrays(
    nested: Mapping[str, Any], prefix: str = ""
) -> Dict[str, np.ndarray]:
    """Flatten a nested ``{str: array-or-dict}`` state into npz-safe keys.

    Path segments are joined with ``"/"``; segments therefore must not
    contain the separator themselves.
    """
    flat: Dict[str, np.ndarray] = {}
    for key, value in nested.items():
        key = str(key)
        if "/" in key:
            raise ConfigurationError(f"state keys must not contain '/': {key!r}")
        path = f"{prefix}{key}"
        if isinstance(value, Mapping):
            flat.update(flatten_arrays(value, prefix=f"{path}/"))
        else:
            flat[path] = np.asarray(value)
    return flat


def nest_arrays(flat: Mapping[str, np.ndarray]) -> Dict[str, Any]:
    """Invert :func:`flatten_arrays`.

    Raises :class:`~repro.exceptions.ConfigurationError` when one path is
    both an array and a prefix of another (``"a"`` next to ``"a/b"``).
    """
    nested: Dict[str, Any] = {}
    for path, value in flat.items():
        parts = path.split("/")
        node = nested
        for part in parts[:-1]:
            node = node.setdefault(part, {})
            if not isinstance(node, dict):
                raise ConfigurationError(f"snapshot array path {path!r} is ambiguous")
        if parts[-1] in node:
            raise ConfigurationError(f"snapshot array path {path!r} is ambiguous")
        node[parts[-1]] = value
    return nested
