"""``repro.kernels`` — the library's three hot integer loops.

Blocked packed-bit column sums (the SUE/OUE aggregate path), the OLH
hash-match decode, and B-adic run enumeration (batched range answering and
the box path).  All three are pure integer functions of their inputs — no
randomness, no global state — checked bit-for-bit against naive references
in ``tests/property/test_kernel_backends.py``.

Callers reach them through the module attribute
(``kernels.unary_column_sums(...)``) rather than importing the names, so a
profiler that rebinds these names sees every call.  All tunable block sizes
arrive as explicit arguments (the module-level knobs live with the callers,
e.g. ``UNARY_SUM_BLOCK_TARGET_BYTES`` in :mod:`repro.frequency_oracles.unary`).
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

__all__ = ["unary_column_sums", "olh_decode", "badic_axis_runs"]


def unary_column_sums(
    packed: np.ndarray, n_bits: int, block_target_bytes: int
) -> np.ndarray:
    """Column sums of a bit matrix packed along axis 1 with ``np.packbits``.

    Rows are processed in blocks whose unpacked working set stays inside
    ``block_target_bytes``; each block is unpacked contiguously and reduced
    with a uint16 accumulator before widening into the int64 totals.  The
    uint16 accumulator caps a block at 65535 rows — far above any working-set
    target in practice — so the block size is governed by the byte budget
    alone (the old uint8 accumulator forced <=255-row blocks at large
    ``n_bits``, throttling throughput for no accuracy gain: column sums of
    0/1 bits are exact integers in either width).
    """
    totals = np.zeros(n_bits, dtype=np.int64)
    block = int(max(1, min(65535, block_target_bytes // max(1, n_bits))))
    for start in range(0, packed.shape[0], block):
        chunk = np.unpackbits(packed[start : start + block], axis=1, count=n_bits)
        totals += np.add.reduce(chunk, axis=0, dtype=np.uint16)
    return totals


def olh_decode(
    a: np.ndarray,
    b: np.ndarray,
    values: np.ndarray,
    domain_size: int,
    hash_range: int,
    prime: int,
    block_target_bytes: int,
) -> np.ndarray:
    """Per-item support counts of OLH reports: the ``O(N * D)`` decode.

    Item ``j`` is supported by report ``u`` when ``((a_u * j + b_u) % prime)
    % hash_range == values_u``.  The loop is blocked over users so the
    intermediate hash/match buffers stay inside ``block_target_bytes``; the
    buffers are allocated once and reused across blocks.  Support counts are
    exact integers, so the block size cannot change the result.
    """
    n_users = int(a.shape[0])
    support = np.zeros(domain_size, dtype=np.int64)
    if n_users == 0:
        return support
    items = np.arange(domain_size, dtype=np.int64)
    row_bytes = domain_size * (np.dtype(np.int64).itemsize + np.dtype(bool).itemsize)
    block = int(max(1, min(n_users, block_target_bytes // max(1, row_bytes))))
    hashed = np.empty((block, domain_size), dtype=np.int64)
    matches = np.empty((block, domain_size), dtype=bool)
    for start in range(0, n_users, block):
        stop = min(start + block, n_users)
        size = stop - start
        buffer = hashed[:size]
        np.multiply(a[start:stop, None], items[None, :], out=buffer)
        buffer += b[start:stop, None]
        buffer %= prime
        buffer %= hash_range
        np.equal(buffer, values[start:stop, None], out=matches[:size])
        support += matches[:size].sum(axis=0)
    return support


def badic_axis_runs(
    starts: np.ndarray, ends: np.ndarray, branching: int, height: int
) -> Tuple[np.ndarray, np.ndarray]:
    """The per-level B-adic peel of many range queries at once.

    Returns ``(runs, survivors)`` where ``runs`` has shape ``(height, 4,
    n)``: row ``i`` holds, for tree level ``height - i`` (finest first), the
    four node-index bounds ``(left_first, left_end, right_first, right_end)``
    of the level's left/right peel in prefix-sum coordinates (``first ==
    end`` marks an empty run).  ``survivors`` flags queries covering the
    whole padded domain, which the caller charges as the full level-1 run.
    All arithmetic is exact int64.
    """
    n_queries = int(starts.shape[0])
    lo = starts.astype(np.int64, copy=True)
    hi = ends.astype(np.int64, copy=True) + 1  # exclusive upper bounds
    runs = np.empty((height, 4, n_queries), dtype=np.int64)
    block = 1
    for index in range(height):
        coarse = block * branching
        left_end = np.minimum(hi, ((lo + coarse - 1) // coarse) * coarse)
        right_start = np.maximum(left_end, (hi // coarse) * coarse)
        runs[index, 0] = lo // block
        runs[index, 1] = left_end // block
        runs[index, 2] = right_start // block
        runs[index, 3] = hi // block
        lo, hi = left_end, right_start
        block = coarse
    return runs, lo < hi
