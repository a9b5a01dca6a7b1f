"""Walsh–Hadamard transform utilities.

The Hadamard Randomized Response (HRR) frequency oracle perturbs a single,
randomly chosen coefficient of the Hadamard transform of the user's one-hot
input vector.  Because the input is one-hot, its (unnormalised) transform is
just a column of the Hadamard matrix, whose entries are

    phi[i][j] = (-1)^{<i, j>}

where ``<i, j>`` counts the positions on which the binary representations of
``i`` and ``j`` both have a ``1`` (Figure 1 of the paper shows ``D = 8``).

Two access patterns are needed:

* *users* need a single entry ``phi[v][j]`` — provided in vectorised form by
  :func:`hadamard_entries`: one ``np.bitwise_count`` pass over ``v & j``, so
  a population of ``N`` users costs a constant number of O(N) NumPy passes,
  independent of ``D``, without materialising any matrix.  The HRR oracle
  runs the same popcount on narrow packed integers instead — the user's
  item with the sign in bit 0, against the sampled index with a ``1`` in
  bit 0 (see :mod:`repro.frequency_oracles.hadamard`) — so the entry and
  the sign come out of one pass;
* the *aggregator* needs to invert the transform over the whole domain —
  provided by the constant-geometry butterfly
  :func:`fast_walsh_hadamard_transform` in ``O(D log D)`` (two NumPy calls
  per stage), and for the Haar mechanism's stack of per-level transforms by
  :func:`dyadic_fast_walsh_hadamard_transform`, which runs every level's
  stage ``s`` in the same two calls.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import InvalidDomainError

__all__ = [
    "is_power_of_two",
    "next_power_of_two",
    "hadamard_matrix",
    "hadamard_entry",
    "hadamard_entries",
    "fast_walsh_hadamard_transform",
    "dyadic_fast_walsh_hadamard_transform",
    "inverse_fast_walsh_hadamard_transform",
]


def is_power_of_two(value: int) -> bool:
    """Return ``True`` if ``value`` is a positive power of two."""
    return isinstance(value, (int, np.integer)) and value > 0 and (value & (value - 1)) == 0


def next_power_of_two(value: int) -> int:
    """The smallest power of two ``>= value`` (``value`` itself when it is
    one; ``1`` for ``value <= 1``)."""
    return 1 << max(0, int(value) - 1).bit_length()


def _require_power_of_two(size: int) -> int:
    if not is_power_of_two(size):
        raise InvalidDomainError(
            f"Hadamard transform requires a power-of-two size, got {size!r}"
        )
    return int(size)


def hadamard_matrix(size: int, normalized: bool = False) -> np.ndarray:
    """Return the ``size x size`` Hadamard matrix.

    Parameters
    ----------
    size:
        Matrix dimension; must be a power of two.
    normalized:
        If ``True`` the matrix is scaled by ``1/sqrt(size)`` so it is
        orthonormal (matching Figure 1 of the paper); otherwise entries are
        ``+-1``.

    Notes
    -----
    Materialising the matrix costs ``O(size^2)`` memory and is only intended
    for small domains (tests, documentation examples).  Mechanisms use the
    entry-wise and butterfly routines below instead.
    """
    size = _require_power_of_two(size)
    # Sylvester construction by repeated Kronecker products.
    matrix = np.ones((1, 1), dtype=np.int64)
    block = np.array([[1, 1], [1, -1]], dtype=np.int64)
    while matrix.shape[0] < size:
        matrix = np.kron(matrix, block)
    if normalized:
        return matrix.astype(np.float64) / np.sqrt(size)
    return matrix


def hadamard_entry(row: int, col: int) -> int:
    """Return the (unnormalised) Hadamard matrix entry ``phi[row][col]``.

    ``+1`` when the binary representations of ``row`` and ``col`` share an
    even number of one-bits, ``-1`` otherwise.
    """
    if row < 0 or col < 0:
        raise InvalidDomainError("Hadamard indices must be non-negative")
    return 1 if bin(row & col).count("1") % 2 == 0 else -1


def hadamard_entries(rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """Vectorised :func:`hadamard_entry` for arrays of indices.

    Evaluates ``phi[rows[i]][cols[i]]`` for every ``i`` with one popcount
    pass (``np.bitwise_count``) over ``rows & cols``, whose low bit is the
    parity of ``<rows[i], cols[i]>``.
    """
    rows = np.asarray(rows, dtype=np.int64)
    cols = np.asarray(cols, dtype=np.int64)
    if (rows.size and rows.min() < 0) or (cols.size and cols.min() < 0):
        raise InvalidDomainError("Hadamard indices must be non-negative")
    parities = np.bitwise_count(rows & cols) & 1
    return 1 - 2 * parities.astype(np.int64)


def fast_walsh_hadamard_transform(vector: np.ndarray) -> np.ndarray:
    """Unnormalised fast Walsh–Hadamard transform.

    Computes ``H @ vector`` where ``H`` is the ``+-1`` Hadamard matrix, in
    ``O(D log D)`` time.  The input is not modified; a float64 copy is
    returned.

    Each of the ``log2 D`` stages is the constant-geometry butterfly
    ``[x[0::2] + x[1::2], x[0::2] - x[1::2]]`` written into a second buffer:
    stage ``s`` combines the same pairs (indices differing in bit ``s``),
    with the same operands in the same order, as the textbook in-place
    butterfly of stride ``2^s`` — so the result is bit-identical to it — but
    needs two NumPy calls per stage and no temporaries.
    """
    data = np.array(vector, dtype=np.float64, copy=True)
    if data.ndim != 1:
        raise InvalidDomainError("expected a one-dimensional vector")
    size = _require_power_of_two(data.shape[0])
    half = size // 2
    other = np.empty_like(data)
    for _ in range(size.bit_length() - 1):
        np.add(data[0::2], data[1::2], out=other[:half])
        np.subtract(data[0::2], data[1::2], out=other[half:])
        data, other = other, data
    return data


def dyadic_fast_walsh_hadamard_transform(vector: np.ndarray) -> np.ndarray:
    """Transform every dyadic block ``[2^k, 2^(k+1))`` of ``vector`` at once.

    Returns a float64 copy of the length-``D`` (power of two) input in
    which each block ``[s, 2s)`` for ``s = 1, 2, ..., D/2`` is replaced by
    :func:`fast_walsh_hadamard_transform` of that block, bit for bit;
    index ``0`` is copied unchanged.  This is the Haar coefficient layout,
    one block per level.

    Instead of ``log2 D`` separate transforms (``~log2^2(D)/2`` stages in
    all) it runs ``log2 D - 1`` stages, each over every block that is not
    yet finished.  After ``k`` stages, a block of size ``s`` consists of
    ``2^k`` contiguous segments of length ``s / 2^k``; the active blocks are
    kept as a matrix whose row ``r`` is the concatenation of every active
    block's segment ``r``, smallest block first.  A stage is the
    constant-geometry butterfly on each row (sums to the top half of the
    rows, differences to the bottom half), after which the smallest block
    has segments of length one: column ``0``, read top to bottom, is its
    transform in natural order.  Rows start few and long and end many and
    short, so once there are at least as many rows as columns the matrix
    is transposed once to keep the long axis innermost.
    """
    data = np.asarray(vector, dtype=np.float64)
    if data.ndim != 1:
        raise InvalidDomainError("expected a one-dimensional vector")
    size = _require_power_of_two(data.shape[0])
    out = np.empty(size, dtype=np.float64)
    out[: min(size, 2)] = data[: min(size, 2)]
    buffers = (np.empty(size, dtype=np.float64), np.empty(size, dtype=np.float64))
    rows = data[2:].reshape(1, -1)
    n_rows, block = 1, 2
    while rows.shape[1] > n_rows:
        half = rows.shape[1] // 2
        stage = buffers[0][: rows.size].reshape(2 * n_rows, half)
        np.add(rows[:, 0::2], rows[:, 1::2], out=stage[:n_rows])
        np.subtract(rows[:, 0::2], rows[:, 1::2], out=stage[n_rows:])
        buffers = buffers[::-1]
        n_rows *= 2
        out[block : 2 * block] = stage[:, 0]
        block *= 2
        rows = stage[:, 1:]
    columns = rows.T.copy()
    while columns.shape[0]:
        half = columns.shape[0] // 2
        stage = buffers[0][: columns.size].reshape(half, 2 * n_rows)
        np.add(columns[0::2], columns[1::2], out=stage[:, :n_rows])
        np.subtract(columns[0::2], columns[1::2], out=stage[:, n_rows:])
        buffers = buffers[::-1]
        n_rows *= 2
        out[block : 2 * block] = stage[0]
        block *= 2
        columns = stage[1:]
    return out


def inverse_fast_walsh_hadamard_transform(vector: np.ndarray) -> np.ndarray:
    """Inverse of :func:`fast_walsh_hadamard_transform`.

    Because the unnormalised Hadamard matrix satisfies ``H @ H = D * I``,
    the inverse is the forward transform divided by ``D``.
    """
    data = np.asarray(vector, dtype=np.float64)
    size = _require_power_of_two(data.shape[0])
    return fast_walsh_hadamard_transform(data) / float(size)
