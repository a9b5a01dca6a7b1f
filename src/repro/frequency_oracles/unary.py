"""Unary-encoding frequency oracles (SUE and OUE).

The user represents her item ``v`` as the one-hot bit vector ``e_v`` of
length ``D`` and flips every bit independently:

* **SUE** (symmetric unary encoding, basic RAPPOR): every bit is kept with
  probability ``e^{eps/2} / (1 + e^{eps/2})``;
* **OUE** (optimized unary encoding, Section 3.2 of the paper): the "1" bit
  is reported truthfully with probability ``1/2`` while each "0" bit is set
  with probability ``1 / (1 + e^eps)``.  This asymmetry minimises the
  estimator variance to ``4 e^eps / (N (e^eps - 1)^2)``.

Because the bit flips are independent across positions, the aggregator's
noisy count of each item is exactly the sum of two binomials — which is what
``simulate_aggregate`` samples, making the fast path *statistically
identical* to the per-user protocol (this is the simulation trick described
in Section 5 of the paper).

Report payloads come in two interchangeable layouts:

* **packed** (what :meth:`~_UnaryEncodingOracle.encode_batch` emits):
  ``{"packed_bits": uint8 (N, ceil(D / 8)), "n_bits": D}`` — each user's
  bit vector run through :func:`np.packbits`, 8x smaller than the dense
  matrix and decoded by a blocked unpack-and-popcount column sum that never
  materialises the full matrix;
* **dense**: ``{"bits": uint8 (N, D)}`` — the layout of a single
  :meth:`~_UnaryEncodingOracle.encode` report, accepted from outside input.

Both layouts decode to bit-identical column sums, so accumulators (and
their persisted snapshots) are agnostic to which layout fed them.
"""

from __future__ import annotations

from typing import Any, Dict

import numpy as np

from repro import kernels
from repro.exceptions import ConfigurationError, InvalidQueryError
from repro.frequency_oracles.accumulators import OracleAccumulator
from repro.frequency_oracles.base import FrequencyOracle, OracleReports
from repro.privacy.mechanisms import (
    PerturbationProbabilities,
    oue_probabilities,
    sue_probabilities,
)
from repro.privacy.randomness import RandomState, as_generator

__all__ = [
    "UNARY_SUM_BLOCK_TARGET_BYTES",
    "packed_column_sums",
    "UnaryAccumulator",
    "SymmetricUnaryEncoding",
    "OptimizedUnaryEncoding",
]

#: Working-set target (bytes of unpacked bits per block) for the packed
#: column-sum decode.  Per-block sums accumulate in uint16, so the block
#: size is governed by this budget alone (the historic uint8 accumulator
#: additionally capped blocks at 255 rows, throttling large-``n_bits``
#: decodes for no accuracy gain).
UNARY_SUM_BLOCK_TARGET_BYTES: int = 1 << 18


def packed_column_sums(packed: np.ndarray, n_bits: int) -> np.ndarray:
    """Column sums of a bit matrix packed along axis 1 with :func:`np.packbits`.

    :func:`repro.kernels.unary_column_sums` processes the rows in blocks
    sized by :data:`UNARY_SUM_BLOCK_TARGET_BYTES`, unpacking each block
    contiguously and reducing it with a uint16 accumulator before widening.
    The result is bit-identical to
    ``np.unpackbits(packed, axis=1, count=n_bits).sum(axis=0)`` without ever
    materialising the dense matrix.
    """
    packed = np.asarray(packed, dtype=np.uint8)
    if packed.ndim != 2 or packed.shape[1] != (n_bits + 7) // 8:
        raise InvalidQueryError(
            f"expected a packed matrix with {(n_bits + 7) // 8} byte columns "
            f"for {n_bits} bits, got shape {packed.shape}"
        )
    return kernels.unary_column_sums(packed, n_bits, UNARY_SUM_BLOCK_TARGET_BYTES)


def _checked_bit_rows(rows, n_users: int, top: int, what: str) -> np.ndarray:
    """Validate untrusted report rows: one per user, integer or bool entries
    in ``[0, top]``.  Bool entries, and uint8 entries when ``top`` is 255,
    cannot be out of range, so they are not scanned."""
    array = np.asarray(rows)
    if array.dtype.kind not in "biu":
        raise InvalidQueryError(f"{what} must be integers or booleans, got dtype {array.dtype}")
    if array.ndim < 1 or array.shape[0] != n_users:
        raise InvalidQueryError(
            f"{what} must have one row per user ({n_users}), got shape {array.shape}"
        )
    unscanned = array.dtype.kind == "b" or (top == 255 and array.dtype == np.uint8)
    if not unscanned and array.size and (array.min() < 0 or array.max() > top):
        raise InvalidQueryError(f"{what} entries must be in [0, {top}]")
    return array


class UnaryAccumulator(OracleAccumulator):
    """Sufficient statistic of a unary encoding: per-item "1"-bit sums.

    The noisy count of item ``j`` is the column sum of the reported bit
    matrix; columns are independent binomial mixtures, so batch sums (and
    merged shard sums) follow exactly the one-shot distribution.
    """

    @staticmethod
    def statistic_shapes(oracle: "_UnaryEncodingOracle") -> dict:
        return {"ones": (oracle.domain_size,)}

    def _add_reports(self, reports: OracleReports) -> None:
        # Reports may come from outside the process: every entry is checked
        # before the statistic changes, so a rejected batch leaves the sums
        # and the user count untouched.
        domain_size = self._oracle.domain_size
        payload = reports.payload
        if "packed_bits" in payload:
            n_bits = int(payload.get("n_bits", domain_size))
            if n_bits != domain_size:
                raise InvalidQueryError(
                    f"packed reports carry {n_bits} bits per user, expected "
                    f"{domain_size}"
                )
            packed = _checked_bit_rows(payload["packed_bits"], reports.n_users, 255, "packed_bits")
            self._ones += packed_column_sums(packed, domain_size)
            return
        bits = _checked_bit_rows(payload["bits"], reports.n_users, 1, "bits")
        if bits.ndim != 2 or bits.shape[1] != domain_size:
            raise InvalidQueryError(
                f"expected a reports matrix with {domain_size} columns"
            )
        self._ones += bits.sum(axis=0).astype(np.float64)

    def _add_simulated(self, counts: np.ndarray, rng: np.random.Generator) -> None:
        n_users = int(counts.sum())
        self._ones += rng.binomial(counts, self._oracle.p) + rng.binomial(
            n_users - counts, self._oracle.q
        )

    def _merge_statistic(self, other: "UnaryAccumulator") -> None:
        self._ones += other._ones

    def _statistic_arrays(self) -> dict:
        return {"ones": self._ones}

    def _load_statistic_arrays(self, arrays: dict) -> None:
        self._ones = arrays["ones"]

    def estimate(self) -> np.ndarray:
        return self._oracle._unbias(self._ones, self._n_users)


class _UnaryEncodingOracle(FrequencyOracle):
    """Shared implementation of the two unary encodings."""

    def __init__(self, epsilon: float, domain_size: int) -> None:
        super().__init__(epsilon, domain_size)
        self._probabilities = self._make_probabilities(epsilon)

    def _make_probabilities(self, epsilon: float) -> PerturbationProbabilities:
        raise NotImplementedError

    @property
    def p(self) -> float:
        """Probability of reporting "1" for the user's own item."""
        return self._probabilities.p

    @property
    def q(self) -> float:
        """Probability of reporting "1" for any other item."""
        return self._probabilities.q

    # ------------------------------------------------------------------
    # User side
    # ------------------------------------------------------------------
    def encode(self, value: int, random_state: RandomState = None) -> Dict[str, Any]:
        """Report layout: ``{"bits": uint8 array of length D}``."""
        value = self._check_value(value)
        rng = as_generator(random_state)
        bits = (rng.random(self._domain_size) < self.q).astype(np.uint8)
        bits[value] = np.uint8(rng.random() < self.p)
        return {"bits": bits}

    def encode_batch(
        self, values: np.ndarray, random_state: RandomState = None
    ) -> OracleReports:
        """Encode a population into one packed batch (``{"packed_bits",
        "n_bits"}``); its dense unpacking decodes to bit-identical
        estimates."""
        values = self._check_values(values)
        rng = as_generator(random_state)
        n_users = values.shape[0]
        bits = (rng.random((n_users, self._domain_size)) < self.q).astype(np.uint8)
        if n_users:
            bits[np.arange(n_users), values] = (
                rng.random(n_users) < self.p
            ).astype(np.uint8)
        return OracleReports(
            payload={"packed_bits": np.packbits(bits, axis=1), "n_bits": self._domain_size},
            n_users=n_users,
        )

    # ------------------------------------------------------------------
    # Aggregator side
    # ------------------------------------------------------------------
    #: Mergeable accumulator over the per-item "1"-bit column sums.
    accumulator_class = UnaryAccumulator

    def aggregate(self, reports: OracleReports) -> np.ndarray:
        return self.accumulator().add(reports).estimate()

    def simulate_aggregate(
        self, true_counts: np.ndarray, random_state: RandomState = None
    ) -> np.ndarray:
        """Exact fast path: noisy count = Bino(c_j, p) + Bino(N - c_j, q)."""
        return self.accumulator().add_counts(true_counts, random_state).estimate()

    def _unbias(self, ones: np.ndarray, n_users: int) -> np.ndarray:
        if n_users == 0:
            return np.zeros(self._domain_size)
        observed = ones / float(n_users)
        return (observed - self.q) / (self.p - self.q)

    def theoretical_variance(self, n_users: int) -> float:
        """Small-frequency variance ``q (1 - q) / (N (p - q)^2)``.

        For OUE this equals the canonical ``4 e^eps / (N (e^eps - 1)^2)``.
        """
        if n_users <= 0:
            raise ConfigurationError(f"n_users must be positive, got {n_users!r}")
        p, q = self.p, self.q
        return q * (1.0 - q) / (n_users * (p - q) ** 2)


class SymmetricUnaryEncoding(_UnaryEncodingOracle):
    """Basic RAPPOR: symmetric per-bit randomized response with ``eps/2``."""

    name = "sue"

    def _make_probabilities(self, epsilon: float) -> PerturbationProbabilities:
        return sue_probabilities(epsilon)


class OptimizedUnaryEncoding(_UnaryEncodingOracle):
    """OUE [Wang et al. 2017]: ``p = 1/2``, ``q = 1 / (1 + e^eps)``.

    The paper uses OUE both as its flat baseline and (as ``TreeOUE``) as the
    per-level primitive of the hierarchical histogram framework.
    """

    name = "oue"

    def _make_probabilities(self, epsilon: float) -> PerturbationProbabilities:
        return oue_probabilities(epsilon)
