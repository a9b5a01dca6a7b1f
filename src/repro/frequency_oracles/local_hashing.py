"""Optimal Local Hashing (OLH) frequency oracle.

Each user samples a hash function ``H : [D] -> [g]`` from a universal family
(with ``g = e^eps + 1`` rounded to the nearest integer, the variance-optimal
choice), hashes her item and perturbs the hashed symbol with k-ary randomized
response over ``[g]``.  The aggregator, for every report, credits every item
of the original domain whose hash equals the reported symbol and applies the
usual bias correction.

Decoding is the expensive part: ``O(N * D)`` work, which is why the paper
only evaluates OLH on the smallest domain (``D = 2^8``).  The same practical
limitation applies here; the hierarchical mechanism refuses nothing but the
experiment configurations follow the paper and only use ``TreeOLH`` for small
domains.
"""

from __future__ import annotations

from typing import Any, Dict, Optional

import numpy as np

from repro import kernels
from repro.exceptions import ConfigurationError
from repro.frequency_oracles.accumulators import SupportAccumulator, checked_report_symbols
from repro.frequency_oracles.base import FrequencyOracle, OracleReports, PureOracle
from repro.privacy.mechanisms import olh_probabilities
from repro.privacy.randomness import RandomState, as_generator

__all__ = [
    "OLH_DECODE_TARGET_BYTES",
    "UniversalHashFamily",
    "LocalHashingAccumulator",
    "OptimalLocalHashing",
]

#: A Mersenne prime comfortably larger than any domain used in the paper
#: (2^31 - 1); arithmetic stays inside 64-bit integers.
_PRIME = (1 << 31) - 1

#: Working-set target (bytes) of the blocked OLH decode.  Each block row
#: costs ``domain_size`` int64 hash values plus a bool match row, and the
#: block count adapts so those buffers stay inside this budget regardless of
#: the domain size.  Tunable at module level; estimates are invariant to the
#: block size (the decode is a plain sum over users).
OLH_DECODE_TARGET_BYTES: int = 32 << 20


class UniversalHashFamily:
    """The multiply-shift universal family ``h(x) = ((a x + b) mod P) mod g``.

    For ``a`` drawn uniformly from ``[1, P)`` and ``b`` from ``[0, P)`` the
    collision probability of two distinct items is at most ``1/g`` (up to the
    negligible bias of the final modulus), which is the property OLH's
    analysis needs.
    """

    def __init__(self, domain_size: int, hash_range: int) -> None:
        if domain_size >= _PRIME:
            raise ConfigurationError(
                f"domain size {domain_size} exceeds the hash family prime {_PRIME}"
            )
        if hash_range < 2:
            raise ConfigurationError(
                f"hash range must be at least 2, got {hash_range!r}"
            )
        self.domain_size = int(domain_size)
        self.hash_range = int(hash_range)

    def sample_batch(self, count: int, random_state: RandomState = None) -> Dict[str, np.ndarray]:
        """Sample ``count`` hash functions as parallel parameter arrays."""
        rng = as_generator(random_state)
        return {
            "a": rng.integers(1, _PRIME, size=count, dtype=np.int64),
            "b": rng.integers(0, _PRIME, size=count, dtype=np.int64),
        }

    def evaluate_pairwise(
        self, a: np.ndarray, b: np.ndarray, items: np.ndarray
    ) -> np.ndarray:
        """Evaluate hash function ``i`` on item ``i`` for parallel arrays."""
        a = np.asarray(a, dtype=np.int64)
        b = np.asarray(b, dtype=np.int64)
        items = np.asarray(items, dtype=np.int64)
        return (((a * items + b) % _PRIME) % self.hash_range).astype(np.int64)


class LocalHashingAccumulator(SupportAccumulator):
    """Sufficient statistic of OLH: per-item support tallies.

    A report supports item ``j`` when ``j``'s hash under that report's
    function equals the reported symbol; the statistic is the sum of those
    indicators over reports.  Decoding a batch is the ``O(batch * D)`` part,
    so shards pay it locally and the reducer only adds vectors.
    """

    statistic_key = "support"

    def _add_reports(self, reports: OracleReports) -> None:
        # Reports may come from outside the process, so every field is
        # checked before the statistic changes: a rejected batch leaves the
        # support tallies and the user count untouched.
        oracle = self._oracle
        n_users = reports.n_users
        payload = reports.payload
        a = checked_report_symbols(payload["a"], n_users, _PRIME, "hash multipliers a", lower=1)
        b = checked_report_symbols(payload["b"], n_users, _PRIME, "hash offsets b")
        values = checked_report_symbols(
            payload["values"], n_users, oracle.hash_range, "hashed report values"
        )
        # The O(N * D) hash-match inner loop is blocked over users so the
        # intermediate hash/match buffers stay inside the
        # OLH_DECODE_TARGET_BYTES working-set budget.  Support counts are
        # exact integers, so the block size cannot change the estimate.
        self._statistic += kernels.olh_decode(
            a,
            b,
            values,
            oracle.domain_size,
            oracle.hash_range,
            _PRIME,
            OLH_DECODE_TARGET_BYTES,
        )


class OptimalLocalHashing(PureOracle):
    """OLH [Wang et al. 2017], Section 3.2 of the paper.

    Report layout (:meth:`encode_batch`): ``{"a", "b", "values"}``, int64
    arrays of one entry per user — each user's sampled hash parameters and
    her perturbed hashed symbol.  ``p`` is the probability of reporting the
    true hashed symbol and ``q = 1/g`` the support probability of any
    other item.

    Parameters
    ----------
    epsilon:
        Privacy budget.
    domain_size:
        Item domain size ``D``.
    hash_range:
        The ``g`` parameter; defaults to ``round(e^eps) + 1``, the
        variance-minimising choice ``g = e^eps + 1`` of the paper.
    """

    name = "olh"

    def __init__(
        self, epsilon: float, domain_size: int, hash_range: Optional[int] = None
    ) -> None:
        super().__init__(epsilon, domain_size)
        if hash_range is None:
            hash_range = int(round(self._budget.exp_epsilon)) + 1
        self._hash_range = int(hash_range)
        self._family = UniversalHashFamily(self._domain_size, self._hash_range)
        self._probabilities = olh_probabilities(epsilon, self._hash_range)

    @property
    def hash_range(self) -> int:
        """The size ``g`` of the hashed domain."""
        return self._hash_range

    # ------------------------------------------------------------------
    # User side
    # ------------------------------------------------------------------
    def encode_batch(
        self, values: np.ndarray, random_state: RandomState = None
    ) -> OracleReports:
        values = self._check_values(values)
        rng = as_generator(random_state)
        n_users = values.shape[0]
        params = self._family.sample_batch(n_users, rng)
        hashed = self._family.evaluate_pairwise(params["a"], params["b"], values)
        keep = rng.random(n_users) < self.p
        offsets = rng.integers(1, self._hash_range, size=n_users)
        reported = np.where(keep, hashed, (hashed + offsets) % self._hash_range)
        return OracleReports(
            payload={"a": params["a"], "b": params["b"], "values": reported},
            n_users=n_users,
        )

    # ------------------------------------------------------------------
    # Aggregator side
    # ------------------------------------------------------------------
    #: Mergeable accumulator over the per-item support tallies.
    accumulator_class = LocalHashingAccumulator

    def merge_signature(self) -> tuple:
        return super().merge_signature() + (self._hash_range,)

    def config_dict(self) -> Dict[str, Any]:
        config = super().config_dict()
        config["hash_range"] = self._hash_range
        return config

    def theoretical_variance(self, n_users: int) -> float:
        """``4 e^eps / (N (e^eps - 1)^2)``, the closed form at the optimal
        ``g = e^eps + 1`` (the pure-oracle expression at the rounded ``g``
        differs slightly)."""
        return FrequencyOracle.theoretical_variance(self, n_users)
