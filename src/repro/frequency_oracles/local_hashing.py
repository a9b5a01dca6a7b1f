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
from repro.frequency_oracles.accumulators import OracleAccumulator, checked_report_symbols
from repro.frequency_oracles.base import FrequencyOracle, OracleReports
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

    def sample(self, random_state: RandomState = None) -> Dict[str, int]:
        """Sample the ``(a, b)`` parameters of one hash function."""
        rng = as_generator(random_state)
        return {
            "a": int(rng.integers(1, _PRIME)),
            "b": int(rng.integers(0, _PRIME)),
        }

    def sample_batch(self, count: int, random_state: RandomState = None) -> Dict[str, np.ndarray]:
        """Sample ``count`` hash functions as parallel parameter arrays."""
        rng = as_generator(random_state)
        return {
            "a": rng.integers(1, _PRIME, size=count, dtype=np.int64),
            "b": rng.integers(0, _PRIME, size=count, dtype=np.int64),
        }

    def evaluate(self, params: Dict[str, Any], items: np.ndarray) -> np.ndarray:
        """Evaluate one hash function on an array of items."""
        items = np.asarray(items, dtype=np.int64)
        hashed = (params["a"] * items + params["b"]) % _PRIME
        return (hashed % self.hash_range).astype(np.int64)

    def evaluate_pairwise(
        self, a: np.ndarray, b: np.ndarray, items: np.ndarray
    ) -> np.ndarray:
        """Evaluate hash function ``i`` on item ``i`` for parallel arrays."""
        a = np.asarray(a, dtype=np.int64)
        b = np.asarray(b, dtype=np.int64)
        items = np.asarray(items, dtype=np.int64)
        return (((a * items + b) % _PRIME) % self.hash_range).astype(np.int64)


class LocalHashingAccumulator(OracleAccumulator):
    """Sufficient statistic of OLH: per-item support tallies.

    A report supports item ``j`` when ``j``'s hash under that report's
    function equals the reported symbol; the statistic is the sum of those
    indicators over reports.  Decoding a batch is the ``O(batch * D)`` part,
    so shards pay it locally and the reducer only adds vectors.
    """

    @staticmethod
    def statistic_shapes(oracle: "OptimalLocalHashing") -> dict:
        return {"support": (oracle.domain_size,)}

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
        self._support += kernels.olh_decode(
            a,
            b,
            values,
            oracle.domain_size,
            oracle.hash_range,
            _PRIME,
            OLH_DECODE_TARGET_BYTES,
        )

    def _add_simulated(self, counts: np.ndarray, rng: np.random.Generator) -> None:
        n_users = int(counts.sum())
        self._support += rng.binomial(counts, self._oracle.p) + rng.binomial(
            n_users - counts, self._oracle.q
        )

    def _merge_statistic(self, other: "LocalHashingAccumulator") -> None:
        self._support += other._support

    def _statistic_arrays(self) -> dict:
        return {"support": self._support}

    def _load_statistic_arrays(self, arrays: dict) -> None:
        self._support = arrays["support"]

    def estimate(self) -> np.ndarray:
        return self._oracle._unbias(self._support, self._n_users)


class OptimalLocalHashing(FrequencyOracle):
    """OLH [Wang et al. 2017], Section 3.2 of the paper.

    Report layout (:meth:`encode`): ``{"a": int, "b": int, "value": int}`` —
    the sampled hash parameters plus the perturbed hashed symbol.

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
        if hash_range < 2:
            raise ConfigurationError(
                f"hash range must be at least 2, got {hash_range!r}"
            )
        self._hash_range = int(hash_range)
        self._family = UniversalHashFamily(self._domain_size, self._hash_range)
        exp_eps = self._budget.exp_epsilon
        #: probability of reporting the *true* hashed symbol (GRR over [g])
        self._p = exp_eps / (exp_eps + self._hash_range - 1)
        #: support probability of any non-true item in the original domain
        self._q = 1.0 / self._hash_range

    @property
    def hash_range(self) -> int:
        """The size ``g`` of the hashed domain."""
        return self._hash_range

    @property
    def p(self) -> float:
        """Probability of reporting the true hashed symbol."""
        return self._p

    @property
    def q(self) -> float:
        """Expected support probability ``1/g`` of a non-true item."""
        return self._q

    # ------------------------------------------------------------------
    # User side
    # ------------------------------------------------------------------
    def encode(self, value: int, random_state: RandomState = None) -> Dict[str, Any]:
        value = self._check_value(value)
        rng = as_generator(random_state)
        params = self._family.sample(rng)
        hashed = int(self._family.evaluate(params, np.array([value]))[0])
        if rng.random() < self._p:
            reported = hashed
        else:
            offset = int(rng.integers(1, self._hash_range))
            reported = (hashed + offset) % self._hash_range
        return {"a": params["a"], "b": params["b"], "value": reported}

    def encode_batch(
        self, values: np.ndarray, random_state: RandomState = None
    ) -> OracleReports:
        values = self._check_values(values)
        rng = as_generator(random_state)
        n_users = values.shape[0]
        params = self._family.sample_batch(n_users, rng)
        hashed = self._family.evaluate_pairwise(params["a"], params["b"], values)
        keep = rng.random(n_users) < self._p
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

    def aggregate(self, reports: OracleReports) -> np.ndarray:
        """Decode reports by crediting the support set of every report.

        The cost is ``O(N * D)``: for every user the aggregator hashes every
        domain item with that user's hash function.  The loop is blocked over
        users to keep the intermediate matrix bounded.
        """
        return self.accumulator().add(reports).estimate()

    def simulate_aggregate(
        self, true_counts: np.ndarray, random_state: RandomState = None
    ) -> np.ndarray:
        """Fast path sampling the marginal support counts.

        The support count of item ``j`` is ``Bino(c_j, p)`` from users who
        hold ``j`` plus ``Bino(N - c_j, 1/g)`` from everyone else (a
        universal hash collides with probability ``1/g``).  Cross-item
        correlations induced by shared hash functions are not reproduced,
        but per-item marginals — and hence the variance the experiments
        measure — are.
        """
        return self.accumulator().add_counts(true_counts, random_state).estimate()

    def _unbias(self, support: np.ndarray, n_users: int) -> np.ndarray:
        if n_users == 0:
            return np.zeros(self._domain_size)
        observed = support / float(n_users)
        return (observed - self._q) / (self._p - self._q)

    def theoretical_variance(self, n_users: int) -> float:
        """``4 e^eps / (N (e^eps - 1)^2)`` at the optimal ``g = e^eps + 1``."""
        return super().theoretical_variance(n_users)
