"""Golden digests pinning the HRR encode/decode paths bit-for-bit.

The HRR oracle, the Haar wavelet mechanism built on it and the fast
Walsh–Hadamard transform are optimised for speed.  Per-user mode keeps the
per-user stream: every random draw and every floating-point operation
happens in the same order as in the straightforward reference
implementation, so its estimates are bit-identical to that reference, from
which the ``per_user`` digests were captured.  Aggregate mode is exact in
distribution, not in draws: a small batch draws each user's Hadamard
index, a large one samples the indices in count space (a Haar fit's
large levels together, one stage per index bit), and the
randomized-response flips are drawn as one binomial count per
(index, sign) cell, so the ``aggregate`` digests pin that stream, and
the level thinning before it.  The ``haar`` aggregate fits below mostly
take the per-user index draw (past the count-space threshold are only
the one-coefficient top levels and ``D = 3``); the ``count_space``
digests pin fits of ``2^20`` users, every level of which is sampled in
count space.  Any change to the random stream, the report
payloads or the float arithmetic changes a digest.

Run ``PYTHONPATH=src python tests/unit/test_hrr_golden.py`` to print the
current digests (for re-pinning after a deliberate, documented change).
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.core.factory import mechanism_from_spec
from repro.core.wavelet import HaarWaveletMechanism
from repro.data.synthetic import cauchy_probabilities, expected_counts
from repro.frequency_oracles.hadamard import HadamardRandomizedResponse
from repro.transforms.hadamard import fast_walsh_hadamard_transform

HAAR_DOMAINS = (3, 1000, 1024, 16384)
MODES = ("per_user", "aggregate")
COUNT_SPACE_SPECS = ("haar", "flat_hrr")


def _digest(*arrays: np.ndarray) -> str:
    sha = hashlib.sha256()
    for array in arrays:
        array = np.ascontiguousarray(array)
        sha.update(str(array.dtype).encode())
        sha.update(str(array.shape).encode())
        sha.update(array.tobytes())
    return sha.hexdigest()


def _items(domain: int, n_users: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return rng.choice(domain, size=n_users, p=cauchy_probabilities(domain))


def haar_digest(domain: int, mode: str) -> str:
    mechanism = HaarWaveletMechanism(epsilon=1.1, domain_size=domain)
    rng = np.random.default_rng(1000 + domain)
    mechanism.fit_items(_items(domain, 20_000, domain), rng, mode=mode)
    mechanism.partial_fit(_items(domain, 7_000, domain + 1), rng, mode=mode)
    return _digest(mechanism.estimate_frequencies(), mechanism.coefficients())


def tree_hrr_digest() -> str:
    mechanism = mechanism_from_spec("hhc_4_hrr", epsilon=1.1, domain_size=1024)
    mechanism.fit_items(_items(1024, 50_000, 7), 8, mode="aggregate")
    mechanism.partial_fit(_items(1024, 5_000, 9), 10, mode="per_user")
    return _digest(mechanism.estimate_frequencies())


def count_space_digest(spec: str) -> str:
    mechanism = mechanism_from_spec(spec, epsilon=1.1, domain_size=1024)
    rng = np.random.default_rng(2024)
    mechanism.fit_counts(expected_counts(cauchy_probabilities(1024), 1 << 20), rng)
    mechanism.partial_fit(_items(1024, 300_000, 11), rng)
    return _digest(mechanism.estimate_frequencies())


def encode_batch_digest() -> str:
    oracle = HadamardRandomizedResponse(epsilon=0.7, domain_size=1000)
    rng = np.random.default_rng(42)
    values = rng.integers(0, 1000, size=30_000)
    signs = np.where(rng.random(30_000) < 0.5, -1, 1)
    reports = oracle.encode_batch(values, rng, signs=signs)
    return _digest(reports.payload["indices"], reports.payload["values"])


def fwht_digest() -> str:
    rng = np.random.default_rng(314)
    outputs = [
        fast_walsh_hadamard_transform(rng.standard_normal(1 << power))
        for power in range(15)
    ]
    return _digest(*outputs)


GOLDEN = {
    ("haar", 3, "per_user"): "30c95106f307d41d6ca8f7397803e7e6cc4cea8b562cb65f0ab7f63e66f2b178",
    ("haar", 3, "aggregate"): "d71df7be8dc76a2fdd06372c4df64536d941890a6f10376a6f28a225757c4b17",
    ("haar", 1000, "per_user"): "f046e1cb2ed93c48088bd7bb7371ecb5b44abd15a46a31e7dea6d87fad166e01",
    ("haar", 1000, "aggregate"): "0d7da60d89caf11ceb3dc5063a5bb7f230a28304fe0f7113c294d08d11f77d5a",
    ("haar", 1024, "per_user"): "c507df0b7e6e7401d67280c0050bd114bb7278bf81508d51afb5d2b3a40dd2ea",
    ("haar", 1024, "aggregate"): "7ac4b52d4b7f56b37789f8a83e3d04ae84d270f8ad722c5b5df97e67f4c68e33",
    ("haar", 16384, "per_user"): "81843de93a3a6455b5556212b94d1913fa65d3b1474cdcf542b3ec852e13b982",
    ("haar", 16384, "aggregate"): "2129899253906eedb357c188cd0f92fbc9e02333139a3be97d7247a98073552e",
    ("hhc_4_hrr",): "ebadb84d7aab3dccebf4dfecba69a5287753d2b14910eca14d97d7123556aa9c",
    ("count_space", "haar"): "798f559b7d56582c59a244b400c0ae04b030d3c1c060bcd83c31c5eb0df94a06",
    ("count_space", "flat_hrr"): "8592d1ede628eadd8b87ab78c367b87e0402257c7c609db0dab12b2d75a50533",
    ("encode_batch",): "cd651f685749d95221258d7cd752d5d3f2f320dec68906ebdebadbb284c5bf86",
    ("fwht",): "221d9b9869285679bd08b5467151ced2f32ee001ba38b5d116f90149a1a6ff7f",
}


def current_digests() -> dict:
    digests = {
        ("haar", domain, mode): haar_digest(domain, mode)
        for domain in HAAR_DOMAINS
        for mode in MODES
    }
    digests[("hhc_4_hrr",)] = tree_hrr_digest()
    for spec in COUNT_SPACE_SPECS:
        digests[("count_space", spec)] = count_space_digest(spec)
    digests[("encode_batch",)] = encode_batch_digest()
    digests[("fwht",)] = fwht_digest()
    return digests


@pytest.mark.parametrize("domain", HAAR_DOMAINS)
@pytest.mark.parametrize("mode", MODES)
def test_haar_estimates_and_coefficients_match_golden(domain, mode):
    assert haar_digest(domain, mode) == GOLDEN[("haar", domain, mode)]


def test_tree_hrr_estimates_match_golden():
    assert tree_hrr_digest() == GOLDEN[("hhc_4_hrr",)]


@pytest.mark.parametrize("spec", COUNT_SPACE_SPECS)
def test_count_space_fits_match_golden(spec):
    assert count_space_digest(spec) == GOLDEN[("count_space", spec)]


def test_signed_encode_batch_payload_matches_golden():
    assert encode_batch_digest() == GOLDEN[("encode_batch",)]


def test_fwht_outputs_match_golden():
    assert fwht_digest() == GOLDEN[("fwht",)]


if __name__ == "__main__":
    for key, value in current_digests().items():
        print(f"    {key!r}: {value!r},")
