"""Golden digests pinning the HRR encode/decode paths bit-for-bit.

The HRR oracle, the Haar wavelet mechanism built on it and the fast
Walsh–Hadamard transform are optimised for speed under one invariant:
every random draw and every floating-point operation happens in the same
order as in the straightforward reference implementation, so estimates
are bit-identical.  These sha256 digests were captured from that reference
implementation; any change to the random stream, the report payloads or
the float arithmetic changes a digest.

Run ``PYTHONPATH=src python tests/unit/test_hrr_golden.py`` to print the
current digests (for re-pinning after a deliberate, documented change).
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.core.factory import mechanism_from_spec
from repro.core.wavelet import HaarWaveletMechanism
from repro.data.synthetic import cauchy_probabilities
from repro.frequency_oracles.hadamard import HadamardRandomizedResponse
from repro.transforms.hadamard import fast_walsh_hadamard_transform

HAAR_DOMAINS = (3, 1000, 1024, 16384)
MODES = ("per_user", "aggregate")


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
    ("haar", 3, "aggregate"): "e4b7f8e838de724ff678644b3f3291d0d07fa58e3f97cc7d4ce127950fb2062f",
    ("haar", 1000, "per_user"): "f046e1cb2ed93c48088bd7bb7371ecb5b44abd15a46a31e7dea6d87fad166e01",
    ("haar", 1000, "aggregate"): "57ab128be84ff24eba973897974fd2735c2a91f7a0ca5019adb9a0aa270b8103",
    ("haar", 1024, "per_user"): "c507df0b7e6e7401d67280c0050bd114bb7278bf81508d51afb5d2b3a40dd2ea",
    ("haar", 1024, "aggregate"): "a1ca83dc2145e171f2853e3ce5f2eff79c63677702b80bbc14e377f4a985bead",
    ("haar", 16384, "per_user"): "81843de93a3a6455b5556212b94d1913fa65d3b1474cdcf542b3ec852e13b982",
    ("haar", 16384, "aggregate"): "f51fee4f18bd8f418d53b7b191066ed976e553039f79937ac713cbdf93aefe15",
    ("hhc_4_hrr",): "7e9cf7bb0a0ae4dcbbe8de1e1898641317c86a3ee4acc858faf7a47f6afb929c",
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
    digests[("encode_batch",)] = encode_batch_digest()
    digests[("fwht",)] = fwht_digest()
    return digests


@pytest.mark.parametrize("domain", HAAR_DOMAINS)
@pytest.mark.parametrize("mode", MODES)
def test_haar_estimates_and_coefficients_match_golden(domain, mode):
    assert haar_digest(domain, mode) == GOLDEN[("haar", domain, mode)]


def test_tree_hrr_estimates_match_golden():
    assert tree_hrr_digest() == GOLDEN[("hhc_4_hrr",)]


def test_signed_encode_batch_payload_matches_golden():
    assert encode_batch_digest() == GOLDEN[("encode_batch",)]


def test_fwht_outputs_match_golden():
    assert fwht_digest() == GOLDEN[("fwht",)]


if __name__ == "__main__":
    for key, value in current_digests().items():
        print(f"    {key!r}: {value!r},")
