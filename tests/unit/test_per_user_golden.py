"""Golden digests pinning the per-user collection paths bit for bit.

``mode="per_user"`` runs the real local protocol for every user on the
server: each user draws a level (or a level tuple), the users are grouped
and every group's items are perturbed and folded into that level's
accumulator.  The sha256 digests below cover the estimates, the per-level
user counts and the generator state left behind, for the mechanisms whose
per-user path no other digest pins (the HRR ones live in
``test_hrr_golden.py``).  They were captured from the straightforward
implementation — a ``rng.choice`` level draw, one mask scan per level and
``accumulator.add(oracle.encode_batch(...))`` per group — so any change to
the random stream, the grouping order or the fold changes a digest.

Run ``PYTHONPATH=src python tests/unit/test_per_user_golden.py`` to print
the current digests.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.core.factory import mechanism_from_spec
from repro.data.synthetic import cauchy_probabilities


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


#: name -> (spec, domain, users of the one-shot fit, users of the
#: incremental batch, extra constructor arguments)
CASES = {
    "hhc_4": ("hhc_4", 1024, 20_000, 3_001, {}),
    "hh_16": ("hh_16", 1024, 20_000, 3_001, {}),
    "hh_4_splitting": ("hh_4", 256, 6_000, 1_001, {"budget_strategy": "splitting"}),
    "hh_4_skewed_levels": (
        "hh_4", 256, 20_000, 3_001, {"level_probabilities": [0.5, 0.0, 0.3, 0.2]}
    ),
    "haar_skewed_levels": (
        "haar", 1000, 20_000, 3_001,
        {"level_probabilities": [0.0, 3, 1, 0, 0, 2, 1, 1, 0, 4]},
    ),
    "flat_oue": ("flat_oue", 256, 6_000, 1_001, {}),
    "flat_grr": ("flat_grr", 64, 20_000, 3_001, {}),
    "grid2d_2": ("grid2d_2", 16, 20_000, 3_001, {}),
    "grid3d_2": ("grid3d_2", 8, 20_000, 3_001, {}),
}


def per_user_digest(name: str) -> str:
    spec, domain, n_fit, n_partial, kwargs = CASES[name]
    mechanism = mechanism_from_spec(spec, epsilon=1.1, domain_size=domain, **kwargs)
    cells = mechanism.domain_size
    rng = np.random.default_rng(2024 + len(name))
    mechanism.fit_items(_items(cells, n_fit, 11), rng, mode="per_user")
    mechanism.partial_fit(_items(cells, n_partial, 12), rng, mode="per_user")
    arrays = [mechanism.estimate_frequencies()]
    for attribute in ("level_user_counts", "tuple_user_counts"):
        counts = getattr(mechanism, attribute, None)
        if counts is not None:
            arrays.append(np.asarray(counts))
    arrays.append(rng.integers(0, 2**62, size=4))
    return _digest(*arrays)


GOLDEN = {
    "hhc_4": "27d9ec7b44e95a4b1111271183fa53491abbe97ea0072e267050871321bc28f9",
    "hh_16": "2f97fa74d7ad858075c82cdcb6b857a22ff1db9fa47390c4a3feb6a8366ddf6e",
    "hh_4_splitting": "d2197505573da42dbe007846680e5afe8fbe1d72307e053fd1d8a45475f1d911",
    "hh_4_skewed_levels": "f41c0d231dc8e4425f5c23c5d6ddbacbf07cffda4f4513d75612837e8166c9d1",
    "haar_skewed_levels": "3ec8999480e81cddbd581407c193ab4634041af0443765d4995113152b0332d2",
    "flat_oue": "1e557d8cc0f44f12f809f7f2ea506d80efc0e5938d6f1343630510faeeb11f59",
    "flat_grr": "605c95c09b74ebe7701c3d3c073ef8754bbd924cd6bd3ddee30abe7285ebab97",
    "grid2d_2": "b30149e1782099484c9e67bd61e0df86308c246e3bfa7642078837655aa18a88",
    "grid3d_2": "248794b07db00bea0a59807dc3ea5d315cf7ad7c8882bd2d6edcc88509571915",
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_per_user_estimates_match_golden(name):
    assert per_user_digest(name) == GOLDEN[name]


if __name__ == "__main__":
    for key in CASES:
        print(f"    {key!r}: {per_user_digest(key)!r},")
