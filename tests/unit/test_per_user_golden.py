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

A second table, :data:`LIFECYCLE_GOLDEN`, runs the same cases in both
simulation modes through the whole accumulator lifecycle: a one-shot fit,
a ``partial_fit``, a ``merge_from`` of a second instance, a snapshot round
trip through :mod:`repro.persist` and one more ``partial_fit`` on the
restored mechanism.  It pins the aggregate (binomial-thinning) paths, the
merge and the restore bit for bit.  ``level_sampled_snapshots.json`` holds
small snapshots written by the same code; each must restore with its
snapshot arrays unchanged, so the snapshot layout
(``accumulators/<label>`` plus ``level_user_counts``) stays readable.  Two
digests pin each: ``restored``, of the estimates and label counts right
after the restore, which no collection change may move, and
``continued``, after one more aggregate batch, which moves with the
aggregate stream.

Run ``PYTHONPATH=src python tests/unit/test_per_user_golden.py`` to print
the current digests, and add ``--write-snapshots`` to store a snapshot for
every case of :data:`SNAPSHOT_CASES` the fixture does not hold yet (stored
snapshots are never rewritten).
"""

from __future__ import annotations

import base64
import hashlib
import json
from pathlib import Path
from typing import Dict

import numpy as np
import pytest

from repro.core.factory import mechanism_from_spec
from repro.data.synthetic import cauchy_probabilities
from repro.persist import snapshots
from repro.persist.format import unpack_snapshot

SNAPSHOT_PATH = Path(__file__).with_name("level_sampled_snapshots.json")


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


def _label_counts(mechanism) -> list:
    arrays = []
    for attribute in ("level_user_counts", "tuple_user_counts"):
        counts = getattr(mechanism, attribute, None)
        if counts is not None:
            arrays.append(np.asarray(counts))
    return arrays


def per_user_digest(name: str) -> str:
    spec, domain, n_fit, n_partial, kwargs = CASES[name]
    mechanism = mechanism_from_spec(spec, epsilon=1.1, domain_size=domain, **kwargs)
    cells = mechanism.domain_size
    rng = np.random.default_rng(2024 + len(name))
    mechanism.fit_items(_items(cells, n_fit, 11), rng, mode="per_user")
    mechanism.partial_fit(_items(cells, n_partial, 12), rng, mode="per_user")
    arrays = [mechanism.estimate_frequencies(), *_label_counts(mechanism)]
    arrays.append(rng.integers(0, 2**62, size=4))
    return _digest(*arrays)


def lifecycle_digest(name: str, mode: str) -> str:
    """fit -> partial_fit -> merge_from -> snapshot round trip -> partial_fit."""
    spec, domain, n_fit, n_partial, kwargs = CASES[name]

    def build():
        return mechanism_from_spec(spec, epsilon=1.1, domain_size=domain, **kwargs)

    mechanism = build()
    cells = getattr(mechanism, "flat_domain_size", mechanism.domain_size)
    rng = np.random.default_rng(4096 + len(name) + len(mode))
    mechanism.fit_items(_items(cells, n_fit, 21), rng, mode=mode)
    mechanism.partial_fit(_items(cells, n_partial, 22), rng, mode=mode)
    other = build()
    other.fit_items(_items(cells, n_partial, 23), rng, mode=mode)
    mechanism.merge_from(other)
    restored = snapshots.from_bytes(snapshots.to_bytes(mechanism))
    restored.partial_fit(_items(cells, n_partial, 24), rng, mode=mode)
    arrays = [restored.estimate_frequencies(), *_label_counts(restored)]
    arrays.append(np.asarray(restored.n_users))
    arrays.append(rng.integers(0, 2**62, size=4))
    return _digest(*arrays)


#: name -> (spec, domain) of the snapshots in ``level_sampled_snapshots.json``.
SNAPSHOT_CASES = {
    "hhc_4": ("hhc_4", 64),
    "haar": ("haar", 64),
    "grid2d_2": ("grid2d_2", 8),
    "grid3d_2": ("grid3d_2", 4),
    "flat_oue": ("flat_oue", 64),
}


def write_snapshot(name: str) -> bytes:
    """The fixture snapshot of one case: an aggregate fit, then a per-user
    ``partial_fit``."""
    spec, domain = SNAPSHOT_CASES[name]
    mechanism = mechanism_from_spec(spec, epsilon=1.1, domain_size=domain)
    cells = getattr(mechanism, "flat_domain_size", mechanism.domain_size)
    rng = np.random.default_rng(8192 + len(name))
    mechanism.fit_items(_items(cells, 5_000, 31), rng, mode="aggregate")
    mechanism.partial_fit(_items(cells, 701, 32), rng, mode="per_user")
    return snapshots.to_bytes(mechanism)


def snapshot_digests(data: bytes) -> Dict[str, str]:
    """Digests of a restored snapshot (``restored``) and of one more
    aggregate batch collected on it (``continued``).  The first depends
    only on the stored bytes and the restore; the second also on the
    aggregate collection path."""
    restored = snapshots.from_bytes(data)
    digests = {"restored": _digest(restored.estimate_frequencies(), *_label_counts(restored))}
    cells = getattr(restored, "flat_domain_size", restored.domain_size)
    rng = np.random.default_rng(9)
    restored.partial_fit(_items(cells, 503, 33), rng, mode="aggregate")
    arrays = [restored.estimate_frequencies(), *_label_counts(restored)]
    arrays.append(np.asarray(restored.n_users))
    digests["continued"] = _digest(*arrays)
    return digests


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


LIFECYCLE_GOLDEN = {
    ('hhc_4', 'aggregate'): '174752e3727b4480f682c5b1212d21a812b5b273ff8e03a6be67e1bab4600ac5',
    ('hhc_4', 'per_user'): 'a7dcd7d0926fe45188ba60760ee6e7f850fec5b4598a60c92f2a006d7a1b4fb3',
    ('hh_16', 'aggregate'): 'b5f7f31a83add4ebb90b58b5cbd174ef62f2ab3d1936b2a4b88b2df244d8c811',
    ('hh_16', 'per_user'): '354712ceb7f2f30a23b7bcac18c10cf3d3c974695c802e400885c40af964cbc1',
    ('hh_4_splitting', 'aggregate'): '2c5fa0619655ada2bab36702a6df52cc9a8dd06561312a949906aca11a754231',
    ('hh_4_splitting', 'per_user'): '5cc30c40f3596fe35ebdc2a6ba2d0e78ec6bd2715327faf9d0ae4914bafaa256',
    ('hh_4_skewed_levels', 'aggregate'): '5d5b7b68e16aff6105865354ddd3f06e174de6fac7d358457dfc4fd4fc0950ec',
    ('hh_4_skewed_levels', 'per_user'): '51ddb2e76bb1b9062c6b79447f5fb3d357f5394753ce0342a07652ded4fa35c7',
    ('haar_skewed_levels', 'aggregate'): 'f083decb0e5ff9cf3b58636fa4510550e5a6453d32915f231b25a99cce9f6f18',
    ('haar_skewed_levels', 'per_user'): 'c5ec29ef6fc7f9f745bdcff8949372e9e1b7883849dd91c72280a3342f8adf8c',
    ('flat_oue', 'aggregate'): '04b6682697111e10649962811f1b04494ac2a13d39ed3e39e9083b5806c200ba',
    ('flat_oue', 'per_user'): '0d903ab9e597bcf3f28f0fe0cefb42474d6eee080586c8a133f0c5260bfea70c',
    ('flat_grr', 'aggregate'): '89b2cf4be9062adf6e2fb37f9e48f66b94fa522f561823008932dd891087195a',
    ('flat_grr', 'per_user'): 'd3207a5942ae64d8743b417bbc00477f51b9128d91bbeedcd61a725d9bbd713f',
    ('grid2d_2', 'aggregate'): 'a6c451d752e7d5468adba03a8ad6d02f058330facdab754942d6d9fc2f7ac94b',
    ('grid2d_2', 'per_user'): 'c6ddfa42f61939be00598f731a0725216568e4ed526f14d750fb7c283dbbfafb',
    ('grid3d_2', 'aggregate'): 'f0c6831746bc790bed09be4c7edb9ccbb161a72b0eb304ada94d842bb74818e1',
    ('grid3d_2', 'per_user'): '4f0b778951e6f0bb2122d8947659e0a14935d3b41cdd85349ba8797ca848fee7',
}

MODES = ("aggregate", "per_user")


@pytest.mark.parametrize("name", sorted(CASES))
def test_per_user_estimates_match_golden(name):
    assert per_user_digest(name) == GOLDEN[name]


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("name", sorted(CASES))
def test_lifecycle_matches_golden(name, mode):
    assert lifecycle_digest(name, mode) == LIFECYCLE_GOLDEN[(name, mode)]


@pytest.mark.parametrize("name", sorted(SNAPSHOT_CASES))
def test_stored_snapshot_restores_unchanged(name):
    stored = json.loads(SNAPSHOT_PATH.read_text())[name]
    data = base64.b64decode(stored["snapshot"])
    assert snapshot_digests(data) == {key: stored[key] for key in ("restored", "continued")}
    header, arrays = unpack_snapshot(data)
    rewritten_header, rewritten = unpack_snapshot(
        snapshots.to_bytes(snapshots.from_bytes(data))
    )
    # A restore rebuilds the stored level probabilities bit for bit, so
    # re-saving reproduces the whole header.
    assert rewritten_header == header
    assert sorted(rewritten) == sorted(arrays)
    for key, array in arrays.items():
        assert rewritten[key].dtype == array.dtype
        assert np.array_equal(rewritten[key], array)


if __name__ == "__main__":
    import sys

    if sys.argv[1:] == ["--write-snapshots"]:
        # Only the missing cases are written: a stored snapshot pins the
        # code that wrote it, and rewriting it would pin nothing.
        fixture = json.loads(SNAPSHOT_PATH.read_text()) if SNAPSHOT_PATH.exists() else {}
        for key in SNAPSHOT_CASES:
            if key in fixture:
                continue
            data = write_snapshot(key)
            fixture[key] = {
                "snapshot": base64.b64encode(data).decode("ascii"),
                **snapshot_digests(data),
            }
        SNAPSHOT_PATH.write_text(json.dumps(fixture, indent=1) + "\n")
    else:
        for key in CASES:
            print(f"    {key!r}: {per_user_digest(key)!r},")
        for key in CASES:
            for mode in MODES:
                print(f"    ({key!r}, {mode!r}): {lifecycle_digest(key, mode)!r},")
