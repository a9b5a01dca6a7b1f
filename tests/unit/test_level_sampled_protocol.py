"""The per-user protocol of every level-sampled mechanism, run by hand from
its hooks.

``partial_fit(..., mode="per_user")`` runs one skeleton in
:class:`~repro.core.base.RangeQueryMechanism`: each user draws a label
(``_draw_labels``), the batch is grouped by label with a stable sort, and
each group's items are mapped to that label's cells (``_label_cells``) and
perturbed by the label's oracle.  A client that encodes its own reports
needs exactly these hooks, so each case below replays the protocol from
them with the public report round trip —
``accumulator.add(oracle.encode_batch(...))`` — and must leave the same
statistics, label counts and generator state as ``partial_fit``.  Haar
perturbs a signed coefficient: a level-``l`` user's key ``item >> (l - 1)``
carries the block in its high bits and the sign in bit 0.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.factory import mechanism_from_spec
from repro.core.wavelet import HaarWaveletMechanism

#: spec -> domain (a grid's side length)
CASES = {
    "flat_oue": 64,
    "hhc_4": 256,
    "hh_4_olh": 256,
    "haar": 200,
    "grid2d_2": 16,
    "grid3d_2": 8,
}


def _encode_by_hand(mechanism, items, rng):
    """Replay the per-user protocol from the hooks; returns the per-label
    accumulators and user counts."""
    labels = mechanism._labels
    oracles = mechanism._oracles
    accumulators = {label: oracles[label].accumulator() for label in labels}
    assignments = mechanism._draw_labels(rng, items.shape[0])
    ordered = items[np.argsort(assignments, kind="stable")]
    counts = np.bincount(assignments, minlength=len(labels))
    stops = np.cumsum(counts)
    for index in np.flatnonzero(counts):
        label = labels[index]
        group = ordered[stops[index] - counts[index] : stops[index]]
        if isinstance(mechanism, HaarWaveletMechanism):
            keys = group >> (label - 1)
            reports = oracles[label].encode_batch(keys >> 1, rng, signs=1 - 2 * (keys & 1))
        else:
            reports = oracles[label].encode_batch(mechanism._label_cells(label, group), rng)
        accumulators[label].add(reports)
    return accumulators, counts


@pytest.mark.parametrize("spec", sorted(CASES))
def test_hooks_replay_the_per_user_protocol(spec):
    domain = CASES[spec]
    fitted = mechanism_from_spec(spec, epsilon=1.1, domain_size=domain)
    by_hand = mechanism_from_spec(spec, epsilon=1.1, domain_size=domain)
    # A grid collects row-major items over its flattened D^d domain.
    n_items = getattr(fitted, "flat_domain_size", domain)
    items = np.random.default_rng(7).integers(0, n_items, size=3_001)

    fitted_rng = np.random.default_rng(11)
    fitted.partial_fit(items, random_state=fitted_rng, mode="per_user")
    hand_rng = np.random.default_rng(11)
    accumulators, counts = _encode_by_hand(by_hand, items, hand_rng)

    state = fitted.state_dict()
    np.testing.assert_array_equal(state["level_user_counts"], counts)
    for label, accumulator in accumulators.items():
        stored = state["accumulators"][str(label)]
        for key, array in accumulator.state_dict().items():
            np.testing.assert_array_equal(stored[key], array, err_msg=f"{spec} {label} {key}")
    assert fitted_rng.bit_generator.state == hand_rng.bit_generator.state
