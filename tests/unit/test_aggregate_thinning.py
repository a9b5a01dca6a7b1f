"""Aggregate-mode level thinning: a bit-for-bit reference, its
distribution and its memory bound.

``RangeQueryMechanism._thinned`` splits a batch's per-item counts across
the labels.  Along a chain of nesting labels (HH levels leaves first,
Haar levels 1 to ``h``) it draws the finest label first and sums what
remains into the next label's cells before that label's draw; the grid's
level tuples, which do not nest, are thinned in label order at item
resolution.  The reference below walks the chain with explicit parent
maps (``node // B``, ``key >> 1``) and ``np.unique``, independent of
``_label_cells`` and ``np.add.reduceat``, and must reproduce every
yielded array and the generator state.  The distributional test checks
what the split means: per label, the counts are Multinomial(``c_i``,
``p``) per item summed to that label's cells.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from repro.core.factory import mechanism_from_spec
from repro.core.hierarchical import HierarchicalHistogramMechanism
from repro.core.wavelet import HaarWaveletMechanism


def _hh(branching, domain, probabilities=None):
    return HierarchicalHistogramMechanism(
        1.1, domain, branching=branching, level_probabilities=probabilities
    )


def _haar(domain, probabilities=None):
    return HaarWaveletMechanism(1.1, domain, level_probabilities=probabilities)


def _chain(mechanism):
    """(label indices finest first, finest cells of the items, parent map,
    cells of an item at a label) of a nesting mechanism."""
    if isinstance(mechanism, HaarWaveletMechanism):
        return (
            list(range(mechanism.height)),
            lambda items: items,
            lambda keys: keys >> 1,
            lambda level, items: items >> (level - 1),
        )
    tree = mechanism.tree
    return (
        list(range(tree.height - 1, -1, -1)),
        lambda items: items,
        lambda nodes: nodes // tree.branching,
        lambda level, items: items // tree.branching ** (tree.height - level),
    )


def reference_thinned(mechanism, support, counts, rng):
    """Finest label first; the remainder moves up through the parent map."""
    order, finest, parent, _ = _chain(mechanism)
    shares = mechanism._label_shares
    cells, remaining = finest(support), counts
    remaining_probability = 1.0
    out, users = [], np.zeros(len(order), dtype=np.int64)
    for position, index in enumerate(order):
        if position:
            cells, inverse = np.unique(parent(cells), return_inverse=True)
            remaining = np.bincount(inverse, weights=remaining).astype(np.int64)
        if position == len(order) - 1:
            label_counts = remaining
        else:
            share = 0.0 if remaining_probability <= 0 else min(
                1.0, shares[index] / remaining_probability
            )
            label_counts = rng.binomial(remaining, share)
            remaining = remaining - label_counts
            remaining_probability -= shares[index]
        users[index] = label_counts.sum()
        if users[index]:
            out.append((mechanism._labels[index], cells, label_counts))
    return out, users


def _batch(domain, n_items, seed, max_count=40):
    rng = np.random.default_rng(seed)
    support = np.sort(rng.choice(domain, size=min(n_items, domain), replace=False))
    return support, rng.integers(1, max_count, size=support.shape[0])


def _thin(mechanism, support, counts, rng):
    mechanism._reset_accumulators()
    return list(mechanism._thinned(support, counts, rng)), mechanism._label_user_counts


MECHANISMS = {
    "hh_2_D64": lambda: _hh(2, 64),
    "hh_2_D37": lambda: _hh(2, 37),
    "hh_3_D27": lambda: _hh(3, 27),
    "hh_3_D50_skewed": lambda: _hh(3, 50, [0.1, 0.0, 0.6, 0.3]),
    "hh_4_D256": lambda: _hh(4, 256),
    "hh_4_D100_skewed": lambda: _hh(4, 100, [0.5, 0.0, 0.3, 0.2]),
    "hh_16_D4096": lambda: _hh(16, 4096),
    "hh_16_D300": lambda: _hh(16, 300),
    "haar_D64": lambda: _haar(64),
    "haar_D1000_skewed": lambda: _haar(1000, [0.0, 3, 1, 0, 0, 2, 1, 1, 0, 4]),
}


@pytest.mark.parametrize("name", sorted(MECHANISMS))
@pytest.mark.parametrize("n_items", [1, 7, 10_000])
@pytest.mark.parametrize("seed", [0, 1])
def test_thinning_matches_the_chain_reference(name, n_items, seed):
    mechanism = MECHANISMS[name]()
    support, counts = _batch(mechanism.domain_size, n_items, seed)
    expected_rng, actual_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    expected, expected_users = reference_thinned(mechanism, support, counts, expected_rng)
    actual, actual_users = _thin(mechanism, support, counts, actual_rng)
    assert [label for label, _, _ in actual] == [label for label, _, _ in expected]
    for (label, cells, label_counts), (_, ref_cells, ref_counts) in zip(actual, expected):
        np.testing.assert_array_equal(cells, ref_cells, err_msg=f"{name} {label}")
        np.testing.assert_array_equal(label_counts, ref_counts, err_msg=f"{name} {label}")
    np.testing.assert_array_equal(actual_users, expected_users)
    assert actual_rng.bit_generator.state == expected_rng.bit_generator.state


def test_an_empty_batch_draws_nothing():
    for build in MECHANISMS.values():
        mechanism = build()
        rng = np.random.default_rng(3)
        state = rng.bit_generator.state
        empty = np.zeros(0, dtype=np.int64)
        assert _thin(mechanism, empty, empty, rng)[0] == []
        assert rng.bit_generator.state == state


def test_labels_that_do_not_nest_thin_in_label_order_at_item_resolution():
    """The grid keeps its per-tuple order: each tuple's binomial is drawn
    over the support's items, and the cells are its ``_label_cells``."""
    grid = mechanism_from_spec("grid2d_2", epsilon=1.1, domain_size=8)
    support, counts = _batch(64, 20, 5)
    rng, expected_rng = np.random.default_rng(9), np.random.default_rng(9)
    actual, _ = _thin(grid, support, counts, rng)
    remaining, shares = counts, grid._label_shares
    remaining_probability = 1.0
    for index, label in enumerate(grid._labels):
        if index == len(grid._labels) - 1:
            label_counts = remaining
        else:
            label_counts = expected_rng.binomial(remaining, shares[index] / remaining_probability)
            remaining = remaining - label_counts
            remaining_probability -= shares[index]
        if label_counts.sum():
            yielded_label, cells, yielded = actual.pop(0)
            assert yielded_label == label
            np.testing.assert_array_equal(cells, grid._label_cells(label, support))
            np.testing.assert_array_equal(yielded, label_counts)
    assert actual == []
    assert rng.bit_generator.state == expected_rng.bit_generator.state


#: Mechanisms of the distributional test: padded domains, skewed levels
#: with a zero, and a sparse support with a mix of small and large counts.
DISTRIBUTION_CASES = {
    "hh_3_D50_skewed": lambda: _hh(3, 50, [0.1, 0.05, 0.55, 0.3]),
    "hh_4_D100": lambda: _hh(4, 100),
    "haar_D24_skewed": lambda: _haar(24, [0.4, 0.0, 0.1, 0.2, 0.3]),
}


@pytest.mark.parametrize("name", sorted(DISTRIBUTION_CASES))
def test_each_label_is_the_per_item_multinomial_summed_to_its_cells(name):
    """Over many seeds, label ``l``'s count in cell ``a`` has the mean
    ``p_l C_a`` and variance ``p_l (1 - p_l) C_a`` of a sum of per-item
    Binomial(``c_i``, ``p_l``) marginals (``C_a``: the users of the items
    in ``a``), adjacent labels' totals have the multinomial covariance
    ``-N p_l p_m``, and every seed's labels add up to the batch exactly,
    summed at the coarsest label's cells."""
    mechanism = DISTRIBUTION_CASES[name]()
    order, _, _, cell_of = _chain(mechanism)
    labels, shares = mechanism._labels, mechanism._label_shares
    support, counts = _batch(mechanism.domain_size, 13, 17, max_count=60)
    counts[::4] = 1
    haar = isinstance(mechanism, HaarWaveletMechanism)
    # A Haar level's cells are its signed keys, two per coefficient.
    domains = {
        label: 2 * oracle.padded_size if haar else oracle.domain_size
        for label, oracle in mechanism._oracles.items()
    }
    coarsest = labels[order[-1]]

    def to_coarsest(label, cells):
        """The coarsest label's cell holding each of ``label``'s cells."""
        steps = order.index(labels.index(coarsest)) - order.index(labels.index(label))
        return cells >> steps if haar else cells // mechanism.branching**steps

    draws = 4_000
    samples = {label: np.zeros((draws, domains[label]), dtype=np.int64) for label in labels}
    for seed in range(draws):
        total = np.zeros(domains[coarsest], dtype=np.int64)
        for label, cells, label_counts in _thin(
            mechanism, support, counts, np.random.default_rng(seed)
        )[0]:
            samples[label][seed, cells] = label_counts
            np.add.at(total, to_coarsest(label, cells), label_counts)
        expected_total = np.bincount(
            cell_of(coarsest, support), weights=counts, minlength=domains[coarsest]
        )
        np.testing.assert_array_equal(total, expected_total)

    for index, label in enumerate(labels):
        p = shares[index]
        cell_users = np.bincount(
            cell_of(label, support), weights=counts, minlength=domains[label]
        )
        sample = samples[label]
        mean, variance = p * cell_users, p * (1 - p) * cell_users
        gap = np.abs(sample.mean(axis=0) - mean)
        assert np.all(gap <= 5 * np.sqrt(variance / draws) + 1e-12), (name, label)
        occupied = variance > 0
        sample_variance = sample.var(axis=0, ddof=1)[occupied]
        spread = 6 * variance[occupied] * np.sqrt(2.0 / (draws - 1)) + 6 * np.sqrt(
            variance[occupied] / draws
        )
        assert np.all(np.abs(sample_variance - variance[occupied]) <= spread), (name, label)
        assert np.all(sample[:, ~occupied] == 0), (name, label)

    n_users = int(counts.sum())
    for first, second in zip(order[:-1], order[1:]):
        totals = [samples[labels[index]].sum(axis=1) for index in (first, second)]
        covariance = np.cov(totals[0], totals[1])[0, 1]
        expected = -n_users * shares[first] * shares[second]
        bound = 6 * np.sqrt(n_users**2 * shares[first] * shares[second] / draws) + 1e-9
        assert abs(covariance - expected) <= bound, (name, labels[first], labels[second])


@pytest.mark.parametrize("spec", ["hh_16", "haar"])
def test_a_sparse_batch_thins_in_memory_of_its_support(spec):
    """~500 items over D = 2^20: ``_thinned`` allocates per occupied cell,
    never a domain-sized array (one int64 vector of D would be 8 MiB)."""
    domain = 1 << 20
    mechanism = mechanism_from_spec(spec, epsilon=1.1, domain_size=domain)
    support, counts = _batch(domain, 500, 23)
    mechanism._reset_accumulators()
    rng = np.random.default_rng(0)
    tracemalloc.start()
    try:
        shares = list(mechanism._thinned(support, counts, rng))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert sum(int(label_counts.sum()) for _, _, label_counts in shares) == counts.sum()
    assert peak < 8 * domain / 32
