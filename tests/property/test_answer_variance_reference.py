"""``answer_variances`` against a scalar reference built query by query.

The reference states every answer's variance from first principles: the
answer is a linear function of the raw per-label oracle estimates, so its
variance is the sum over labels of the label's oracle variance times the
squared weights on its estimates.  The weights come from scalar helpers,
one query at a time:

* flat: the range length;
* ``hh_B``: a recursive B-adic decomposition, counted per level;
* ``hhc_B``: the explicit matrix ``M`` of the consistency step, built from
  unit vectors; the answer ``q . leaves(M x)`` has gradient ``M^T q`` on
  the raw levels (``M^T``, so the reference does not assume symmetry);
* Haar: :func:`~repro.transforms.haar.haar_range_weights`, each
  coefficient being its level's HRR estimate over ``2^{l/2}``;
* grids: the product of the per-axis B-adic counts for each level tuple.

The domains are not powers of the branching factor, so padding is covered.
"""

import functools
import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.factory import mechanism_from_spec
from repro.data.synthetic import cauchy_probabilities, expected_counts
from repro.data.workloads import all_range_queries, random_boxes
from repro.frequency_oracles.registry import make_oracle
from repro.hierarchy.consistency import enforce_consistency
from repro.transforms.haar import haar_range_weights

EPSILON = 1.1
DOMAIN = 48
N_USERS = 30_000
RANGES = all_range_queries(DOMAIN).queries


def _badic_counts(start, end, branching, height):
    """Nodes per level (1..h) of the canonical B-adic decomposition of
    ``[start, end]``; a covered root is charged as its ``B`` children."""
    counts = [0] * height

    def visit(level, index):
        size = branching ** (height - level)
        low, high = index * size, (index + 1) * size - 1
        if high < start or low > end:
            return
        if level >= 1 and start <= low and high <= end:
            counts[level - 1] += 1
            return
        for child in range(branching):
            visit(level + 1, index * branching + child)

    visit(0, 0)
    return counts


def _height(size, branching):
    height = 1
    while branching**height < size:
        height += 1
    return height


@functools.lru_cache(maxsize=None)
def _consistency_matrix(branching, height):
    """The stacked-levels matrix of ``enforce_consistency(., B, 0.0)``:
    column ``j`` is the map applied to unit vector ``j``, one 1-D call
    per column."""
    sizes = [branching**depth for depth in range(1, height + 1)]
    bounds = np.cumsum(sizes)[:-1]
    columns = [
        np.concatenate(enforce_consistency(np.split(unit, bounds), branching, root_value=0.0))
        for unit in np.eye(sum(sizes))
    ]
    return np.stack(columns, axis=1), sizes


def _flat_weights(queries):
    return (queries[:, 1] - queries[:, 0] + 1)[:, None].astype(float)


def _hh_weights(queries, branching):
    height = _height(DOMAIN, branching)
    return np.array([_badic_counts(a, b, branching, height) for a, b in queries], dtype=float)


def _hhc_weights(queries, branching, domain=DOMAIN):
    height = _height(domain, branching)
    matrix, sizes = _consistency_matrix(branching, height)
    leaf_rows = matrix[-sizes[-1] :]
    bounds = np.cumsum([0] + sizes)
    weights = []
    for a, b in queries:
        indicator = np.zeros(sizes[-1])
        indicator[a : b + 1] = 1.0
        gradient = leaf_rows.T @ indicator
        weights.append([np.sum(gradient[lo:hi] ** 2) for lo, hi in zip(bounds, bounds[1:])])
    return np.array(weights)


def _haar_weights(queries):
    padded = 1 << _height(DOMAIN, 2)
    height = _height(DOMAIN, 2)
    weights = np.zeros((len(queries), height))
    for row, (a, b) in enumerate(queries):
        indices, values = haar_range_weights(int(a), int(b), padded)
        for index, value in zip(indices[1:], values[1:]):
            level = height - int(index).bit_length() + 1
            weights[row, level - 1] += (value / 2.0 ** (level / 2.0)) ** 2
    return weights


def _grid_weights(boxes, side, dims, branching):
    height = _height(side, branching)
    per_axis = [
        [_badic_counts(box[2 * axis], box[2 * axis + 1], branching, height) for box in boxes]
        for axis in range(dims)
    ]
    tuples = list(itertools.product(range(height), repeat=dims))
    weights = np.ones((len(boxes), len(tuples)))
    for column, levels in enumerate(tuples):
        for axis, level in enumerate(levels):
            weights[:, column] *= [counts[level] for counts in per_axis[axis]]
    return weights


def _reference(weights, oracle, users):
    variances = np.array([make_oracle(oracle, EPSILON, 2).theoretical_variance(n) for n in users])
    return weights @ variances


#: ``(spec, oracle, reference weights)``.
RANGE_CASES = [
    ("flat_oue", "oue", _flat_weights),
    ("flat_hrr", "hrr", _flat_weights),
    ("hh_4", "oue", lambda q: _hh_weights(q, 4)),
    ("hhc_2", "oue", lambda q: _hhc_weights(q, 2)),
    ("hhc_3", "oue", lambda q: _hhc_weights(q, 3)),
    ("hhc_4", "oue", lambda q: _hhc_weights(q, 4)),
    ("hhc_5", "oue", lambda q: _hhc_weights(q, 5)),
    ("hhc_8", "oue", lambda q: _hhc_weights(q, 8)),
    ("haar", "hrr", _haar_weights),
]


@pytest.mark.parametrize("spec, oracle, weights", RANGE_CASES, ids=[c[0] for c in RANGE_CASES])
def test_range_variances_match_the_scalar_reference(spec, oracle, weights):
    expected_weights = weights(RANGES)
    labels = expected_weights.shape[1]
    mechanism = mechanism_from_spec(spec, EPSILON, DOMAIN)
    planned = mechanism.answer_variances(RANGES, n_users=N_USERS)
    np.testing.assert_allclose(
        planned, _reference(expected_weights, oracle, [N_USERS / labels] * labels), rtol=1e-12
    )
    counts = expected_counts(cauchy_probabilities(DOMAIN), N_USERS)
    mechanism.fit_counts(counts, random_state=3)
    users = [N_USERS] if labels == 1 else mechanism.level_user_counts
    np.testing.assert_allclose(
        mechanism.answer_variances(RANGES), _reference(expected_weights, oracle, users), rtol=1e-12
    )


@st.composite
def _consistent_cases(draw):
    branching = draw(st.integers(min_value=2, max_value=8))
    domain = draw(st.integers(min_value=2, max_value=130))
    bounds = st.integers(min_value=0, max_value=domain - 1)
    ranges = draw(st.lists(st.tuples(bounds, bounds), min_size=1, max_size=20))
    return branching, domain, np.sort(np.array(ranges, dtype=np.int64), axis=1)


@given(case=_consistent_cases())
@settings(max_examples=60, deadline=None)
def test_consistent_variances_match_the_explicit_matrix(case):
    """The closed form of ``hhc_B``'s weights against the explicit ``M``,
    over padded and unpadded domains and every branching factor the
    planner sweeps.  A range that is the whole padded tree has variance
    exactly ``0.0`` while ``M`` leaves a squared rounding residue, so an
    ``atol`` of ``1e-15`` of one estimate's variance forgives that
    residue; every other range here has at least a quarter of one
    estimate's variance, far above it."""
    branching, domain, ranges = case
    expected_weights = _hhc_weights(ranges, branching, domain)
    labels = expected_weights.shape[1]
    mechanism = mechanism_from_spec(f"hhc_{branching}", EPSILON, domain)
    estimate = make_oracle("oue", EPSILON, 2).theoretical_variance(N_USERS / labels)
    np.testing.assert_allclose(
        mechanism.answer_variances(ranges, n_users=N_USERS),
        _reference(expected_weights, "oue", [N_USERS / labels] * labels),
        rtol=1e-12,
        atol=1e-15 * estimate,
    )


@pytest.mark.parametrize(
    "spec, domain",
    [("hhc_2", 64), ("hhc_3", 81), ("hhc_4", 64), ("hhc_5", 125), ("hhc_8", 64), ("haar", 64)],
)
def test_full_domain_range_has_exactly_zero_variance(spec, domain):
    """At ``D = B^h`` the full range is the known root (the Haar scaling
    coefficient), so every label's weight, and the variance, is exactly
    ``0.0``, not a rounding residue."""
    mechanism = mechanism_from_spec(spec, EPSILON, domain)
    assert mechanism.answer_variances([[0, domain - 1]], n_users=N_USERS).tolist() == [0.0]


@pytest.mark.parametrize("dims, side", [(2, 6), (3, 4)])
def test_box_variances_match_the_scalar_reference(dims, side):
    boxes = random_boxes(side, 200, dims=dims, random_state=dims)
    expected_weights = _grid_weights(boxes, side, dims, 2)
    labels = expected_weights.shape[1]
    mechanism = mechanism_from_spec(f"grid{dims}d_2", EPSILON, side)
    np.testing.assert_allclose(
        mechanism.answer_variances(boxes, n_users=N_USERS),
        _reference(expected_weights, "oue", [N_USERS / labels] * labels),
        rtol=1e-12,
    )
    points = np.random.default_rng(dims).integers(0, side, size=(N_USERS, dims))
    mechanism.fit_points(points, random_state=4)
    np.testing.assert_allclose(
        mechanism.answer_variances(boxes),
        _reference(expected_weights, "oue", mechanism.tuple_user_counts),
        rtol=1e-12,
    )
