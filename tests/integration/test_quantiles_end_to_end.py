"""End-to-end quantile estimation (Section 4.7 / Figure 9 behaviour)."""

import numpy as np
import pytest

from repro.analysis.metrics import quantile_errors
from repro.core.factory import mechanism_from_spec
from repro.core.quantiles import DECILES, estimate_quantiles
from repro.data.synthetic import cauchy_probabilities, expected_counts

DOMAIN = 2048
N_USERS = 1 << 17
EPSILON = 1.1


@pytest.fixture(scope="module", params=[0.1, 0.5], ids=["left-skewed", "centered"])
def dataset(request):
    probabilities = cauchy_probabilities(DOMAIN, center_fraction=request.param)
    return expected_counts(probabilities, N_USERS)


#: Seeds of the decile test, fixed before any result was looked at.
DECILE_SEEDS = range(40)
#: Over seeds 0-59 the worst cell (``hhc_2``, centred) misses the per-seed
#: thresholds below on 6; at that rate (10%) more than 10 misses in 40
#: seeds has probability 0.15%.  An HRR oracle unbiased with the keep
#: probability of eps / 2 passes 21 and 9 of the 40 Haar seeds.
MIN_DECILE_PASSES = 30


@pytest.mark.parametrize("spec", ["hhc_2", "hhc_4", "haar"])
def test_decile_quantile_error_is_small(spec, dataset):
    # The paper's headline observation (Section 5.5): the *quantile error*
    # stays small even where the value error spikes in sparse regions.
    # One seed's draw may miss the thresholds by chance, so the test asks
    # that most seeds of a fixed set meet them.
    misses = []
    for seed in DECILE_SEEDS:
        mechanism = mechanism_from_spec(spec, epsilon=EPSILON, domain_size=DOMAIN)
        mechanism.fit_counts(dataset, random_state=seed)
        returned = estimate_quantiles(mechanism, DECILES)
        errors = quantile_errors(dataset, DECILES, returned)["quantile_error"]
        if not (errors.max() < 0.08 and errors.mean() < 0.03):
            misses.append(seed)
    assert len(DECILE_SEEDS) - len(misses) >= MIN_DECILE_PASSES, misses


@pytest.mark.parametrize("spec", ["hhc_4", "haar"])
def test_value_error_is_a_small_fraction_of_the_domain(spec, dataset):
    mechanism = mechanism_from_spec(spec, epsilon=EPSILON, domain_size=DOMAIN)
    mechanism.fit_counts(dataset, random_state=7)
    returned = estimate_quantiles(mechanism, DECILES)
    errors = quantile_errors(dataset, DECILES, returned)
    # "less than 1%" of the domain in the paper's words (Section 5.5).
    assert errors["value_error"].mean() < 0.05 * DOMAIN


def test_estimated_cdf_tracks_true_cdf(dataset):
    mechanism = mechanism_from_spec("haar", epsilon=EPSILON, domain_size=DOMAIN)
    mechanism.fit_counts(dataset, random_state=11)
    from repro.core.quantiles import estimate_cdf

    estimated = estimate_cdf(mechanism)
    truth = np.cumsum(dataset) / dataset.sum()
    # The Haar bound gives a per-prefix standard deviation of ~0.04 at this
    # scale, so allow a couple of standard deviations for the maximum over
    # all 2048 prefixes.
    assert np.max(np.abs(estimated - truth)) < 0.1
