"""Audit of HRR's count-space sampler, and the crossover it switches at.

In aggregate mode :func:`~repro.frequency_oracles.hadamard.sample_level_runs`
(behind ``HadamardAccumulator.add_runs`` and ``add_counts``, a stack of one
level, and the Haar fit, all levels at once) gets each level's users' true
``(index, sign)`` tallies one of two ways: it draws every user's Hadamard index
(``_true_codes``), or, from ``HadamardRandomizedResponse._count_space_min_users``
users on, it samples the tallies in count space, one fair-binomial split
per index bit shared by every such level
(:func:`~repro.frequency_oracles.hadamard.count_space_tallies`).  The unit
and property tests pin each path bit for bit and check the aggregate
against per-user mode at one small domain; this audit runs more seeds at a
few ``(D', N)`` on both sides of the threshold, with each path forced, and
compares the two samplers' true tallies and the coefficient sums they lead
to, coordinate by coordinate (mean and variance within ``Z`` standard
errors, two-sample).  A second audit compares one multi-level call over a
stack of levels, some past their threshold and some not, with one call per
level.

The last test prints the timing table the threshold constant
(:data:`~repro.privacy.randomness.COUNT_SPACE_USERS_PER_BIT`) was fitted
from: both samplers at a quarter, one and four times the threshold for
several ``D'``.  It asserts nothing about speed (a CI runner is not the
machine the constant was fitted on); run with ``-s`` to see the table.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.experiments.reporting import format_table
from repro.frequency_oracles.hadamard import (
    HadamardRandomizedResponse,
    add_level_runs,
    count_space_tallies,
)
from repro.privacy.randomness import COUNT_SPACE_USERS_PER_BIT

EPSILON = 1.1
Z = 4.5
#: ``(D', N, seeds per sampler)``: each ``D'`` below and above its threshold
#: (24,256 users at ``D' = 16``; 56,192 at ``D' = 256``).
AUDIT_POINTS = [(16, 5_000, 1500), (16, 50_000, 1500), (256, 20_000, 400), (256, 100_000, 400)]


def _true_tallies(oracle, counts, rng, count_space):
    """The users' true-code tallies from one sampler, forced."""
    keys = oracle._keys(np.arange(counts.shape[0]), None)
    if count_space:
        key_tallies = np.bincount(keys, weights=counts, minlength=2 * oracle.padded_size)
        return count_space_tallies([key_tallies.astype(np.int64)], rng)[0]
    codes = oracle._true_codes(np.repeat(keys, counts), rng)
    return np.bincount(codes, minlength=2 * oracle.padded_size)


def _coefficient_sums(oracle, tallies, rng):
    tallies = tallies - 2 * rng.binomial(tallies, 1.0 - oracle.keep_probability)
    return tallies[1::2] - tallies[0::2]


def _assert_same_moments(first, second):
    draws = first.shape[0]
    mean_se = np.sqrt((first.var(axis=0, ddof=1) + second.var(axis=0, ddof=1)) / draws)
    gap = np.abs(first.mean(axis=0) - second.mean(axis=0))
    assert np.all(gap <= Z * mean_se + 1e-12), np.max(gap / np.maximum(mean_se, 1e-12))
    squares = [(sample - sample.mean(axis=0)) ** 2 for sample in (first, second)]
    variance_se = np.sqrt((squares[0].var(axis=0, ddof=1) + squares[1].var(axis=0, ddof=1)) / draws)
    variance_gap = np.abs(squares[0].mean(axis=0) - squares[1].mean(axis=0))
    assert np.all(variance_gap <= Z * variance_se + 1e-12)


@pytest.mark.parametrize("padded, n_users, draws", AUDIT_POINTS)
def test_count_space_sampler_matches_per_user_draws(padded, n_users, draws):
    oracle = HadamardRandomizedResponse(EPSILON, padded)
    counts = np.bincount(np.random.default_rng(padded).integers(0, padded, n_users), minlength=padded)
    results = {}
    for count_space, first_seed in ((True, 0), (False, draws)):
        tallies, sums = [], []
        for seed in range(first_seed, first_seed + draws):
            rng = np.random.default_rng(seed)
            tallies.append(_true_tallies(oracle, counts, rng, count_space))
            sums.append(_coefficient_sums(oracle, tallies[-1], rng))
        results[count_space] = (np.array(tallies), np.array(sums))
    for count_space_sample, per_user_sample in zip(results[True], results[False]):
        _assert_same_moments(count_space_sample, per_user_sample)


#: ``(D', N)`` of the stacked levels: 20,000 users at ``D' = 256`` and
#: 5,000 at ``D' = 4`` stay below their thresholds (56,192 and 12,032 users)
#: and draw per user; the rest are sampled in count space together.
STACK = [(256, 20_000), (64, 50_000), (16, 50_000), (4, 5_000), (2, 10_000), (1, 3_000)]
STACK_DRAWS = 400


def _stack_sums(stack, multi_level, rng):
    """Every level's coefficient sums after one multi-level call, or after
    one call per level, on a fresh stack of accumulators."""
    accumulators, keys, counts = [], [], []
    for oracle, level_counts in stack:
        # Every item once, the odd ones with a negated input.
        values = np.arange(oracle.padded_size)
        accumulators.append(oracle.accumulator())
        keys.append(oracle._keys(values, (values & 1).astype(bool)))
        counts.append(level_counts)
    if multi_level:
        add_level_runs(accumulators, keys, counts, rng)
    else:
        for level in zip(accumulators, keys, counts):
            add_level_runs(*([part] for part in level), rng)
    return np.concatenate([accumulator._statistic for accumulator in accumulators])


def test_multi_level_call_matches_per_level_calls():
    stack = []
    for padded, n_users in STACK:
        oracle = HadamardRandomizedResponse(EPSILON, padded)
        counts = np.bincount(
            np.random.default_rng(padded).integers(0, padded, n_users), minlength=padded
        )
        stack.append((oracle, counts))
    sides = {counts.sum() >= oracle._count_space_min_users for oracle, counts in stack}
    assert sides == {True, False}
    samples = {
        multi_level: np.array(
            [_stack_sums(stack, multi_level, np.random.default_rng(seed)) for seed in seeds]
        )
        for multi_level, seeds in (
            (True, range(STACK_DRAWS)),
            (False, range(STACK_DRAWS, 2 * STACK_DRAWS)),
        )
    }
    _assert_same_moments(samples[True], samples[False])


def _median_ms(oracle, counts, count_space, repeats=5):
    rng = np.random.default_rng(0)
    times = []
    for _ in range(repeats):
        started = time.perf_counter()
        _true_tallies(oracle, counts, rng, count_space)
        times.append(time.perf_counter() - started)
    return 1e3 * float(np.median(times))


def test_print_crossover_table():
    rows = []
    for padded in (16, 128, 1024, 8192):
        oracle = HadamardRandomizedResponse(EPSILON, padded)
        threshold = oracle._count_space_min_users
        for factor in (0.25, 1.0, 4.0):
            n_users = int(threshold * factor)
            counts = np.bincount(
                np.random.default_rng(1).integers(0, padded, n_users), minlength=padded
            )
            per_user = _median_ms(oracle, counts, False)
            count_space = _median_ms(oracle, counts, True)
            rows.append([padded, n_users, per_user, count_space, per_user / count_space])
    print("\n=== HRR true tallies: per-user index draws vs count space (ms) ===")
    fixed, per_index = COUNT_SPACE_USERS_PER_BIT
    print(f"count space from log2 D' * ({fixed} + {per_index} D') users (N = 1x rows)")
    print(format_table(["D'", "N", "per-user ms", "count-space ms", "ratio"], rows))
