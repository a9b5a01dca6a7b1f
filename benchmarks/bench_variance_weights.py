"""Cost of the variance surface at a large domain.

``answer_variances`` is what the planner ranks on, so its per-query cost
bounds how large a domain can be planned for.  Without consistency a
level's weight is a node count; with it (``hhc_*``) and for Haar the
weights are read from the boundary detail energies
(:func:`~repro.hierarchy.decomposition.batched_detail_energies`), ``O(h B)``
per query whatever ``D`` is.  These checks fail if a weight path starts to
grow with ``D`` again: at ``D = 2^16`` over 256 seeded ranges (best of 5),
``hhc_4`` must cost at most 5 times ``hh_4`` per query, and a full
``plan`` over OUE and HRR candidates must finish within 5 s.  Run with
``-s`` to see the timings.
"""

from __future__ import annotations

import time

import numpy as np

from repro.core.factory import mechanism_from_spec
from repro.data.workloads import random_range_queries
from repro.planner import plan

DOMAIN = 1 << 16
N_USERS = 10**6
EPSILON = 1.1
QUERIES = 256
ROUNDS = 5


def _per_query_seconds(spec: str, queries: np.ndarray) -> float:
    mechanism = mechanism_from_spec(spec, EPSILON, DOMAIN)
    best = float("inf")
    for _ in range(ROUNDS):
        started = time.perf_counter()
        mechanism.answer_variances(queries, n_users=N_USERS)
        best = min(best, time.perf_counter() - started)
    return best / len(queries)


def test_consistent_weights_cost_as_little_as_plain_ones():
    queries = np.asarray(random_range_queries(DOMAIN, QUERIES, random_state=0).queries)
    plain = _per_query_seconds("hh_4", queries)
    consistent = _per_query_seconds("hhc_4", queries)
    print(
        f"\nanswer_variances at D = 2^16: hh_4 {plain * 1e6:.2f} us/query, "
        f"hhc_4 {consistent * 1e6:.2f} us/query"
    )
    assert consistent <= 5 * plain


def test_plan_at_a_large_domain_is_fast():
    started = time.perf_counter()
    chosen = plan(domain_size=DOMAIN, n_users=N_USERS, epsilon=EPSILON, oracles=("oue", "hrr"))
    elapsed = time.perf_counter() - started
    print(f"\nplan at D = 2^16 (oue, hrr): {elapsed:.3f} s, best {chosen.spec}")
    assert elapsed < 5.0
