"""Unit tests for repro.planner."""

import pytest

from repro.core.factory import mechanism_from_spec
from repro.core.multidim import HierarchicalGrid2D, HierarchicalGridND
from repro.data.workloads import (
    BoxWorkload,
    random_boxes,
    random_range_queries,
)
from repro.exceptions import ConfigurationError
from repro.planner import DEFAULT_BRANCHINGS, Plan, PlanCandidate, plan


EPSILON = 1.1
N_USERS = 50_000


def _mean_variance(spec, domain_size, queries):
    mechanism = mechanism_from_spec(spec, EPSILON, domain_size)
    return float(mechanism.answer_variances(queries, n_users=N_USERS).mean())


@pytest.fixture(scope="module")
def box_workload():
    return BoxWorkload(32, 3, random_boxes(32, 40, dims=3, random_state=5))


@pytest.fixture(scope="module")
def range_workload():
    return random_range_queries(1024, 30, random_state=6)


class TestRanking:
    def test_candidates_sorted_ascending(self, box_workload):
        chosen = plan(box_workload, n_users=N_USERS, epsilon=EPSILON)
        bounds = [c.predicted_variance for c in chosen.candidates]
        assert bounds == sorted(bounds)
        assert chosen.best is chosen.candidates[0]
        assert chosen.worst is chosen.candidates[-1]
        assert chosen.spec == chosen.best.spec
        assert chosen.predicted_variance == chosen.best.predicted_variance

    def test_pick_minimizes_independently_recomputed_variances(self, box_workload):
        """Every candidate's predicted variance is its unfitted mechanism's
        mean answer variance over the workload, and the winner has the
        smallest."""
        chosen = plan(box_workload, n_users=N_USERS, epsilon=EPSILON)
        recomputed = {
            b: _mean_variance(f"grid3d_{b}", 32, box_workload.queries)
            for b in DEFAULT_BRANCHINGS
        }
        assert chosen.best.predicted_variance == min(recomputed.values())
        for candidate in chosen.candidates:
            assert candidate.predicted_variance == recomputed[candidate.branching]

    def test_one_dimensional_pick_minimizes_variances(self, range_workload):
        chosen = plan(range_workload, n_users=N_USERS, epsilon=EPSILON)
        specs = ["flat", "haar"] + [
            f"{family}_{b}" for b in DEFAULT_BRANCHINGS for family in ("hh", "hhc")
        ]
        recomputed = {
            spec: _mean_variance(spec, 1024, range_workload.queries) for spec in specs
        }
        assert {c.spec: c.predicted_variance for c in chosen.candidates} == recomputed
        assert chosen.best.predicted_variance == min(recomputed.values())

    def test_oracles_rank_by_their_own_variance(self):
        """OLH's zero-frequency variance is OUE's, so the two tie and keep
        enumeration order; HRR's is ``1/N`` per estimate more, so it ranks
        strictly after OUE."""
        chosen = plan(
            n_users=N_USERS,
            epsilon=EPSILON,
            domain_size=16,
            dims=2,
            branchings=(4,),
            oracles=("oue", "hrr", "olh"),
        )
        assert [c.spec for c in chosen.candidates] == ["grid2d_4", "grid2d_4_olh", "grid2d_4_hrr"]
        oue, olh, hrr = (c.predicted_variance for c in chosen.candidates)
        assert olh == pytest.approx(oue, rel=1e-12)
        assert hrr > oue


class TestCandidateSpaces:
    def test_multidim_candidates_are_grids_only(self, box_workload):
        chosen = plan(box_workload, n_users=N_USERS, epsilon=EPSILON)
        assert {c.family for c in chosen.candidates} == {"gridnd"}
        assert {c.branching for c in chosen.candidates} == set(DEFAULT_BRANCHINGS)
        assert all(c.spec.startswith("grid3d_") for c in chosen.candidates)
        assert all(c.dims == 3 for c in chosen.candidates)

    def test_one_dimensional_candidate_space(self, range_workload):
        chosen = plan(range_workload, n_users=N_USERS, epsilon=EPSILON)
        families = sorted({c.family for c in chosen.candidates})
        assert families == ["flat", "haar", "hh", "hhc"]
        hh_specs = {c.spec for c in chosen.candidates if c.family == "hh"}
        assert hh_specs == {f"hh_{b}" for b in DEFAULT_BRANCHINGS}

    def test_grids_the_class_refuses_are_skipped(self):
        """Side 1024 over 4 axes: ``B = 2`` would need 10^4 level tuples,
        more than a grid builds, so only the others are ranked."""
        chosen = plan(n_users=N_USERS, epsilon=EPSILON, domain_size=1024, dims=4)
        assert {c.branching for c in chosen.candidates} == {4, 5, 8, 16}
        with pytest.raises(ConfigurationError, match="no candidate"):
            plan(n_users=N_USERS, epsilon=EPSILON, domain_size=1024, dims=4, branchings=(2,))

    def test_default_workload_is_seeded_random_queries(self):
        """With no workload the planner plans for 1024 seeded random boxes
        (ranges in 1-D), so the full-domain query, which Haar and
        ``hhc_*`` answer exactly, ranks nothing."""
        chosen = plan(n_users=N_USERS, epsilon=EPSILON, domain_size=64, dims=2)
        explicit = plan(
            BoxWorkload(64, 2, random_boxes(64, 1024, dims=2, random_state=0)),
            n_users=N_USERS,
            epsilon=EPSILON,
        )
        assert chosen.candidates == explicit.candidates
        assert chosen.workload_name == "default-1024"
        ranges = plan(n_users=N_USERS, epsilon=EPSILON, domain_size=64)
        assert ranges.candidates == plan(
            random_range_queries(64, 1024, random_state=0), n_users=N_USERS, epsilon=EPSILON
        ).candidates


class TestPlanObject:
    def test_mechanism_instantiates_winning_spec(self, box_workload):
        chosen = plan(box_workload, n_users=N_USERS, epsilon=EPSILON)
        mechanism = chosen.mechanism()
        assert isinstance(mechanism, HierarchicalGridND)
        assert mechanism.dims == 3
        assert mechanism.branching == chosen.best.branching
        assert mechanism.epsilon == EPSILON

    def test_describe_lists_every_candidate(self, box_workload):
        chosen = plan(box_workload, n_users=N_USERS, epsilon=EPSILON)
        text = chosen.describe()
        for candidate in chosen.candidates:
            assert candidate.spec in text
        assert "predicted variance" in text

    def test_plan_is_frozen(self, box_workload):
        chosen = plan(box_workload, n_users=N_USERS, epsilon=EPSILON)
        with pytest.raises(AttributeError):
            chosen.n_users = 1
        assert isinstance(chosen, Plan)
        assert isinstance(chosen.best, PlanCandidate)


class TestAutoSpec:
    def test_auto_resolves_through_the_planner(self, range_workload):
        chosen = plan(range_workload, n_users=N_USERS, epsilon=EPSILON)
        mechanism = mechanism_from_spec(
            "auto", EPSILON, 1024, n_users=N_USERS, workload=range_workload
        )
        assert type(mechanism).__name__ == type(chosen.mechanism()).__name__

    def test_auto_multidim_resolves_to_grid(self):
        mechanism = mechanism_from_spec("auto_2d", EPSILON, 16, n_users=N_USERS)
        assert isinstance(mechanism, HierarchicalGrid2D)

    def test_auto_requires_population_size(self):
        with pytest.raises(ConfigurationError, match="n_users"):
            mechanism_from_spec("auto", EPSILON, 1024)


class TestValidation:
    def test_needs_workload_or_domain(self):
        with pytest.raises(ConfigurationError):
            plan(n_users=N_USERS, epsilon=EPSILON)

    @pytest.mark.parametrize("bad_users", [0, -5, 2.5, "many"])
    def test_rejects_bad_population(self, bad_users):
        with pytest.raises(ConfigurationError):
            plan(n_users=bad_users, epsilon=EPSILON, domain_size=64)

    @pytest.mark.parametrize("bad_branchings", [(), (1,), (2, 1)])
    def test_rejects_bad_branchings(self, bad_branchings):
        with pytest.raises(ConfigurationError):
            plan(
                n_users=N_USERS,
                epsilon=EPSILON,
                domain_size=64,
                branchings=bad_branchings,
            )

    def test_rejects_dims_conflicting_with_workload(self, box_workload):
        with pytest.raises(ConfigurationError, match="dims"):
            plan(box_workload, n_users=N_USERS, epsilon=EPSILON, dims=2)

    def test_rejects_domain_conflicting_with_workload(self, box_workload):
        with pytest.raises(ConfigurationError, match="domain_size"):
            plan(box_workload, n_users=N_USERS, epsilon=EPSILON, domain_size=64)

    def test_rejects_foreign_workload_type(self):
        with pytest.raises(ConfigurationError, match="workload"):
            plan(object(), n_users=N_USERS, epsilon=EPSILON)
