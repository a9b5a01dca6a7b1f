"""Variance-driven query planner.

The paper's Figure 4 fixes a workload and sweeps the branching factor
offline to find the best tree shape; Section 6 adds that for higher
dimensions the balance tips between hierarchical products and coarse
grids.  This module turns both analyses into a runtime decision: given a
workload, a population size, a privacy budget and a domain shape,
:func:`plan` builds every candidate of mechanism family x branching
factor ``B`` x frequency oracle unfitted and ranks it by the mean of its
:meth:`~repro.core.base.RangeQueryMechanism.answer_variances` over the
workload at the expected per-label user counts, and returns a ranked
:class:`Plan`.  Each candidate's variance comes from its own estimator
and oracle, so HRR candidates rank above OUE ones by HRR's extra ``1/N``
per estimate, and ``hhc_*`` candidates by the exact variance after
consistency.  Like cost-based query optimisation in databases, plans are
chosen from analytic costs, not measurement — no data is collected to
plan, so planning is free of privacy cost.

Usage::

    from repro.planner import plan
    from repro.data.workloads import BoxWorkload, random_boxes

    workload = BoxWorkload(32, 3, random_boxes(32, 200, dims=3, random_state=1))
    chosen = plan(workload, n_users=200_000, epsilon=1.0)
    mechanism = chosen.mechanism()          # best candidate, ready to fit
    print(chosen.describe())                # full ranking with variances

The ``"auto"`` / ``"auto_3d"`` factory specs
(:func:`repro.core.factory.mechanism_from_spec`) and ``python -m repro
plan`` route here.

Candidate spaces
----------------
* ``dims == 1``: the flat method, the Haar wavelet and hierarchical
  histograms with and without consistency at every candidate ``B`` —
  the full Section 4/5 design space.
* ``dims >= 2``: the hierarchical grid at every candidate ``B`` (the
  only family with a native box surface); the branching factor resolves
  the Section 6 hierarchy-vs-coarse-grid trade-off, since large ``B``
  *is* a coarse grid (``B = D`` collapses the tree to one level).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence, Tuple, Union

from repro.core.factory import mechanism_from_spec
from repro.data.workloads import (
    BoxWorkload,
    RangeWorkload,
    random_boxes,
    random_range_queries,
)
from repro.exceptions import ConfigurationError, InvalidDomainError

__all__ = ["Plan", "PlanCandidate", "plan"]

#: Branching factors swept by default — bracketing the paper's continuous
#: optima (~4.9 plain, ~9.2 with consistency) plus the binary baseline.
DEFAULT_BRANCHINGS: Tuple[int, ...] = (2, 4, 5, 8, 16)

#: Size of the seeded random workload planned for when none is given.
DEFAULT_QUERIES = 1024


@dataclass(frozen=True)
class PlanCandidate:
    """One evaluated configuration: a factory spec plus its variance.

    ``spec`` feeds :func:`repro.core.factory.mechanism_from_spec` directly;
    ``predicted_variance`` is the workload-averaged answer variance the
    ranking sorts by (lower is better).
    """

    spec: str
    family: str
    dims: int
    branching: Optional[int]
    oracle: str
    predicted_variance: float


@dataclass(frozen=True)
class Plan:
    """A ranked set of candidate configurations for one planning problem.

    ``candidates`` is sorted by predicted variance, best first (ties break
    by enumeration order, which lists simpler families and the ``"oue"``
    oracle first).
    """

    n_users: int
    epsilon: float
    domain_size: int
    dims: int
    workload_name: str
    candidates: Tuple[PlanCandidate, ...] = field(default_factory=tuple)

    @property
    def best(self) -> PlanCandidate:
        return self.candidates[0]

    @property
    def worst(self) -> PlanCandidate:
        return self.candidates[-1]

    @property
    def spec(self) -> str:
        """Factory spec of the winning candidate."""
        return self.best.spec

    @property
    def predicted_variance(self) -> float:
        return self.best.predicted_variance

    def mechanism(self, **kwargs):
        """Instantiate the winning candidate (unfitted, ready to collect)."""
        from repro.core.factory import mechanism_from_spec

        return mechanism_from_spec(
            self.spec, self.epsilon, self.domain_size, **kwargs
        )

    def describe(self) -> str:
        """Human-readable ranking table (the ``python -m repro plan`` body)."""
        lines = [
            f"plan: domain {self.domain_size}"
            + (f"^{self.dims}" if self.dims > 1 else "")
            + f", n_users={self.n_users}, epsilon={self.epsilon:g}, "
            f"workload={self.workload_name}",
            f"{'rank':>4}  {'spec':<16} {'family':<10} {'B':>4}  predicted variance",
        ]
        for rank, candidate in enumerate(self.candidates, start=1):
            branching = "-" if candidate.branching is None else str(candidate.branching)
            lines.append(
                f"{rank:>4}  {candidate.spec:<16} {candidate.family:<10} "
                f"{branching:>4}  {candidate.predicted_variance:.6e}"
            )
        return "\n".join(lines)


def plan(
    workload: Optional[Union[BoxWorkload, RangeWorkload]] = None,
    n_users: int = 0,
    epsilon: float = 1.0,
    domain_size: Optional[int] = None,
    dims: Optional[int] = None,
    branchings: Sequence[int] = DEFAULT_BRANCHINGS,
    oracles: Sequence[str] = ("oue",),
) -> Plan:
    """Rank mechanism configurations by mean answer variance.

    Parameters
    ----------
    workload:
        The queries to plan for — a :class:`~repro.data.workloads.BoxWorkload`
        (d-dimensional) or :class:`~repro.data.workloads.RangeWorkload`
        (1-D).  ``None`` (or an empty workload) plans for
        ``random_range_queries(D, 1024, random_state=0)``, or
        ``random_boxes(D, 1024, dims=d, random_state=0)`` for grids.
    n_users:
        Expected population size ``N``; each candidate's labels get their
        expected share of it.
    epsilon:
        Per-user privacy budget.
    domain_size, dims:
        Domain shape; inferred from ``workload`` when given (and checked
        for consistency when both are supplied).
    branchings:
        Branching factors to sweep (default brackets the paper's optima).
    oracles:
        Frequency oracles to enumerate; each candidate uses its oracle's
        own per-estimate variance.

    Returns
    -------
    Plan
        All evaluated candidates, best (lowest mean variance) first.
    """
    if workload is not None:
        if not isinstance(workload, (BoxWorkload, RangeWorkload)):
            raise ConfigurationError(
                f"workload must be a BoxWorkload or RangeWorkload, got "
                f"{type(workload).__name__}"
            )
        workload_dims = workload.dims if isinstance(workload, BoxWorkload) else 1
        if dims is not None and int(dims) != workload_dims:
            raise ConfigurationError(
                f"dims={dims!r} conflicts with the workload's {workload_dims} axes"
            )
        dims = workload_dims
        if domain_size is not None and int(domain_size) != workload.domain_size:
            raise ConfigurationError(
                f"domain_size={domain_size!r} conflicts with the workload's "
                f"domain of {workload.domain_size}"
            )
        domain_size = workload.domain_size
    if domain_size is None:
        raise ConfigurationError("plan() needs a workload or an explicit domain_size")
    dims = 1 if dims is None else int(dims)
    domain_size = int(domain_size)
    if dims < 1:
        raise ConfigurationError(f"dims must be a positive integer, got {dims!r}")
    branchings = tuple(dict.fromkeys(int(b) for b in branchings))
    if not branchings or any(b < 2 for b in branchings):
        raise ConfigurationError(
            f"branchings must be integers >= 2, got {branchings!r}"
        )
    oracles = tuple(dict.fromkeys(str(o).lower() for o in oracles)) or ("oue",)
    if workload is None or len(workload) == 0:
        workload_name = f"default-{DEFAULT_QUERIES}"
        queries = (
            random_boxes(domain_size, DEFAULT_QUERIES, dims=dims, random_state=0)
            if dims > 1
            else random_range_queries(domain_size, DEFAULT_QUERIES, random_state=0).queries
        )
    else:
        workload_name, queries = workload.name, workload.queries

    specs = []
    for oracle in oracles:
        suffix = "" if oracle == "oue" else f"_{oracle}"
        if dims > 1:
            specs += [(f"grid{dims}d_{b}{suffix}", "gridnd", b, oracle) for b in branchings]
            continue
        specs.append((f"flat{suffix}", "flat", None, oracle))
        if oracle == "oue":
            # The Haar mechanism has a fixed HRR-based oracle.
            specs.append(("haar", "haar", None, "hrr"))
        for branching in branchings:
            specs.append((f"hh_{branching}{suffix}", "hh", branching, oracle))
            specs.append((f"hhc_{branching}{suffix}", "hhc", branching, oracle))

    candidates = []
    for spec, family, branching, oracle in specs:
        try:
            mechanism = mechanism_from_spec(spec, epsilon, domain_size)
        except InvalidDomainError:
            continue  # a shape the class refuses, e.g. too many level tuples
        variance = float(mechanism.answer_variances(queries, n_users=n_users).mean())
        candidates.append(PlanCandidate(spec, family, dims, branching, oracle, variance))
    if not candidates:
        raise ConfigurationError(f"no candidate can be built for a {domain_size}^{dims} domain")
    ranked = tuple(
        sorted(candidates, key=lambda candidate: candidate.predicted_variance)
    )
    return Plan(
        n_users=int(n_users),
        epsilon=float(epsilon),
        domain_size=domain_size,
        dims=dims,
        workload_name=workload_name,
        candidates=ranked,
    )
