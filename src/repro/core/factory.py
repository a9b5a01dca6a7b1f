"""Mechanism factory and paper-style name parsing.

The experiment harness refers to mechanisms by compact specification
strings modelled on the paper's naming:

=========================  ====================================================
``"flat_oue"``              :class:`FlatMechanism` with the OUE oracle
``"flat_hrr"``              flat mechanism with HRR point estimates
``"hh_4"``                  :class:`HierarchicalHistogramMechanism`, ``B = 4``,
                            OUE oracle, **no** consistency (``TreeOUE``)
``"hhc_4"``                 the same with consistency (``TreeOUECI`` / ``HHc_4``)
``"hh_8_hrr"`` / ``"hhc_8_hrr"``  HH with the HRR oracle (``TreeHRR[CI]``)
``"hhc_16_olh"``            HH with the OLH oracle (``TreeOLHCI``)
``"haar"`` / ``"haar_hrr"``  :class:`HaarWaveletMechanism` (``HaarHRR``)
``"grid2d"`` / ``"grid2d_2"``  :class:`HierarchicalGrid2D`, per-axis ``B = 2``,
                            OUE oracle (Section 6; ``domain_size`` is the
                            grid *side length*)
``"grid2d_4_hrr"``          the 2-D grid with ``B = 4`` and the HRR oracle
``"gridnd"`` / ``"grid3d"``  :class:`HierarchicalGridND` (``gridnd`` takes
                            ``dims`` from kwargs, default 2; ``grid<d>d``
                            encodes it in the spec)
``"grid3d_4_hrr"``          the 3-D grid with ``B = 4`` and the HRR oracle
``"auto"`` / ``"auto_3d"``  planner-chosen spec: :func:`repro.planner.plan`
                            ranks the candidate families by their
                            closed-form variance bounds for the workload in
                            ``kwargs`` and instantiates the winner
=========================  ====================================================

:func:`mechanism_from_spec` parses the strings above; the mechanism
classes' constructors take the same options as keywords.
"""

from __future__ import annotations

import re

from repro.core.base import RangeQueryMechanism
from repro.core.flat import FlatMechanism
from repro.core.hierarchical import HierarchicalHistogramMechanism
from repro.core.multidim import HierarchicalGrid2D, HierarchicalGridND
from repro.core.wavelet import HaarWaveletMechanism
from repro.exceptions import ConfigurationError

__all__ = ["mechanism_from_spec"]

_HH_PATTERN = re.compile(
    r"^(?:hh|tree)(?P<consistent>c?)[_-](?P<branching>\d+)(?:[_-](?P<oracle>[a-z]+))?$"
)
_FLAT_PATTERN = re.compile(r"^flat(?:[_-](?P<oracle>[a-z]+))?$")
_HAAR_PATTERN = re.compile(r"^haar(?:[_-]hrr)?$")
_GRID2D_PATTERN = re.compile(
    r"^grid2d(?:[_-](?P<branching>\d+))?(?:[_-](?P<oracle>[a-z]+))?$"
)
# Checked after _GRID2D_PATTERN so "grid2d..." keeps constructing the 2-D
# class (its historical persist identity).
_GRIDND_PATTERN = re.compile(
    r"^grid(?:nd|(?P<dims>\d+)d)(?:[_-](?P<branching>\d+))?(?:[_-](?P<oracle>[a-z]+))?$"
)
_AUTO_PATTERN = re.compile(r"^auto(?:[_-](?P<dims>\d+)d)?$")


def mechanism_from_spec(
    spec: str, epsilon: float, domain_size: int, **kwargs
) -> RangeQueryMechanism:
    """Instantiate a mechanism from a compact specification string.

    See the module docstring for the accepted grammar.  Additional keyword
    arguments are forwarded to the constructor, so e.g. custom level
    probabilities can still be injected for spec-built mechanisms.
    """
    token = str(spec).strip().lower()
    flat_match = _FLAT_PATTERN.match(token)
    if flat_match:
        oracle = flat_match.group("oracle") or "oue"
        return FlatMechanism(epsilon, domain_size, oracle=oracle, name=spec, **kwargs)
    if _HAAR_PATTERN.match(token):
        return HaarWaveletMechanism(epsilon, domain_size, name=spec, **kwargs)
    grid_match = _GRID2D_PATTERN.match(token)
    if grid_match:
        branching = int(grid_match.group("branching") or 2)
        oracle = grid_match.group("oracle") or "oue"
        return HierarchicalGrid2D(
            epsilon,
            domain_size,
            branching=branching,
            oracle=oracle,
            name=spec,
            **kwargs,
        )
    gridnd_match = _GRIDND_PATTERN.match(token)
    if gridnd_match:
        dims = int(gridnd_match.group("dims") or kwargs.pop("dims", 2))
        kwargs.pop("dims", None)  # spec digit wins over a redundant kwarg
        branching = int(gridnd_match.group("branching") or 2)
        oracle = gridnd_match.group("oracle") or "oue"
        if dims == 2:
            # The 2-D grid keeps its own class (historical persist
            # identity) whichever spelling names it.
            return HierarchicalGrid2D(
                epsilon,
                domain_size,
                branching=branching,
                oracle=oracle,
                name=spec,
                **kwargs,
            )
        return HierarchicalGridND(
            epsilon,
            domain_size,
            dims=dims,
            branching=branching,
            oracle=oracle,
            name=spec,
            **kwargs,
        )
    auto_match = _AUTO_PATTERN.match(token)
    if auto_match:
        # Planned spec: rank the candidate configurations by closed-form
        # variance bound and instantiate the winner.  Imported lazily —
        # repro.planner sits above core in the layering.
        from repro.planner import plan

        dims = int(auto_match.group("dims") or kwargs.pop("dims", 1))
        kwargs.pop("dims", None)
        if "n_users" not in kwargs:
            raise ConfigurationError(
                "'auto' specs plan against a population size; pass n_users= "
                "(and optionally workload=) as mechanism kwargs"
            )
        chosen = plan(
            workload=kwargs.pop("workload", None),
            n_users=kwargs.pop("n_users"),
            epsilon=epsilon,
            domain_size=domain_size,
            dims=dims,
        )
        return mechanism_from_spec(chosen.spec, epsilon, domain_size, **kwargs)
    hh_match = _HH_PATTERN.match(token)
    if hh_match:
        branching = int(hh_match.group("branching"))
        oracle = hh_match.group("oracle") or "oue"
        consistency = hh_match.group("consistent") == "c"
        return HierarchicalHistogramMechanism(
            epsilon,
            domain_size,
            branching=branching,
            oracle=oracle,
            consistency=consistency,
            name=spec,
            **kwargs,
        )
    raise ConfigurationError(
        f"could not parse mechanism specification {spec!r}; "
        "expected e.g. 'flat_oue', 'hhc_4', 'hh_16_hrr', 'haar', 'grid2d_2', "
        "'grid3d_4' or 'auto'"
    )
