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
``"grid3d"`` / ``"gridnd"``  :class:`HierarchicalGridND`, per-axis ``B = 2``,
                            OUE oracle (Section 6; ``domain_size`` is the
                            grid *side length*; ``grid<d>d`` encodes ``d``
                            in the spec and wins over a ``dims`` kwarg,
                            ``gridnd`` takes ``dims`` from kwargs, default 2)
``"grid3d_4_hrr"``          the 3-D grid with ``B = 4`` and the HRR oracle
``"grid2d"`` / ``"grid2d_4_hrr"``  any grid spec at ``d = 2`` builds
                            :class:`HierarchicalGrid2D`, the 2-D grid's
                            own class (its persist identity)
``"auto"`` / ``"auto_3d"``  planner-chosen spec: :func:`repro.planner.plan`
                            ranks the candidate families by their mean
                            answer variance over the workload in
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
_GRID_PATTERN = re.compile(
    r"^grid(?:nd|(?P<dims>\d+)d)(?:[_-](?P<branching>\d+))?(?:[_-](?P<oracle>[a-z]+))?$"
)
_AUTO_PATTERN = re.compile(r"^auto(?:[_-](?P<dims>\d+)d)?$")


def mechanism_from_spec(
    spec: str, epsilon: float, domain_size: int, **kwargs
) -> RangeQueryMechanism:
    """Instantiate a mechanism from a compact specification string.

    See the module docstring for the accepted grammar.  Additional keyword
    arguments are forwarded to the constructor, so e.g. custom level
    probabilities can still be injected for spec-built mechanisms.  A
    keyword that repeats an option the spec already sets (``branching``,
    ``oracle``, ``consistency``, ``name``) raises
    :class:`~repro.exceptions.ConfigurationError`; only a grid's ``dims``
    is silently overridden by the spec's digit.
    """
    token = str(spec).strip().lower()
    flat_match = _FLAT_PATTERN.match(token)
    if flat_match:
        oracle = flat_match.group("oracle") or "oue"
        return _build(FlatMechanism, spec, epsilon, domain_size, kwargs, oracle=oracle)
    if _HAAR_PATTERN.match(token):
        return _build(HaarWaveletMechanism, spec, epsilon, domain_size, kwargs)
    grid_match = _GRID_PATTERN.match(token)
    if grid_match:
        dims = int(grid_match.group("dims") or kwargs.pop("dims", 2))
        kwargs.pop("dims", None)  # spec digit wins over a redundant kwarg
        options = dict(
            branching=int(grid_match.group("branching") or 2),
            oracle=grid_match.group("oracle") or "oue",
        )
        if dims == 2:
            # The 2-D grid keeps its own class (historical persist
            # identity) whichever spelling names it.
            return _build(HierarchicalGrid2D, spec, epsilon, domain_size, kwargs, **options)
        return _build(
            HierarchicalGridND, spec, epsilon, domain_size, kwargs, dims=dims, **options
        )
    auto_match = _AUTO_PATTERN.match(token)
    if auto_match:
        # Planned spec: rank the candidate configurations by mean answer
        # variance and instantiate the winner.  Imported lazily —
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
        return _build(
            HierarchicalHistogramMechanism,
            spec,
            epsilon,
            domain_size,
            kwargs,
            branching=branching,
            oracle=oracle,
            consistency=consistency,
        )
    raise ConfigurationError(
        f"could not parse mechanism specification {spec!r}; "
        "expected e.g. 'flat_oue', 'hhc_4', 'hh_16_hrr', 'haar', 'grid2d_2', "
        "'grid3d_4' or 'auto'"
    )


def _build(mechanism_class, spec, epsilon, domain_size, kwargs, **spec_options):
    """Construct ``mechanism_class`` named ``spec`` from the options the spec
    encodes plus the caller's ``kwargs``, refusing a keyword that repeats
    one of the spec's options."""
    spec_options["name"] = spec
    repeated = sorted(set(spec_options) & set(kwargs))
    if repeated:
        raise ConfigurationError(
            f"mechanism spec {spec!r} already sets {', '.join(repeated)}; "
            "drop the keyword or change the spec"
        )
    return mechanism_class(epsilon, domain_size, **spec_options, **kwargs)
