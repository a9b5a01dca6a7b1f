"""Experiment harness regenerating the paper's tables and figures.

* :mod:`repro.experiments.config` — experiment configuration dataclasses
  with both laptop-scale defaults and the paper's original parameters;
* :mod:`repro.experiments.runner` — generic "mechanisms x parameters x
  workload" sweep with repetitions and error summaries, optionally fanned
  out across worker processes (``workers=``, bit-identical to serial);
* :mod:`repro.experiments.figures` — one entry point per table / figure of
  Section 5 (Figure 4, Tables 5 and 6, Figure 7, Figure 8, Figure 9) plus
  the design-choice ablations called out in DESIGN.md;
* :mod:`repro.experiments.reporting` — plain-text rendering of result
  tables in the same layout as the paper.

Performance is measured by the repository benchmark, ``perfbench/``
(``python3 perfbench/run.py``), whose ``paper_sweep`` workload drives
:func:`~repro.experiments.runner.run_epsilon_grid`.
"""

from repro.experiments.config import DataConfig, ExperimentConfig, PAPER_SCALE, LAPTOP_SCALE
from repro.experiments.runner import CellResult, evaluate_mechanism, run_epsilon_grid
from repro.experiments.reporting import format_table, render_results

__all__ = [
    "DataConfig",
    "ExperimentConfig",
    "PAPER_SCALE",
    "LAPTOP_SCALE",
    "CellResult",
    "evaluate_mechanism",
    "run_epsilon_grid",
    "format_table",
    "render_results",
]
