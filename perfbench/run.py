"""Benchmark entry point.

Usage, from the repository root::

    python3 perfbench/run.py --workload ingest --seed 1 --seconds 10 --trace 0

Builds nothing: the library is pure Python under ``src``.  Prints progress
on stderr and, as the last line of stdout, one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics`` — the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
Exits non-zero without a result when the library is missing or a workload
crashes.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

WORKLOADS = ("ingest", "dashboard", "live_wavelet", "paper_sweep")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Run one benchmark workload.")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = Path(__file__).resolve().parent.parent / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"error: the library is missing (no {src}/repro)", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))

    import harness
    import workloads

    harness.pin_to_one_cpu()
    probe = harness.SpeedProbe()
    try:
        result = workloads.WORKLOADS[args.workload](args.seed, args.seconds, bool(args.trace), probe)
    finally:
        probe.kill()
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
