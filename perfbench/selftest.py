"""Self-test of the traced run.

Runs every workload briefly with ``--trace 1`` and fails unless each run is
correct.  A traced run counts a failed check when a span metric records no
span, or a count metric is missing or stays 0, on the workload that
:mod:`layers` names for it, so a renamed or re-routed library function or
``/metrics`` family shows up here as an incorrect run.

Usage, from the repository root: ``python3 perfbench/selftest.py``.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

from run import WORKLOADS

HERE = Path(__file__).resolve().parent


def main() -> int:
    failures = 0
    for workload in WORKLOADS:
        completed = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", workload,
             "--seed", "1", "--seconds", "2", "--trace", "1"],
            capture_output=True, text=True, cwd=str(HERE.parent), timeout=180,
        )
        lines = completed.stdout.strip().splitlines()
        if completed.returncode != 0 or not lines:
            print(f"{workload}: exit {completed.returncode}\n{completed.stderr[-2000:]}")
            failures += 1
            continue
        ok = json.loads(lines[-1])["correct"]
        failures += not ok
        print(f"{workload}: {'ok' if ok else 'FAILED'}")
        if not ok:
            print(completed.stderr[-2000:])
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
