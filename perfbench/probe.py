"""Machine-speed probe: a fixed kernel, timed again and again.

On the shared 2-vCPU VM this benchmark was tuned on, each vCPU switches
between a fast state and one about 1.5x slower, for seconds at a time.  The
benchmark pins itself, its server and this probe to one vCPU; the probe
wakes every :data:`INTERVAL_S`, runs :func:`kernel` and records its CPU
time, so every stretch of a run has a speed index measured on the same vCPU
at the same time.  The kernel mixes the work the workloads do — numpy random draws,
bit packing and counting, Python bytecode, JSON decoding — and uses
nothing from ``repro``.  A library change still reaches it through the
shared vCPU (preemption, cache refills); ``README.md`` shows a slowdown of
known size passing through the scaling whole.

Run as ``python perfbench/probe.py``; it samples until its stdin closes,
then prints ``[[end_time, cpu_seconds], ...]`` as one JSON line (times are
``time.perf_counter()``, comparable across processes on Linux).
"""

from __future__ import annotations

import json
import os
import select
import sys
import time

import numpy as np

INTERVAL_S = 0.1

_RNG = np.random.default_rng(0)
_RAMP = np.arange(256.0)
_PAYLOAD = json.dumps(list(range(400)))


def kernel() -> None:
    for _ in range(2):
        bits = _RNG.random((100, 256)) < 0.3
        np.packbits(bits, axis=1)
        np.bincount(_RNG.integers(0, 1024, 1000), minlength=1024)
    total = 0
    for value in range(1500):
        total += value * value
    for _ in range(20):
        np.cumsum(_RAMP)
    json.loads(_PAYLOAD)


def main() -> int:
    # Lowest priority: the probe runs in the gaps the measured processes
    # leave instead of delaying their requests (its CPU time is what it
    # records, so waiting for the vCPU does not bias it).
    os.nice(19)
    samples = []
    while True:
        readable, _, _ = select.select([sys.stdin], [], [], INTERVAL_S)
        if readable and not sys.stdin.readline():
            break
        started = time.process_time()
        kernel()
        samples.append((time.perf_counter(), time.process_time() - started))
    print(json.dumps(samples), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
