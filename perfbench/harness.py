"""Plumbing shared by the workloads: the server process, closed-loop
drivers, ``/metrics`` parsing, and the metric arithmetic."""

from __future__ import annotations

import json
import os
import re
import select
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
HOST = "127.0.0.1"

#: Privacy budget of every server and of the in-process replays.
EPSILON = 1.1
#: Shards of every server and of the in-process replays.
SHARDS = 2

#: Set-ups per run; ``setup_s`` is their median.
SETUPS = 5
#: Untimed traffic before the timed phase of an HTTP workload.
WARMUP_S = 2.0
#: Length of the windows a timed phase is cut into for normalization.
WINDOW_S = 0.5
#: Probe kernel CPU time that defines the reference speed: every reported
#: time is scaled to what it would have been had the probe kernel taken
#: this long during it (see ``probe.py``).
PROBE_REFERENCE_S = 0.0005
#: How long a server may take to bind its port or to drain and exit.
SERVER_TIMEOUT_S = 60.0

_CLOCK_TICKS = os.sysconf("SC_CLK_TCK")


def log(message: str) -> None:
    print(message, file=sys.stderr, flush=True)


# ----------------------------------------------------------------------
# The system under test
# ----------------------------------------------------------------------
def new_collector(spec: str, domain: int, seed: int):
    """The collector a server serves; replays build theirs here too, so
    both always agree on ε, shard count and router."""
    from repro.streaming import ShardedCollector

    return ShardedCollector(
        spec,
        epsilon=EPSILON,
        domain_size=domain,
        n_shards=SHARDS,
        random_state=seed,
        router="round-robin",
    )


class ServerProcess:
    """``perfbench/server.py`` as a child process on a free localhost port."""

    def __init__(self, spec: str, domain: int, seed: int):
        env = dict(os.environ)
        env["PYTHONPATH"] = str(SRC)
        self.proc = subprocess.Popen(
            [
                sys.executable,
                str(HERE / "server.py"),
                "--spec", spec,
                "--domain", str(int(domain)),
                "--seed", str(int(seed)),
            ],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
            env=env,
            cwd=str(ROOT),
        )
        try:
            line = self._readline()
            if not line.startswith("READY "):
                raise RuntimeError(f"server did not start: {line!r}")
            self.port = int(line.split()[1])
        except BaseException:
            self.kill()
            raise

    def _readline(self) -> str:
        ready, _, _ = select.select([self.proc.stdout], [], [], SERVER_TIMEOUT_S)
        if not ready:
            raise RuntimeError("server process did not answer in time")
        return self.proc.stdout.readline().strip()

    @property
    def pid(self) -> int:
        return self.proc.pid

    def cpu_seconds(self) -> float:
        """User + system CPU of the process so far, from ``/proc``."""
        with open(f"/proc/{self.pid}/stat") as handle:
            fields = handle.read().rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / _CLOCK_TICKS

    def peak_rss_mb(self) -> float:
        return peak_rss_mb(self.pid)

    def start_tracing(self) -> None:
        self.proc.stdin.write("trace\n")
        self.proc.stdin.flush()
        line = self._readline()
        if line != "TRACING":
            raise RuntimeError(f"server refused tracing: {line!r}")

    def stop(self) -> Optional[str]:
        """Drain and stop; returns the trace summary line, if any."""
        try:
            out, _ = self.proc.communicate("stop\n", timeout=SERVER_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.kill()
            raise RuntimeError("server did not stop in time")
        if self.proc.returncode != 0:
            raise RuntimeError(f"server exited with {self.proc.returncode}")
        lines = [line for line in out.splitlines() if line.strip()]
        return lines[-1] if lines else None

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()


def peak_rss_mb(pid: int) -> float:
    with open(f"/proc/{pid}/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc status")


def start_servers(config: dict, preload: Optional[Callable] = None):
    """Start the server :data:`SETUPS` times, keep the last one.

    Each set-up is timed from process start to ready, preload included.
    Returns ``(server, [(start, end), ...])``.
    """
    spans: List[tuple] = []
    server = None
    for attempt in range(SETUPS):
        started = time.perf_counter()
        server = ServerProcess(**config)
        try:
            if preload is not None:
                preload(server)
        except BaseException:
            server.kill()
            raise
        spans.append((started, time.perf_counter()))
        if attempt < SETUPS - 1:
            server.stop()
    return server, spans


def pin_to_one_cpu() -> None:
    """Confine this process and every child it starts to one vCPU.

    The vCPUs change speed independently of each other, so one speed
    index can only describe processes that share a vCPU.
    """
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


class SpeedProbe:
    """``probe.py`` running beside the benchmark on the same vCPU."""

    def __init__(self) -> None:
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "probe.py")],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
            cwd=str(ROOT),
        )
        self.samples: Optional[np.ndarray] = None

    def stop(self) -> np.ndarray:
        """End sampling; returns ``(n, 2)`` rows of (end time, CPU s)."""
        if self.samples is None:
            try:
                out, _ = self.proc.communicate("", timeout=SERVER_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                self.kill()
                raise RuntimeError("speed probe did not stop in time")
            self.samples = np.asarray(json.loads(out.strip().splitlines()[-1]), dtype=np.float64)
            if self.samples.ndim != 2 or not len(self.samples):
                raise RuntimeError("speed probe recorded no sample")
        return self.samples

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()

    def scale(self, start: float, end: float) -> float:
        """Factor that scales a time measured in ``[start, end]`` to the
        reference speed (below 1 while the vCPU ran slow)."""
        samples = self.stop()
        inside = samples[(samples[:, 0] >= start) & (samples[:, 0] <= end), 1]
        if not len(inside):
            middle = (start + end) / 2
            inside = samples[np.argsort(np.abs(samples[:, 0] - middle))[:2], 1]
        return PROBE_REFERENCE_S / float(np.median(inside))


# ----------------------------------------------------------------------
# Closed-loop driving
# ----------------------------------------------------------------------
@dataclass
class Phase:
    """One timed phase: per-operation latencies and failures, plus the
    ``(time, server CPU seconds)`` samples that cut it into windows."""

    started: float = 0.0
    ended: float = 0.0
    latencies: List[float] = field(default_factory=list)
    finished: List[float] = field(default_factory=list)
    samples: List[tuple] = field(default_factory=list)
    failures: int = 0

    @property
    def ops(self) -> int:
        return len(self.latencies)

    @property
    def wall(self) -> float:
        return self.ended - self.started


def closed_loop(port: int, connections: int, seconds: float, make_worker: Callable, cpu: Callable) -> Phase:
    """Run ``connections`` closed-loop workers against ``port`` until the
    deadline.

    ``make_worker(index, client)`` returns a callable doing one operation
    with its own keep-alive :class:`ServiceClient`; it returns on success
    and raises on failure.  The client is blocking, so each connection runs
    on its own thread and has at most one request in flight.  ``cpu()`` is
    sampled at every window boundary.
    """
    from repro.service.client import ServiceClient

    phase = Phase()
    lock = threading.Lock()
    clients = [ServiceClient(HOST, port) for _ in range(connections)]
    workers = [make_worker(index, client) for index, client in enumerate(clients)]
    stop = threading.Event()
    phase.started = time.perf_counter()
    deadline = phase.started + seconds

    def sample():
        phase.samples.append((time.perf_counter(), cpu()))
        while not stop.wait(WINDOW_S):
            phase.samples.append((time.perf_counter(), cpu()))

    def loop(worker):
        while time.perf_counter() < deadline:
            began = time.perf_counter()
            try:
                worker()
            except Exception as error:  # noqa: BLE001 - counted, run goes on
                log(f"operation failed: {error!r}")
                with lock:
                    phase.failures += 1
                continue
            finished = time.perf_counter()
            with lock:
                phase.latencies.append(finished - began)
                phase.finished.append(finished)

    sampler = threading.Thread(target=sample)
    threads = [threading.Thread(target=loop, args=(worker,)) for worker in workers]
    try:
        sampler.start()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
    finally:
        stop.set()
        sampler.join()
        for client in clients:
            client.close()
    phase.samples.append((time.perf_counter(), cpu()))
    phase.ended = time.perf_counter()
    return phase


def unscaled(start: float, end: float) -> float:
    """The identity scale: times as measured."""
    return 1.0


def normalized(phase: Phase, scale: Callable[[float, float], float]) -> dict:
    """Throughput, latencies and CPU per operation of a phase, every time
    multiplied window by window by ``scale(start, end)`` —
    :meth:`SpeedProbe.scale` for the reference speed, :func:`unscaled`
    for the raw figures."""
    finished = np.asarray(phase.finished)
    latencies = np.asarray(phase.latencies)
    seconds = cpu = 0.0
    scaled = []
    for (start, cpu_start), (end, cpu_end) in zip(phase.samples, phase.samples[1:]):
        inside = (finished >= start) & (finished < end)
        factor = scale(start, end)
        seconds += (end - start) * factor
        cpu += (cpu_end - cpu_start) * factor
        scaled.append(latencies[inside] * factor)
    ops = int(sum(len(part) for part in scaled))
    return {
        "ops_per_s": ops / seconds if seconds else 0.0,
        "latencies": np.concatenate(scaled).tolist() if ops else [0.0],
        "cpu_per_op": cpu / ops if ops else 0.0,
    }


# ----------------------------------------------------------------------
# /metrics
# ----------------------------------------------------------------------
_SAMPLE = re.compile(r"^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{[^}]*\})?\s+(\S+)$")


def scrape(client) -> Dict[str, float]:
    """The counters this benchmark reads from ``GET /metrics``.

    A key is present only when its family was in the exposition, so a
    renamed family shows up as a missing key, not as a zero.
    """
    values: Dict[str, float] = {}
    for line in client.metrics().splitlines():
        match = _SAMPLE.match(line)
        if match is None:
            continue
        name, labels, raw = match.group(1), match.group(2) or "", float(match.group(3))
        if name == "repro_http_requests_total":
            for key in ("http_requests", "http_4xx", "http_5xx"):
                values.setdefault(key, 0.0)
            values["http_requests"] += raw
            status = re.search(r'status="(\d)', labels)
            if status and status.group(1) in "45":
                values[f"http_{status.group(1)}xx"] += raw
        elif name == "repro_http_request_seconds_sum":
            values["http_request_seconds"] = values.get("http_request_seconds", 0.0) + raw
        elif name == "repro_ingest_queue_peak":
            values["queue_peak"] = max(values.get("queue_peak", 0.0), raw)
        elif not labels:
            values[name] = raw
    return values


def metrics_delta(before: Dict[str, float], after: Dict[str, float]) -> Dict[str, float]:
    """Counter deltas of the keys both scrapes hold; gauges (queue peak)
    keep their final value."""
    delta = {key: after[key] - before[key] for key in after if key in before}
    if "queue_peak" in after:
        delta["queue_peak"] = after["queue_peak"]
    return delta


# ----------------------------------------------------------------------
# Metric arithmetic
# ----------------------------------------------------------------------
def percentile_ms(latencies: List[float], q: float) -> float:
    return float(np.percentile(np.asarray(latencies), q) * 1e3)


def mse_ratio(served: np.ndarray, exact: np.ndarray, bounds: np.ndarray) -> float:
    """MSE of served answers in units of the mean closed-form bound."""
    served = np.asarray(served, dtype=np.float64)
    return float(np.mean((served - exact) ** 2) / np.mean(bounds))


class Checks:
    """Correctness checks; every failure is counted and logged."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0

    def add_operations(self, phase: "Phase") -> None:
        """Count the operations of an untimed phase."""
        self.attempted += phase.ops + phase.failures
        self.failed += phase.failures

    def require(self, condition: bool, message: str) -> bool:
        self.attempted += 1
        if not condition:
            self.failed += 1
            log(f"check failed: {message}")
        return bool(condition)


def median(values: List[float]) -> float:
    return float(statistics.median(values))
