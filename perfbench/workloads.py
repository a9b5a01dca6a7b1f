"""The four benchmark workloads.

``ingest``, ``dashboard`` and ``live_wavelet`` drive a server process
(:mod:`server`) over keep-alive HTTP with :class:`repro.service.ServiceClient`;
``paper_sweep`` calls :func:`repro.experiments.runner.run_epsilon_grid`
in-process.  Every input comes from the ``--seed`` and is generated before
the servers start.  See ``README.md`` for why each workload exists.
"""

from __future__ import annotations

import itertools
import json
import os
import subprocess
import sys
import time

import numpy as np

from repro.analysis.variance import (
    grid2d_rectangle_variance,
    haar_range_variance,
    hh_consistent_range_variance,
    hh_range_variance,
)
from repro.data.synthetic import (
    cauchy_probabilities,
    clustered_grid_points,
    sample_counts,
    sample_items,
)
from repro.data.workloads import (
    evaluate_exact,
    evaluate_exact_boxes,
    random_boxes,
    random_range_queries,
)
from repro.experiments.runner import run_epsilon_grid
from repro.service.client import ServiceClient

import harness
import layers
from harness import EPSILON, Checks, Phase, closed_loop, log
from spans import Tracer, covered_seconds

HOST = harness.HOST
PHIS = (0.1, 0.25, 0.5, 0.75, 0.9)
#: Served MSE may be at most this multiple of the mean closed-form bound.
MSE_BOUND_MULTIPLE = 4.0
#: 503 back-off cap: queues drain in milliseconds, so the one-second
#: Retry-After hint would idle the server.
RETRY_SLEEP_S = 0.002


def _require_status(response, expected: int = 202) -> dict:
    if response.status != expected:
        raise RuntimeError(f"HTTP {response.status}: {response.body[:200]!r}")
    return response.json()


def _answers_ok(checks: Checks, answers, count: int, what: str) -> None:
    answers = np.asarray(answers)
    checks.require(
        answers.shape == (count,) and bool(np.all(np.isfinite(answers))),
        f"{what}: {count} finite answers expected, got shape {answers.shape}",
    )


def _quantiles_ok(checks: Checks, values, domain: int, what: str) -> None:
    values = list(values)
    checks.require(
        len(values) == len(PHIS)
        and all(0 <= value < domain for value in values)
        and values == sorted(values),
        f"{what}: quantiles {values} not monotone inside [0, {domain})",
    )


def _range_bounds(spec: str, epsilon: float, n_users: int, domain: int, queries) -> np.ndarray:
    """Closed-form variance bound of each range query of a 1-D spec."""
    if spec == "haar":
        return np.full(len(queries), haar_range_variance(epsilon, n_users, domain))
    branching = int(spec.split("_")[1])
    bound = hh_consistent_range_variance if spec.startswith("hhc") else hh_range_variance
    lengths = queries[:, 1] - queries[:, 0] + 1
    return np.array([bound(epsilon, n_users, int(r), domain, branching) for r in lengths])


def _identical(served, replayed) -> bool:
    """Bit-for-bit equality of nested answer structures."""
    if isinstance(served, np.ndarray) or isinstance(replayed, np.ndarray):
        return np.array_equal(np.asarray(served), np.asarray(replayed))
    if isinstance(served, (list, tuple)):
        return len(served) == len(replayed) and all(map(_identical, served, replayed))
    return served == replayed


# ----------------------------------------------------------------------
# HTTP workloads
# ----------------------------------------------------------------------
class HttpWorkload:
    """One traffic mix against a server; subclasses fill in the hooks.

    The accuracy sample is a fixed, seed-determined set of served reads
    (``served_sample``).  ``replay(seed)`` rebuilds the same reads with an
    in-process :class:`ShardedCollector`: for the server's seed it must be
    bit-identical, and further seeds average the MSE ratio.
    """

    name: str
    spec: str
    domain: int
    connections: int
    #: Collector seeds ``answer_mse_ratio`` averages over: the served one
    #: plus in-process replays.  One noise realization spreads ~30% by seed.
    accuracy_seeds = 16

    def __init__(self, seed: int) -> None:
        self.rng = np.random.default_rng(seed)
        self.server_seed = int(self.rng.integers(2**31))

    def config(self) -> dict:
        return {"spec": self.spec, "domain": self.domain, "seed": self.server_seed}

    def preload(self, server) -> None:
        """Set-up work after the server is ready (timed into ``setup_s``)."""

    def before_timed(self, client: ServiceClient) -> None:
        """Untimed work between set-up and the timed phase."""

    def timed(self, port: int, seconds: float, cpu) -> Phase:
        raise NotImplementedError

    def check_reads(self, checks: Checks) -> None:
        """Shape, range and error-bound checks of every served read."""
        raise NotImplementedError

    def served_sample(self):
        raise NotImplementedError

    def replay(self, seed: int):
        raise NotImplementedError

    def sample_ratio(self, sample) -> float:
        raise NotImplementedError

    def collector(self, seed: int):
        return harness.new_collector(self.spec, self.domain, seed)

    def check(self, checks: Checks) -> float:
        """All correctness checks; returns ``answer_mse_ratio``."""
        self.check_reads(checks)
        served = self.served_sample()
        checks.require(
            _identical(served, self.replay(self.server_seed)),
            f"{self.name}: served answers differ from the in-process replay",
        )
        seeds = np.random.SeedSequence(self.server_seed).generate_state(self.accuracy_seeds - 1)
        ratios = [self.sample_ratio(served)]
        ratios += [self.sample_ratio(self.replay(int(seed))) for seed in seeds]
        ratio = float(np.mean(ratios))
        checks.require(ratio <= MSE_BOUND_MULTIPLE, f"{self.name}: sample MSE ratio {ratio:.3f}")
        return ratio

    def check_metrics(self, scraped: dict, checks: Checks) -> None:
        """Cross-checks against the server's own ``/metrics`` counters."""


class Ingest(HttpWorkload):
    """Writes only: 1000-user per-user batches into a 1-D ``hhc_4`` server."""

    name, spec, domain, connections = "ingest", "hhc_4", 1024, 2
    batch, pool, prefix, n_ranges = 1000, 256, 4, 1024
    accuracy_seeds = 64

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        probabilities = cauchy_probabilities(self.domain)
        self.prefix_batches = sample_items(
            probabilities, self.prefix * self.batch, self.rng
        ).reshape(self.prefix, self.batch)
        self.batches = sample_items(
            probabilities, self.pool * self.batch, self.rng
        ).reshape(self.pool, self.batch)
        self.ranges = random_range_queries(self.domain, self.n_ranges, self.rng).queries
        self.prefix_counts = np.bincount(self.prefix_batches.ravel(), minlength=self.domain)
        self.pool_counts = np.stack(
            [np.bincount(batch, minlength=self.domain) for batch in self.batches]
        )
        # accepted[k, i]: times connection k had pool batch i accepted.
        self.accepted = np.zeros((self.connections, self.pool), dtype=np.int64)
        self.sent = [0] * self.connections
        self.prefix_shards = []
        self.prefix_read = None
        self.final_reads = []

    def _read(self, client: ServiceClient):
        return client.query_ranges(self.ranges), client.query_quantiles(PHIS)

    def before_timed(self, client: ServiceClient) -> None:
        # One connection, so the batch order is known and the replay can
        # rebuild exactly this state.
        for batch in self.prefix_batches:
            response = client.post_batch_retrying(batch, mode="per_user", max_sleep=RETRY_SLEEP_S)
            self.prefix_shards.append(int(_require_status(response)["shard"]))
        self.prefix_read = self._read(client)

    def timed(self, port: int, seconds: float, cpu) -> Phase:
        def make_worker(index: int, client: ServiceClient):
            def post():
                slot = (index + self.connections * self.sent[index]) % self.pool
                self.sent[index] += 1
                response = client.post_batch_retrying(
                    self.batches[slot], mode="per_user", max_sleep=RETRY_SLEEP_S
                )
                _require_status(response)
                self.accepted[index, slot] += 1

            return post

        phase = closed_loop(port, self.connections, seconds, make_worker, cpu)
        # The phase ends with the first read after the last POST, which
        # drains the shard queues, reduces and materializes; one more window
        # puts that work into the throughput and CPU figures.
        with ServiceClient(HOST, port) as client:
            read = self._read(client)
        phase.samples.append((time.perf_counter(), cpu()))
        phase.ended = time.perf_counter()
        self.final_reads.append((read, self.accepted.sum(axis=0).copy()))
        return phase

    def check_reads(self, checks: Checks) -> None:
        for (answers, quantiles), accepted in self.final_reads:
            _answers_ok(checks, answers, self.n_ranges, "ingest")
            _quantiles_ok(checks, quantiles, self.domain, "ingest")
            counts = self.prefix_counts + accepted @ self.pool_counts
            ratio = harness.mse_ratio(
                answers,
                evaluate_exact(counts, self.ranges),
                _range_bounds(self.spec, EPSILON, int(counts.sum()), self.domain, self.ranges),
            )
            checks.require(ratio <= MSE_BOUND_MULTIPLE, f"ingest: final MSE ratio {ratio:.3f}")

    def served_sample(self):
        return self.prefix_read

    def replay(self, seed: int):
        collector = self.collector(seed)
        for batch, shard in zip(self.prefix_batches, self.prefix_shards):
            collector.submit(batch, shard=shard, mode="per_user")
        view = collector.reduce()
        return view.answer_ranges(self.ranges), view.quantiles(PHIS)

    def sample_ratio(self, sample) -> float:
        bounds = _range_bounds(self.spec, EPSILON, self.prefix_batches.size, self.domain, self.ranges)
        return harness.mse_ratio(sample[0], evaluate_exact(self.prefix_counts, self.ranges), bounds)

    def check_metrics(self, scraped: dict, checks: Checks) -> None:
        users = self.prefix_batches.size + self.accepted.sum() * self.batch
        checks.require(
            scraped.get("repro_ingest_absorbed_users_total") == users,
            "ingest: the server absorbed a different number of users than it accepted",
        )


class Dashboard(HttpWorkload):
    """Reads only: 256-box batches against a preloaded ``grid2d_2`` server."""

    name, spec, domain, connections = "dashboard", "grid2d_2", 64, 2
    n_points, chunk, boxes, hot, fresh = 400_000, 50_000, 256, 8, 8000
    #: Fresh responses re-answered in-process and compared bit for bit.
    fresh_checked = 64

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        self.points = clustered_grid_points(self.domain, self.n_points, self.rng)
        self.hot_panels = [random_boxes(self.domain, self.boxes, 2, self.rng) for _ in range(self.hot)]
        self.fresh_panels = random_boxes(
            self.domain, self.boxes * self.fresh, 2, self.rng
        ).reshape(self.fresh, self.boxes, 4).astype(np.int16)
        self.grid = np.bincount(
            self.points[:, 0] * self.domain + self.points[:, 1], minlength=self.domain**2
        ).reshape(self.domain, self.domain)
        self.preload_shards = []
        self.records = [[] for _ in range(self.connections)]

    def preload(self, server) -> None:
        shards = []
        with ServiceClient(HOST, server.port) as client:
            for start in range(0, self.n_points, self.chunk):
                response = client.post_points(self.points[start : start + self.chunk], binary=True)
                shards.append(int(_require_status(response)["shard"]))
            # Builds the read view (drain, reduce, materialize) before the
            # timed phase; a one-cell box leaves the answer cache cold.
            client.query_boxes([[0, 0, 0, 0]])
        self.preload_shards = shards

    def timed(self, port: int, seconds: float, cpu) -> Phase:
        def make_worker(index: int, client: ServiceClient):
            records = self.records[index]
            steps = itertools.count(len(records))

            def query():
                step = next(steps)
                if step % 2 == 0:
                    kind, slot = "hot", (step // 2 + index) % self.hot
                    panel = self.hot_panels[slot]
                else:
                    kind, slot = "fresh", (index + self.connections * (step // 2)) % self.fresh
                    panel = self.fresh_panels[slot]
                records.append((kind, slot, client.query_boxes(panel)))

            return query

        return closed_loop(port, self.connections, seconds, make_worker, cpu)

    def _ratio(self, panels, answers) -> float:
        boxes = np.concatenate(panels).astype(np.int64)
        lengths = np.maximum(boxes[:, 1] - boxes[:, 0], boxes[:, 3] - boxes[:, 2]) + 1
        bounds = np.array(
            [grid2d_rectangle_variance(EPSILON, self.n_points, int(r), self.domain, 2) for r in lengths]
        )
        return harness.mse_ratio(np.concatenate(answers), evaluate_exact_boxes(self.grid, boxes), bounds)

    def _view(self, seed: int):
        collector = self.collector(seed)
        for start, shard in zip(range(0, self.n_points, self.chunk), self.preload_shards):
            collector.submit_points(self.points[start : start + self.chunk], shard=shard)
        return collector.reduce()

    def check_reads(self, checks: Checks) -> None:
        records = [record for per_connection in self.records for record in per_connection]
        for _, _, answers in records:
            _answers_ok(checks, answers, self.boxes, "dashboard")
        hot = self.served_sample()
        checks.require(
            all(_identical(answers, hot[slot]) for kind, slot, answers in records if kind == "hot"),
            "dashboard: one hot panel was answered two different ways",
        )
        fresh = [record for record in records if record[0] == "fresh"]
        checked = fresh[:: max(1, len(fresh) // self.fresh_checked)]
        if checked:
            view = self._view(self.server_seed)
            checks.require(
                all(_identical(answers, view.answer_boxes(self.fresh_panels[slot])) for _, slot, answers in checked),
                "dashboard: a fresh-box answer differs from the in-process replay",
            )
            ratio = self._ratio(
                [self.fresh_panels[slot] for _, slot, _ in checked], [answers for _, _, answers in checked]
            )
            checks.require(ratio <= MSE_BOUND_MULTIPLE, f"dashboard: fresh-box MSE ratio {ratio:.3f}")

    def served_sample(self):
        first = {}
        for per_connection in self.records:
            for kind, slot, answers in per_connection:
                if kind == "hot":
                    first.setdefault(slot, answers)
        return [first.get(slot) for slot in range(self.hot)]

    def replay(self, seed: int):
        view = self._view(seed)
        return [view.answer_boxes(panel) for panel in self.hot_panels]

    def sample_ratio(self, sample) -> float:
        return self._ratio(self.hot_panels, sample)


class LiveWavelet(HttpWorkload):
    """Alternating 500-user writes and 256-range + quantile reads (``haar``)."""

    name, spec, domain, connections = "live_wavelet", "haar", 16384, 1
    batch, pool, n_ranges, range_pool = 500, 512, 256, 2048
    #: Cycles in the accuracy sample (and in each replay).
    probed = 24

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        probabilities = cauchy_probabilities(self.domain)
        self.batches = sample_items(
            probabilities, self.pool * self.batch, self.rng
        ).reshape(self.pool, self.batch)
        self.range_sets = random_range_queries(
            self.domain, self.n_ranges * self.range_pool, self.rng
        ).queries.reshape(self.range_pool, self.n_ranges, 2)
        self.cycles = []  # [shard, answers, quantiles] per write

    def timed(self, port: int, seconds: float, cpu) -> Phase:
        def make_worker(index: int, client: ServiceClient):
            def cycle():
                step = len(self.cycles)
                response = client.post_batch_retrying(
                    self.batches[step % self.pool], mode="per_user", max_sleep=RETRY_SLEEP_S
                )
                # Recorded before the read, so a failed read still leaves
                # the server's batch order intact for the replay.
                self.cycles.append([int(_require_status(response)["shard"]), None, None])
                answers = client.query_ranges(self.range_sets[step % self.range_pool])
                self.cycles[-1][1:] = [answers, client.query_quantiles(PHIS)]

            return cycle

        return closed_loop(port, self.connections, seconds, make_worker, cpu)

    def _ratios(self, reads):
        """MSE ratio of each cycle's range answers, in cycle order."""
        counts = np.zeros(self.domain, dtype=np.int64)
        ratios = []
        for step, read in enumerate(reads):
            counts += np.bincount(self.batches[step % self.pool], minlength=self.domain)
            if read is None:
                continue
            ranges = self.range_sets[step % self.range_pool]
            bounds = _range_bounds(self.spec, EPSILON, int(counts.sum()), self.domain, ranges)
            ratios.append(harness.mse_ratio(read[0], evaluate_exact(counts, ranges), bounds))
        return ratios

    def check_reads(self, checks: Checks) -> None:
        reads = [None if answers is None else (answers, quantiles) for _, answers, quantiles in self.cycles]
        for read in reads:
            if read is not None:
                _answers_ok(checks, read[0], self.n_ranges, "live_wavelet")
                _quantiles_ok(checks, read[1], self.domain, "live_wavelet")
        ratio = float(np.mean(self._ratios(reads) or [np.inf]))
        checks.require(ratio <= MSE_BOUND_MULTIPLE, f"live_wavelet: MSE ratio {ratio:.3f}")

    def served_sample(self):
        return [
            None if answers is None else (answers, quantiles)
            for _, answers, quantiles in self.cycles[: self.probed]
        ]

    def replay(self, seed: int):
        collector = self.collector(seed)
        reads = []
        for step, (shard, answers, _) in enumerate(self.cycles[: self.probed]):
            collector.submit(self.batches[step % self.pool], shard=shard, mode="per_user")
            if answers is None:
                reads.append(None)
                continue
            view = collector.reduce()
            reads.append((view.answer_ranges(self.range_sets[step % self.range_pool]), view.quantiles(PHIS)))
        return reads

    def sample_ratio(self, sample) -> float:
        return float(np.mean(self._ratios(sample)))


def run_http(workload: HttpWorkload, seconds: float, trace: bool, probe) -> dict:
    checks = Checks()
    server, setups = harness.start_servers(workload.config(), workload.preload)
    try:
        with ServiceClient(HOST, server.port) as control:
            workload.before_timed(control)
            # The first second or two of traffic ran slow and, in a measured
            # live_wavelet run, held most of the slowest 1% of operations;
            # warm-up operations are checked but not timed.
            checks.add_operations(workload.timed(server.port, harness.WARMUP_S, server.cpu_seconds))
            before = harness.scrape(control)
            untraced = None
            tracer = None
            if trace:
                untraced = workload.timed(server.port, seconds / 2, server.cpu_seconds)
                before = harness.scrape(control)
                server.start_tracing()
                tracer = Tracer()
                tracer.install(layers.client_targets())
                try:
                    phase = workload.timed(server.port, seconds / 2, server.cpu_seconds)
                finally:
                    tracer.uninstall()
            else:
                phase = workload.timed(server.port, seconds, server.cpu_seconds)
            after = harness.scrape(control)
            peak_rss = server.peak_rss_mb()
    except BaseException:
        server.kill()
        raise
    summary_line = server.stop()
    probe.stop()
    ratio = workload.check(checks)
    workload.check_metrics(after, checks)
    checks.require(after.get("http_5xx") == 0, f"{workload.name}: the server answered 5xx")
    delta = harness.metrics_delta(before, after)
    log(f"{workload.name}: /metrics delta {json.dumps(delta, sort_keys=True)}")
    if trace:
        summaries = [json.loads(summary_line), tracer.summary()]
        scaling = [harness.normalized(untraced, scale) for scale in (probe.scale, harness.unscaled)]
        return _traced_result(workload.name, phase, untraced, scaling, summaries, delta, checks, probe)
    measured = harness.normalized(phase, probe.scale)
    _log_scaling(workload.name, measured, harness.normalized(phase, harness.unscaled))
    return _result(phase, measured, _setup_s(setups, probe), peak_rss, ratio, checks)


def _log_scaling(name: str, scaled: dict, raw: dict) -> None:
    log(f"{name}: {raw['ops_per_s']:.1f} ops/s and {raw['cpu_per_op'] * 1e3:.3f} ms CPU/op unscaled, "
        f"{scaled['ops_per_s']:.1f} and {scaled['cpu_per_op'] * 1e3:.3f} at the reference speed")


# ----------------------------------------------------------------------
# In-process workload
# ----------------------------------------------------------------------
class PaperSweep:
    """The Table 5 grid through ``run_epsilon_grid`` with ``workers=1``."""

    name = "paper_sweep"
    specs = ("hhc_4", "hh_16", "haar")
    epsilons = (0.2, 0.6, 1.1, 1.4)
    domain, n_users, n_ranges, repetitions, populations = 1024, 1 << 20, 2000, 5, 16

    def __init__(self, seed: int) -> None:
        rng = np.random.default_rng(seed)
        probabilities = cauchy_probabilities(self.domain)
        self.inputs = []
        for _ in range(self.populations):
            counts = sample_counts(probabilities, self.n_users, rng)
            workload = random_range_queries(self.domain, self.n_ranges, rng)
            self.inputs.append((counts, workload, int(rng.integers(2**31))))
        self.cells = []  # (population, epsilon, spec, mse, began, finished, cpu/fit)
        self.sweeps = 0

    def timed(self, seconds: float) -> Phase:
        phase = Phase()
        phase.started = time.perf_counter()
        deadline = phase.started + seconds
        grid = [(epsilon, spec) for epsilon in self.epsilons for spec in self.specs]
        while time.perf_counter() < deadline:
            index = self.sweeps % self.populations
            counts, workload, seed = self.inputs[index]
            seeds = np.random.SeedSequence(seed).spawn(len(grid))
            for (epsilon, spec), cell_seed in zip(grid, seeds):
                if time.perf_counter() >= deadline:
                    break
                began, cpu = time.perf_counter(), time.process_time()
                (result,) = run_epsilon_grid(
                    [spec], counts, workload, [epsilon],
                    repetitions=self.repetitions, random_state=cell_seed, workers=1,
                )
                finished = time.perf_counter()
                cpu_per_fit = (time.process_time() - cpu) / self.repetitions
                phase.latencies.extend([(finished - began) / self.repetitions] * self.repetitions)
                phase.finished.extend([finished] * self.repetitions)
                self.cells.append((index, epsilon, spec, result.mse_mean, began, finished, cpu_per_fit))
            self.sweeps += 1
        phase.ended = time.perf_counter()
        return phase

    def normalized(self, scale, cells=None) -> dict:
        """Per-fit wall and CPU of each grid cell (of ``cells``, default
        all), multiplied by ``scale(start, end)`` as in
        :func:`harness.normalized`.  Cells differ 60-fold in cost, so each
        ``(spec, epsilon)`` cell contributes the median of its runs and the
        figures weigh every cell equally, as one sweep does."""
        walls, cpus = [], []
        for epsilon in self.epsilons:
            for spec in self.specs:
                runs = [
                    (scale(began, finished), (finished - began) / self.repetitions, cpu)
                    for _, e, s, _, began, finished, cpu in (self.cells if cells is None else cells)
                    if (e, s) == (epsilon, spec)
                ]
                if runs:
                    walls.append(float(np.median([factor * wall for factor, wall, _ in runs])))
                    cpus.append(float(np.median([factor * cpu for factor, _, cpu in runs])))
        if not walls:
            return {"ops_per_s": 0.0, "latencies": [0.0], "cpu_per_op": 0.0}
        return {
            "ops_per_s": 1.0 / float(np.mean(walls)),
            "latencies": walls,
            "cpu_per_op": float(np.mean(cpus)),
        }

    def check(self, checks: Checks) -> float:
        first = []
        for index, epsilon, spec, mse, _, _, _ in self.cells:
            counts, workload, _ = self.inputs[index]
            bounds = _range_bounds(spec, epsilon, self.n_users, self.domain, workload.queries)
            ratio = mse / float(np.mean(bounds)) if np.isfinite(mse) and mse > 0 else float("inf")
            checks.require(ratio <= MSE_BOUND_MULTIPLE, f"paper_sweep: {spec} eps={epsilon} MSE ratio {ratio:.3f}")
            if index == 0:
                first.append(ratio)
        return float(np.mean(first)) if first else float("inf")


def _import_span() -> tuple:
    """``(start, end)`` of a fresh interpreter importing the sweep's library."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(harness.SRC)
    started = time.perf_counter()
    subprocess.run(
        [sys.executable, "-c", "import repro.experiments.runner"],
        check=True, env=env, cwd=str(harness.ROOT), timeout=harness.SERVER_TIMEOUT_S,
    )
    return started, time.perf_counter()


def _setup_s(setups, probe) -> float:
    """Median set-up time, each scaled to the reference speed."""
    return harness.median([(end - start) * probe.scale(start, end) for start, end in setups])


def run_paper_sweep(seed: int, seconds: float, trace: bool, probe) -> dict:
    checks = Checks()
    sweep = PaperSweep(seed)
    if trace:
        untraced = sweep.timed(seconds / 2)
        untraced_cells = list(sweep.cells)
        tracer = Tracer()
        tracer.install(layers.runner_targets())
        try:
            phase = sweep.timed(seconds / 2)
        finally:
            tracer.uninstall()
        probe.stop()
        sweep.check(checks)
        scaling = [sweep.normalized(scale, untraced_cells) for scale in (probe.scale, harness.unscaled)]
        return _traced_result(sweep.name, phase, untraced, scaling, [tracer.summary()], None, checks, probe)
    setups = [_import_span() for _ in range(harness.SETUPS)]
    phase = sweep.timed(seconds)
    peak_rss = harness.peak_rss_mb(os.getpid())
    probe.stop()
    ratio = sweep.check(checks)
    measured = sweep.normalized(probe.scale)
    _log_scaling(sweep.name, measured, sweep.normalized(harness.unscaled))
    return _result(phase, measured, _setup_s(setups, probe), peak_rss, ratio, checks)


# ----------------------------------------------------------------------
# Results
# ----------------------------------------------------------------------
def _result(phase: Phase, steady: dict, setup_s: float, peak_rss, ratio, checks: Checks) -> dict:
    checks.require(phase.ops > 0, "no operation completed")
    metrics = {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (steady["ops_per_s"], "1/s"),
        "op_p50_ms": (harness.percentile_ms(steady["latencies"], 50), "ms"),
        "op_p99_ms": (harness.percentile_ms(steady["latencies"], 99), "ms"),
        "server_cpu_ms_per_op": (steady["cpu_per_op"] * 1e3, "ms"),
        "peak_rss_mb": (peak_rss, "MB"),
        "answer_mse_ratio": (ratio, "ratio"),
    }
    return _envelope(metrics, checks, phase)


def _traced_result(name: str, phase: Phase, untraced: Phase, scaling, summaries, delta, checks: Checks, probe) -> dict:
    """Per-layer metrics of a traced run.

    ``scaling`` is the untraced half normalized at the reference speed and
    unscaled; ``delta`` the traced half's ``/metrics`` delta (``None`` on
    ``paper_sweep``, which has no server).
    """
    ops = max(phase.ops, 1)
    # Per-operation times are scaled to the reference speed like the
    # end-to-end ones, with the traced half's median speed.
    factor = probe.scale(phase.started, phase.ended)
    spans, counters, intervals = {}, {}, []
    for summary in summaries:
        for span, (count, self_s) in summary["spans"].items():
            entry = spans.setdefault(span, [0, 0.0])
            entry[0] += count
            entry[1] += self_s
        for counter, value in summary["counters"].items():
            counters[counter] = counters.get(counter, 0.0) + value
        intervals.extend(summary["intervals"])
    metrics = {}
    for metric, (span_names, home) in layers.SPAN_METRICS.items():
        if home == name:
            recorded = sum(spans.get(span, [0])[0] for span in span_names)
            checks.require(recorded > 0, f"self-test: {metric} recorded no span on {name}")
        self_s = sum(spans.get(span, [0, 0.0])[1] for span in span_names)
        metrics[metric] = self_s * factor * 1e3 / ops
    # A count input must be recorded (and, where flagged, non-zero) on its
    # workload; ``GET /metrics`` families must be present on every HTTP
    # workload.  A renamed family or a hook that never fires fails the run
    # instead of reading 0.
    inputs = [(metric, *entry) for metric, entry in layers.COUNT_METRICS.items()]
    inputs += [(key, source, key, home, nonzero) for source, key, home, nonzero in layers.DERIVED_INPUTS]
    values = {}
    for metric, source, key, home, nonzero in inputs:
        value = layers.read_count(source, key, spans, counters, delta or {})
        if home == name or (source == "metrics" and delta is not None):
            checks.require(value is not None, f"self-test: {key} was never recorded on {name}")
        if home == name and nonzero:
            checks.require(bool(value), f"self-test: {key} stayed 0 on {name}")
        values[key] = value or 0.0
        if metric in layers.COUNT_METRICS:
            metrics[metric] = value or 0.0
    flushes = metrics["coalescer.flushes"]
    metrics["coalescer.queries_per_call"] = values["coalescer.queries"] / flushes if flushes else 0.0
    hits, misses = metrics["cache.hits"], metrics["cache.misses"]
    metrics["cache.hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
    metrics["http.request_ms"] = values["http_request_seconds"] * factor * 1e3 / ops
    covered = covered_seconds(intervals, phase.started, phase.ended)
    metrics["trace.unattributed_share"] = 1.0 - covered / phase.wall
    untraced_wall = untraced.wall * probe.scale(untraced.started, untraced.ended)
    metrics["trace.overhead_share"] = (untraced.ops / untraced_wall) / (phase.ops / (phase.wall * factor)) - 1.0
    scaled, raw = scaling
    metrics["scaling.factor"] = raw["ops_per_s"] / scaled["ops_per_s"] if scaled["ops_per_s"] else 0.0
    metrics["scaling.ops_per_s"] = scaled["ops_per_s"]
    metrics["scaling.ops_per_s_unscaled"] = raw["ops_per_s"]
    metrics["scaling.server_cpu_ms_per_op"] = scaled["cpu_per_op"] * 1e3
    metrics["scaling.server_cpu_ms_per_op_unscaled"] = raw["cpu_per_op"] * 1e3
    units = layers.per_layer_units()
    return _envelope({key: (value, units[key]) for key, value in metrics.items()}, checks, phase, untraced)


def _envelope(metrics, checks: Checks, *phases: Phase) -> dict:
    attempted = checks.attempted + sum(phase.ops + phase.failures for phase in phases)
    failed = checks.failed + sum(phase.failures for phase in phases)
    return {
        "correct": failed == 0,
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {name: {"value": float(value), "unit": unit} for name, (value, unit) in metrics.items()},
    }


WORKLOADS = {
    "ingest": lambda seed, seconds, trace, probe: run_http(Ingest(seed), seconds, trace, probe),
    "dashboard": lambda seed, seconds, trace, probe: run_http(Dashboard(seed), seconds, trace, probe),
    "live_wavelet": lambda seed, seconds, trace, probe: run_http(LiveWavelet(seed), seconds, trace, probe),
    "paper_sweep": run_paper_sweep,
}
