"""Command-line interface for regenerating the paper's experiments.

``python -m repro <experiment> [options]`` runs one of the table/figure
drivers at a configurable scale and prints the resulting table in the
paper's layout.  It is a thin wrapper around :mod:`repro.experiments.figures`
for people who want the numbers without going through pytest.

Examples
--------
::

    python -m repro table5 --domain 256 --users 131072
    python -m repro fig4   --domain 4096 --repetitions 3
    python -m repro fig9   --domain 4096 --centers 0.1 0.5
    python -m repro table7 --domains 256 1024
    python -m repro ablation-consistency --domain 1024
    python -m repro streaming --domain 1024 --shards 1 4 16 --batches 32
    python -m repro streaming --checkpoint /tmp/collector.snap
    python -m repro table5 --domain 1024 --workers 4
    python -m repro grid2d --side 32 --shards 4 --checkpoint /tmp/grid.snap
    python -m repro grid2d --side 16 --dims 3 --rectangles 100
    python -m repro plan --domain 1024 --users 200000 --queries 500
    python -m repro plan --domain 32 --dims 3 --users 200000
    python -m repro lint --format json
    python -m repro lint --baseline LINT_BASELINE.json
    python -m repro serve --shards 4 --port 8080

``lint``, ``serve`` and ``plan`` are the odd ones out: instead of an
experiment, ``lint`` runs the AST-based DP-contract linter of
:mod:`repro.devtools.lint` (rule table: ``python -m repro lint
--list-rules``), ``serve`` stands up the HTTP ingestion front of
:mod:`repro.service.http` in the foreground, and ``plan`` prints the
variance-driven configuration ranking of :mod:`repro.planner`.  All three
own their flags, so they are dispatched before the experiment parser.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional, Sequence

from repro.core.quantiles import DECILES
from repro.experiments.config import ExperimentConfig
from repro.experiments.figures import (
    ablation_consistency,
    ablation_sampling_vs_splitting,
    figure4_branching_factor,
    figure8_distribution_shift,
    figure9_quantiles,
    table5_epsilon_ranges,
    table6_epsilon_prefix,
    table7_centralized_comparison,
)
from repro.experiments.reporting import format_table, render_results

__all__ = ["main", "build_parser", "build_serve_parser"]

EXPERIMENTS = (
    "fig4",
    "table5",
    "table6",
    "table7",
    "fig8",
    "fig9",
    "ablation-sampling",
    "ablation-consistency",
    "streaming",
    "grid2d",
)


def build_parser() -> argparse.ArgumentParser:
    """Build the argument parser (exposed separately for testing)."""
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Regenerate tables/figures from 'Answering Range Queries Under LDP'.",
        epilog="'python -m repro lint' runs the DP-contract linter instead "
        "(own flags; see 'python -m repro lint --help').",
    )
    parser.add_argument("experiment", choices=EXPERIMENTS, help="which experiment to run")
    parser.add_argument("--domain", type=int, default=1 << 10, help="domain size D")
    parser.add_argument(
        "--domains",
        type=int,
        nargs="+",
        default=None,
        help="domain sizes (table7 only; default 256 1024 4096)",
    )
    parser.add_argument("--users", type=int, default=1 << 17, help="population size N")
    parser.add_argument("--epsilon", type=float, default=1.1, help="privacy budget")
    parser.add_argument(
        "--epsilons",
        type=float,
        nargs="+",
        default=None,
        help="epsilon grid for table5/table6 (default: the paper's 0.2..1.4)",
    )
    parser.add_argument("--repetitions", type=int, default=3, help="repetitions per cell")
    parser.add_argument(
        "--max-queries", type=int, default=6000, help="cap on queries per workload"
    )
    parser.add_argument("--seed", type=int, default=20190630, help="random seed")
    parser.add_argument(
        "--centers",
        type=float,
        nargs="+",
        default=None,
        help="Cauchy centers P (fig8/fig9)",
    )
    parser.add_argument(
        "--shards",
        type=int,
        nargs="+",
        default=None,
        help="shard counts for the streaming demo (default 1 2 4 8)",
    )
    parser.add_argument(
        "--batches",
        type=int,
        default=16,
        help="number of arrival batches the population is split into (streaming)",
    )
    parser.add_argument(
        "--mechanism",
        type=str,
        default="hhc_4",
        help="mechanism spec collected by the streaming/grid2d demos",
    )
    parser.add_argument(
        "--checkpoint",
        type=str,
        default=None,
        metavar="PATH",
        help=(
            "streaming only: checkpoint the collector mid-stream to PATH, "
            "simulate a crash, restore, finish, and verify the resumed run "
            "matches the uninterrupted one bit-for-bit"
        ),
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=None,
        help=(
            "worker processes for the (epsilon, spec, repetition) fan-out of "
            "table5/table6 (default: serial); results are bit-identical to "
            "serial"
        ),
    )
    parser.add_argument(
        "--side",
        type=int,
        default=32,
        help="grid2d only: side length D of the [D]^d grid",
    )
    parser.add_argument(
        "--rectangles",
        type=int,
        default=200,
        help="grid2d only: number of random box queries evaluated",
    )
    parser.add_argument(
        "--dims",
        type=int,
        default=2,
        help="grid2d only: number of grid axes d (d > 2 runs the N-d grid)",
    )
    return parser


def _config(args: argparse.Namespace) -> ExperimentConfig:
    overrides = {
        "n_users": args.users,
        "repetitions": args.repetitions,
        "epsilon": args.epsilon,
        "max_queries_per_workload": args.max_queries,
        "seed": args.seed,
    }
    if args.epsilons:
        overrides["epsilons"] = tuple(args.epsilons)
    if args.workers is not None:
        overrides["workers"] = args.workers
    return ExperimentConfig(**overrides)


def _run_fig4(config: ExperimentConfig, args: argparse.Namespace) -> str:
    results = figure4_branching_factor(config, args.domain)
    sections: List[str] = [f"Figure 4 | D = {args.domain} | MSE x 1000"]
    for length, cells in sorted(results.items()):
        rows = sorted((cell.mechanism, cell.scaled_mse) for cell in cells)
        sections.append(f"\nquery length r = {length}")
        sections.append(format_table(["method", "mse x1000"], rows))
    return "\n".join(sections)


def _run_table(config: ExperimentConfig, args: argparse.Namespace, prefix: bool) -> str:
    driver = table6_epsilon_prefix if prefix else table5_epsilon_ranges
    results = driver(config, args.domain)
    label = "prefix queries (Table 6)" if prefix else "range queries (Table 5)"
    return f"{label} | D = {args.domain} | MSE x 1000\n" + render_results(results)


def _run_table7(config: ExperimentConfig, args: argparse.Namespace) -> str:
    domains = tuple(args.domains) if args.domains else (256, 1024, 4096)
    results = table7_centralized_comparison(config, domain_sizes=domains, epsilon=1.0)
    rows = [
        [
            domain,
            row["wavelet"],
            row["hhc_16"],
            row["hhc_2"],
            row["wavelet/hhc_16"],
            row["hhc_2/hhc_16"],
        ]
        for domain, row in sorted(results.items())
    ]
    header = ["D", "Wavelet", "HHc_16", "HHc_2", "Wavelet/HHc_16", "HHc_2/HHc_16"]
    return "Figure 7 | centralized comparison (eps = 1)\n" + format_table(header, rows)


def _run_fig8(config: ExperimentConfig, args: argparse.Namespace) -> str:
    centers = tuple(args.centers) if args.centers else (0.1, 0.3, 0.5, 0.7, 0.9)
    results = figure8_distribution_shift(config, args.domain, centers=centers)
    rows = []
    for center in centers:
        cells = {cell.mechanism: cell.scaled_mse for cell in results[center]}
        rows.append([center, cells.get("hhc_4"), cells.get("haar")])
    return (
        f"Figure 8 | D = {args.domain} | MSE x 1000 vs Cauchy center\n"
        + format_table(["P", "HHc_4", "HaarHRR"], rows)
    )


def _run_fig9(config: ExperimentConfig, args: argparse.Namespace) -> str:
    centers = tuple(args.centers) if args.centers else (0.1, 0.5)
    results = figure9_quantiles(config, args.domain, centers=centers)
    sections: List[str] = [f"Figure 9 | D = {args.domain} | decile errors"]
    for center in centers:
        per_method = results[center]
        rows = []
        for index, phi in enumerate(DECILES):
            rows.append(
                [
                    phi,
                    per_method["hhc_2"]["value_error"][index],
                    per_method["haar"]["value_error"][index],
                    per_method["hhc_2"]["quantile_error"][index],
                    per_method["haar"]["quantile_error"][index],
                ]
            )
        sections.append(f"\nCauchy center P = {center}")
        sections.append(
            format_table(
                ["phi", "value err HHc_2", "value err Haar", "q-err HHc_2", "q-err Haar"],
                rows,
            )
        )
    return "\n".join(sections)


def _run_ablation_sampling(config: ExperimentConfig, args: argparse.Namespace) -> str:
    results = ablation_sampling_vs_splitting(config, args.domain)
    rows = [[label, cell.scaled_mse] for label, cell in sorted(results.items())]
    return (
        f"Ablation | level sampling vs budget splitting | D = {args.domain}\n"
        + format_table(["strategy", "mse x1000"], rows)
    )


def _run_ablation_consistency(config: ExperimentConfig, args: argparse.Namespace) -> str:
    results = ablation_consistency(config, args.domain)
    rows = [
        [
            branching,
            cells["raw"].scaled_mse,
            cells["consistent"].scaled_mse,
            cells["raw"].mse_mean / cells["consistent"].mse_mean,
        ]
        for branching, cells in sorted(results.items())
    ]
    return (
        f"Ablation | constrained inference | D = {args.domain}\n"
        + format_table(["B", "raw mse x1000", "consistent mse x1000", "improvement x"], rows)
    )


def _run_streaming(config: ExperimentConfig, args: argparse.Namespace) -> str:
    """Sharded/streaming collection vs. one-shot, at matched accuracy."""
    from repro.data.synthetic import cauchy_probabilities, sample_items
    from repro.data.workloads import random_range_queries
    from repro.streaming import one_shot_vs_sharded

    domain = args.domain
    items = sample_items(
        cauchy_probabilities(domain), config.n_users, random_state=config.seed
    )
    workload = random_range_queries(
        domain,
        min(config.max_queries_per_workload, 4000),
        random_state=config.seed,
        name="streaming-demo",
    )
    rows = one_shot_vs_sharded(
        args.mechanism,
        epsilon=config.epsilon,
        items=items,
        workload=workload,
        shard_counts=args.shards or (1, 2, 4, 8),
        seed=config.seed,
        batches_for=lambda n_shards: int(args.batches),
    )
    output = (
        f"Streaming | {args.mechanism} | D = {domain} | N = {config.n_users} | "
        "estimates are shard-count invariant in distribution\n"
        + format_table(["collection", "shards", "batches", "mse x1000", "seconds"], rows)
    )
    if args.checkpoint:
        output += "\n\n" + _run_crash_recovery(config, args, items)
    return output


def _crash_recovery_report(build, submit, estimate, batches, checkpoint_path) -> str:
    """Checkpoint mid-stream, 'crash', restore, and verify exact resumption.

    Shared choreography of the 1-D and 2-D demos: ``build`` constructs a
    fresh collector, ``submit(collector, batch)`` feeds one batch, and
    ``estimate(mechanism)`` extracts the array compared bit-for-bit.
    """
    import numpy as np

    from repro.streaming import ShardedCollector

    half = len(batches) // 2

    uninterrupted = build()
    for batch in batches:
        submit(uninterrupted, batch)
    expected = estimate(uninterrupted.reduce())

    crashed = build()
    for batch in batches[:half]:
        submit(crashed, batch)
    path = crashed.checkpoint(checkpoint_path)
    del crashed  # the "crash": all in-memory state is gone

    resumed = ShardedCollector.restore(path)
    for batch in batches[half:]:
        submit(resumed, batch)
    actual = estimate(resumed.reduce())
    exact = bool(np.array_equal(expected, actual))
    return (
        f"Crash recovery | checkpoint after {half}/{len(batches)} batches -> {path}\n"
        f"restored collector resumed the uninterrupted run bit-for-bit: {exact}"
    )


def _run_crash_recovery(config, args: argparse.Namespace, items) -> str:
    import numpy as np

    from repro.streaming import ShardedCollector

    n_shards = (args.shards or (4,))[0]

    def build() -> ShardedCollector:
        return ShardedCollector(
            args.mechanism,
            epsilon=config.epsilon,
            domain_size=args.domain,
            n_shards=n_shards,
            random_state=config.seed,
        )

    return _crash_recovery_report(
        build,
        submit=lambda collector, batch: collector.submit(batch),
        estimate=lambda mechanism: mechanism.estimate_frequencies(),
        batches=np.array_split(items, max(int(args.batches), 2)),
        checkpoint_path=args.checkpoint,
    )


def _run_grid2d(config: ExperimentConfig, args: argparse.Namespace) -> str:
    """d-dimensional box queries: one-shot vs sharded collection, plus
    recovery (``--dims 2`` is the historical rectangle demo)."""
    import time

    import numpy as np

    from repro.data.synthetic import clustered_grid_points
    from repro.data.workloads import random_boxes
    from repro.streaming import ShardedCollector

    side = int(args.side)
    dims = int(args.dims)
    n_users = config.n_users
    points = clustered_grid_points(side, n_users, random_state=config.seed, dims=dims)
    boxes = random_boxes(side, int(args.rectangles), dims=dims, random_state=config.seed)
    inside = np.ones((points.shape[0], boxes.shape[0]), dtype=bool)
    for axis in range(dims):
        inside &= (points[:, axis][:, None] >= boxes[:, 2 * axis]) & (
            points[:, axis][:, None] <= boxes[:, 2 * axis + 1]
        )
    truth = inside.mean(axis=0)
    # --mechanism defaults to the 1-D streaming demo's spec; this demo
    # needs a grid spec, so anything else falls back to the grid default
    # for the requested dimensionality.
    if args.mechanism.startswith("grid"):
        spec = args.mechanism
    else:
        spec = "grid2d_2" if dims == 2 else f"grid{dims}d_2"

    rows = []
    start = time.perf_counter()
    from repro.core.factory import mechanism_from_spec

    one_shot = mechanism_from_spec(
        spec, epsilon=config.epsilon, domain_size=side
    )
    if one_shot.dims != dims:
        spec = f"grid{dims}d_{one_shot.branching}"
        one_shot = mechanism_from_spec(spec, epsilon=config.epsilon, domain_size=side)
    one_shot.fit_points(points, random_state=config.seed)
    seconds = time.perf_counter() - start
    mse = float(np.mean((one_shot.answer_boxes(boxes) - truth) ** 2))
    rows.append(["one-shot", 1, 1, mse * 1000.0, seconds])

    batches = np.array_split(points, max(int(args.batches), 2))
    for n_shards in args.shards or (2, 4):
        start = time.perf_counter()
        collector = ShardedCollector(
            spec,
            epsilon=config.epsilon,
            domain_size=side,
            n_shards=n_shards,
            random_state=config.seed,
        )
        for batch in batches:
            collector.submit_points(batch)
        reduced = collector.reduce()
        seconds = time.perf_counter() - start
        mse = float(np.mean((reduced.answer_boxes(boxes) - truth) ** 2))
        rows.append(["sharded", n_shards, len(batches), mse * 1000.0, seconds])

    shape = "x".join([str(side)] * dims)
    output = (
        f"{dims}-D grid | {spec} | {shape} | N = {n_users} | "
        "box estimates are shard-count invariant in distribution\n"
        + format_table(["collection", "shards", "batches", "mse x1000", "seconds"], rows)
    )
    if args.checkpoint:
        output += "\n\n" + _run_grid2d_recovery(config, args, spec, side, batches)
    return output


def _run_grid2d_recovery(config, args, spec, side, batches) -> str:
    from repro.streaming import ShardedCollector

    n_shards = (args.shards or (4,))[0]

    def build() -> ShardedCollector:
        return ShardedCollector(
            spec,
            epsilon=config.epsilon,
            domain_size=side,
            n_shards=n_shards,
            random_state=config.seed,
        )

    return _crash_recovery_report(
        build,
        submit=lambda collector, batch: collector.submit_points(batch),
        estimate=lambda mechanism: mechanism.estimate_heatmap(),
        batches=batches,
        checkpoint_path=args.checkpoint,
    )


def build_plan_parser() -> argparse.ArgumentParser:
    """Parser for ``python -m repro plan`` (exposed for testing)."""
    parser = argparse.ArgumentParser(
        prog="python -m repro plan",
        description=(
            "Rank mechanism configurations (family x branching factor x "
            "oracle) by their mean answer variance over a workload and print "
            "the winning factory spec. Planning reads no data, so it carries "
            "no privacy cost."
        ),
    )
    parser.add_argument(
        "--domain", type=int, default=1 << 10,
        help="domain size D (per-axis side length when --dims > 1)",
    )
    parser.add_argument("--dims", type=int, default=1, help="number of axes d")
    parser.add_argument(
        "--users", type=int, default=1 << 17, help="expected population size N"
    )
    parser.add_argument("--epsilon", type=float, default=1.1, help="privacy budget")
    parser.add_argument(
        "--queries",
        type=int,
        default=0,
        help=(
            "size of the random workload planned against, drawn with "
            "--seed (0 = the planner's default: 1024 random ranges, or "
            "boxes when --dims > 1, drawn with seed 0)"
        ),
    )
    parser.add_argument("--seed", type=int, default=20190630, help="workload seed")
    parser.add_argument(
        "--branchings",
        type=int,
        nargs="+",
        default=None,
        help="branching factors to sweep (default 2 4 5 8 16)",
    )
    parser.add_argument(
        "--oracles",
        type=str,
        nargs="+",
        default=None,
        help="frequency oracles to enumerate (default oue)",
    )
    return parser


def _plan_main(argv: Sequence[str]) -> int:
    """``python -m repro plan`` — print the ranked candidate table."""
    from repro.data.workloads import BoxWorkload, random_boxes, random_range_queries
    from repro.planner import DEFAULT_BRANCHINGS, plan

    args = build_plan_parser().parse_args(list(argv))
    workload = None
    if args.queries > 0:
        if args.dims > 1:
            workload = BoxWorkload(
                domain_size=args.domain,
                dims=args.dims,
                queries=random_boxes(
                    args.domain, args.queries, dims=args.dims, random_state=args.seed
                ),
                name=f"random-boxes-{args.queries}",
            )
        else:
            workload = random_range_queries(
                args.domain, args.queries, random_state=args.seed
            )
    chosen = plan(
        workload,
        n_users=args.users,
        epsilon=args.epsilon,
        domain_size=args.domain,
        dims=args.dims,
        branchings=args.branchings or DEFAULT_BRANCHINGS,
        oracles=args.oracles or ("oue",),
    )
    print(chosen.describe())
    print(f"\nchosen spec: {chosen.spec} "
          f"(predicted variance {chosen.predicted_variance:.6e})")
    return 0


def build_serve_parser() -> argparse.ArgumentParser:
    """Parser for ``python -m repro serve`` (exposed for testing)."""
    parser = argparse.ArgumentParser(
        prog="python -m repro serve",
        description=(
            "Run the HTTP service front in the foreground: POST /v1/batches "
            "and /v1/points feed a sharded LDP collector, POST /v1/query and "
            "/v1/quantiles answer over the live state, GET /metrics serves "
            "Prometheus text.  Batches go round-robin across a fixed set of "
            "shards, random streams that all fold into one accumulated state, "
            "so the shard count never changes an estimate's distribution."
        ),
    )
    parser.add_argument("--host", type=str, default="127.0.0.1", help="bind address")
    parser.add_argument(
        "--port", type=int, default=8080, help="TCP port (0 = kernel-assigned)"
    )
    parser.add_argument(
        "--mechanism", type=str, default="hhc_4", help="mechanism spec to collect"
    )
    parser.add_argument("--epsilon", type=float, default=1.1, help="privacy budget")
    parser.add_argument("--domain", type=int, default=1 << 10, help="domain size D")
    parser.add_argument(
        "--shards", type=int, default=2, help="shard count (round-robin random streams)"
    )
    parser.add_argument("--seed", type=int, default=20190630, help="random seed")
    parser.add_argument(
        "--queue-size",
        type=int,
        default=8,
        help="ingest queue capacity per shard (batches)",
    )
    parser.add_argument(
        "--readonly",
        action="store_true",
        help=(
            "serve a read-only replica: POST /v1/batches and /v1/points "
            "answer 405, while the query endpoints stay live"
        ),
    )
    parser.add_argument(
        "--query-cache-size",
        type=int,
        default=None,
        help="answer-cache capacity of the query view (0 disables caching)",
    )
    return parser


def _serve_main(argv: Sequence[str]) -> int:
    """``python -m repro serve`` — foreground HTTP service until Ctrl-C."""
    import signal
    import threading

    from repro.service import HttpServerThread
    from repro.streaming import ShardedCollector

    args = build_serve_parser().parse_args(list(argv))
    # Catch SIGINT via a handler-set event rather than KeyboardInterrupt:
    # an interrupt delivered outside a try block (e.g. while the server is
    # still booting) must still shut down gracefully instead of killing the
    # process mid-drain.  signal.signal only works on the main thread; when
    # embedded elsewhere (tests driving main() from a worker thread) fall
    # back to the interrupt-as-exception path.
    shutdown = threading.Event()
    previous_handler = None
    if threading.current_thread() is threading.main_thread():
        previous_handler = signal.signal(signal.SIGINT, lambda *_: shutdown.set())
    collector = ShardedCollector(
        args.mechanism,
        epsilon=args.epsilon,
        domain_size=args.domain,
        n_shards=args.shards,
        random_state=args.seed,
    )
    server_kwargs = {}
    if args.query_cache_size is not None:
        server_kwargs["query_cache_size"] = args.query_cache_size
    server = HttpServerThread(
        collector,
        host=args.host,
        port=args.port,
        queue_size=args.queue_size,
        readonly=args.readonly,
        **server_kwargs,
    )
    try:
        server.start()
        print(
            f"serving {args.mechanism} (epsilon={args.epsilon}, D={args.domain}, "
            f"{args.shards} shard{'s' if args.shards != 1 else ''}"
            f"{', read-only' if args.readonly else ''}) "
            f"on http://{server.host}:{server.port} — Ctrl-C to stop",
            flush=True,
        )
        while not shutdown.wait(timeout=3600):
            pass
        print("shutting down (draining the ingest queue)...", flush=True)
    except KeyboardInterrupt:
        print("shutting down (draining the ingest queue)...", flush=True)
    finally:
        if previous_handler is not None:
            signal.signal(signal.SIGINT, previous_handler)
        server.stop()
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point; returns a process exit code."""
    arguments = list(sys.argv[1:] if argv is None else argv)
    if arguments and arguments[0] == "serve":
        # The HTTP front owns its flags (--port, --readonly, ...); hand
        # over before the experiment parser rejects them.
        return _serve_main(arguments[1:])
    if arguments and arguments[0] == "lint":
        # The linter has its own argument surface (paths, --format,
        # --baseline, ...); hand over before the experiment parser rejects
        # them.  Imported lazily: linting is a dev/CI surface and the
        # experiment CLI should not pay for it.
        from repro.devtools.lint import main as lint_main

        return lint_main(arguments[1:])
    if arguments and arguments[0] == "plan":
        # The planner has its own argument surface (--dims, --queries,
        # --branchings, ...); hand over before the experiment parser
        # rejects them.
        return _plan_main(arguments[1:])
    parser = build_parser()
    argv = arguments
    args = parser.parse_args(argv)
    config = _config(args)

    runners = {
        "fig4": _run_fig4,
        "table5": lambda c, a: _run_table(c, a, prefix=False),
        "table6": lambda c, a: _run_table(c, a, prefix=True),
        "table7": _run_table7,
        "fig8": _run_fig8,
        "fig9": _run_fig9,
        "ablation-sampling": _run_ablation_sampling,
        "ablation-consistency": _run_ablation_consistency,
        "streaming": _run_streaming,
        "grid2d": _run_grid2d,
    }
    print(runners[args.experiment](config, args))
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    raise SystemExit(main())
