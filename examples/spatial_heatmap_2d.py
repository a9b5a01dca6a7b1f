"""Two-dimensional range queries: a private spatial density map.

Scenario (the multidimensional extension of Section 6): a mobility provider
wants coarse pick-up density over a city grid — how many trips start inside
any rectangle — without tracking individual riders.  Each trip start is
snapped to a 32 x 32 grid and reported once under local differential
privacy; the aggregator can then answer arbitrary rectangle queries and
render a smoothed heatmap.

Run with:  python examples/spatial_heatmap_2d.py
"""

from __future__ import annotations

import numpy as np

from repro import HierarchicalGrid2D

GRID = 32
N_TRIPS = 400_000
EPSILON = 1.2


def synthetic_trip_origins(random_state: int = 5) -> np.ndarray:
    """Two hotspots (downtown and an airport) plus uniform background."""
    rng = np.random.default_rng(random_state)
    downtown = rng.normal(loc=(10, 12), scale=2.5, size=(int(N_TRIPS * 0.55), 2))
    airport = rng.normal(loc=(25, 6), scale=1.5, size=(int(N_TRIPS * 0.30), 2))
    background = rng.uniform(0, GRID, size=(N_TRIPS - downtown.shape[0] - airport.shape[0], 2))
    points = np.concatenate([downtown, airport, background])
    return np.clip(points.astype(int), 0, GRID - 1)


def main() -> None:
    points = synthetic_trip_origins()

    grid = HierarchicalGrid2D(epsilon=EPSILON, domain_size=GRID, branching=2, oracle="oue")
    grid.fit_points(points, random_state=9)
    print(f"collected {grid.n_users:,} trip reports over a {GRID}x{GRID} grid "
          f"(epsilon = {grid.epsilon})")

    # ------------------------------------------------------------------
    # Rectangle queries: fraction of trips starting inside named zones.
    # ------------------------------------------------------------------
    zones = {
        "downtown core": ((6, 14), (8, 16)),
        "airport area": ((22, 28), (3, 9)),
        "north edge": ((0, 31), (28, 31)),
        "whole city": ((0, 31), (0, 31)),
    }
    print("\nzone densities (fraction of all trips)")
    for name, (x_range, y_range) in zones.items():
        estimate = grid.answer_box((x_range, y_range))
        truth = np.mean(
            (points[:, 0] >= x_range[0]) & (points[:, 0] <= x_range[1])
            & (points[:, 1] >= y_range[0]) & (points[:, 1] <= y_range[1])
        )
        print(f"  {name:14s} estimate={estimate:.4f}  truth={truth:.4f}")

    # ------------------------------------------------------------------
    # A coarse ASCII heatmap from 8x8-cell block queries.
    # ------------------------------------------------------------------
    block = 8
    shades = " .:-=+*#%@"
    print("\nestimated density heatmap (8x8 blocks, darker = denser)")
    densities = np.zeros((GRID // block, GRID // block))
    for by in range(GRID // block - 1, -1, -1):
        row = ""
        for bx in range(GRID // block):
            value = grid.answer_box(
                ((bx * block, (bx + 1) * block - 1), (by * block, (by + 1) * block - 1))
            )
            densities[by, bx] = value
            shade = shades[int(np.clip(value / 0.35, 0, 0.999) * len(shades))]
            row += shade * 2
        print("  " + row)
    print(f"\npeak block density estimate: {densities.max():.3f}")

    # ------------------------------------------------------------------
    # The same workload, collected as a stream across ingestion shards
    # (trips arrive in batches; shard count is invisible to accuracy).
    # ------------------------------------------------------------------
    from repro.streaming import ShardedCollector

    collector = ShardedCollector(
        "grid2d_2", epsilon=EPSILON, domain_size=GRID, n_shards=4, random_state=9
    )
    for batch in np.array_split(points, 24):
        collector.submit_points(batch)
    streamed = collector.reduce()
    x_range, y_range = zones["downtown core"]
    print(
        f"\nstreamed collection ({collector.n_shards} shards, "
        f"{collector.n_batches} batches): downtown core estimate="
        f"{streamed.answer_box((x_range, y_range)):.4f}"
    )


if __name__ == "__main__":
    main()
