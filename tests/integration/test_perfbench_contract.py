"""The library surface the repository benchmark (``perfbench/``) relies on.

``perfbench/`` changes only together with the benchmark itself, so a
library change that renames what it calls breaks it silently until the
benchmark's own self-test runs.  These checks import its ``harness`` and
``layers`` modules read-only (no bytecode is written next to them) and pin
three things: the collector its servers and replays build accepts the
calls the replays make, every attribute a traced run wraps exists on its
owner, and ``submit`` reports the shard that absorbed a batch.
"""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

PERFBENCH = Path(__file__).resolve().parents[2] / "perfbench"


def _load(name: str):
    """Import ``perfbench/<name>.py`` under a private module name."""
    spec = importlib.util.spec_from_file_location(
        f"_perfbench_{name}", PERFBENCH / f"{name}.py"
    )
    module = importlib.util.module_from_spec(spec)
    writes_bytecode = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = writes_bytecode
        del sys.modules[spec.name]
    return module


@pytest.fixture(scope="module")
def harness():
    return _load("harness")


@pytest.fixture(scope="module")
def layers():
    return _load("layers")


def test_replay_calls_are_accepted(harness):
    collector = harness.new_collector("haar", 64, 3)
    batch = np.arange(64)
    for shard in range(collector.n_shards):
        assert collector.submit(batch, shard=shard, mode="per_user") == shard
    assert collector.reduce().n_users == 64 * collector.n_shards

    grid = harness.new_collector("grid2d_2", 8, 3)
    points = np.stack([np.arange(8), np.arange(8)[::-1]], axis=1)
    assert grid.submit_points(points, shard=1) == 1
    assert grid.reduce().answer_boxes(np.array([[0, 7, 0, 7]]))[0] > 0


def test_submit_returns_the_round_robin_shard(harness):
    collector = harness.new_collector("hhc_4", 64, 5)
    placements = [collector.submit(np.arange(10)) for _ in range(2 * collector.n_shards)]
    assert placements == [index % collector.n_shards for index in range(len(placements))]
    assert collector.submit(np.arange(10), shard=0) == 0


@pytest.mark.parametrize("targets", ["server_targets", "runner_targets", "client_targets"])
def test_every_traced_attribute_exists_on_its_owner(layers, targets):
    missing = [
        f"{getattr(owner, '__name__', owner)}.{attribute}"
        for owner, attribute, *_ in getattr(layers, targets)()
        if attribute not in vars(owner)
    ]
    assert missing == []
