"""The library surface the repository benchmark (``perfbench/``) relies on.

``perfbench/`` changes only together with the benchmark itself, so a
library change that renames what it calls breaks it silently until the
benchmark's own self-test runs.  These checks import its ``harness`` and
``layers`` modules read-only (no bytecode is written next to them) and pin
four things: the collector its servers and replays build accepts the
calls the replays make, every attribute a traced run wraps exists on its
owner, every oracle's ``estimate`` and ``encode_batch`` are among those
attributes, and ``submit`` reports the shard that absorbed a batch.
"""

from __future__ import annotations

import importlib.util
import inspect
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


def _resolved_owner(cls, attribute):
    """The class in ``cls``'s MRO whose ``__dict__`` defines ``attribute``."""
    return next(base for base in cls.__mro__ if attribute in vars(base))


def _concrete_subclasses(cls):
    found, stack = [], [cls]
    while stack:
        for sub in stack.pop().__subclasses__():
            stack.append(sub)
            if not inspect.isabstract(sub) and sub not in found:
                found.append(sub)
    return found


def test_every_oracle_estimate_and_encode_is_traced(layers):
    """perfbench finds these targets through ``cls.__dict__`` of subclasses,
    so a method hoisted into an abstract base would silently drop its
    span for every oracle that inherits it."""
    from repro.frequency_oracles import OracleAccumulator, available_oracles, make_oracle

    traced = {(owner, attribute) for owner, attribute, *_ in layers.library_targets()}
    untraced = [
        f"{cls.__name__}.estimate"
        for cls in _concrete_subclasses(OracleAccumulator)
        if (_resolved_owner(cls, "estimate"), "estimate") not in traced
    ]
    for name in available_oracles():
        cls = type(make_oracle(name, epsilon=1.0, domain_size=8))
        if (_resolved_owner(cls, "encode_batch"), "encode_batch") not in traced:
            untraced.append(f"{cls.__name__}.encode_batch")
    assert untraced == []
