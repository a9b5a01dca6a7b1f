"""Shared fixtures for the test suite."""

from __future__ import annotations

import asyncio
import threading
from typing import Iterator

import numpy as np
import pytest

from repro.data.synthetic import cauchy_probabilities, expected_counts


@pytest.fixture
def rng() -> np.random.Generator:
    """A deterministic random generator for stochastic tests."""
    return np.random.default_rng(20190630)


@pytest.fixture
def small_domain() -> int:
    """Domain size used by most unit tests (power of two, power of four)."""
    return 64


@pytest.fixture
def small_counts(small_domain: int) -> np.ndarray:
    """Deterministic Cauchy-shaped counts over the small domain."""
    return expected_counts(cauchy_probabilities(small_domain), 50_000)


@pytest.fixture
def medium_counts() -> np.ndarray:
    """Deterministic Cauchy-shaped counts over a 256-item domain."""
    return expected_counts(cauchy_probabilities(256), 200_000)


@pytest.fixture
def parked_workers(monkeypatch) -> Iterator[threading.Event]:
    """Hold every ingestion worker before it takes its first batch.

    Until the returned event is set, accepted batches stay in the shard
    queues while the event loop keeps answering requests, so a small queue
    fills and the next non-blocking submission bounces deterministically.
    Set the event before the service drains (a ``with`` server's exit).
    """
    from repro.service.ingestion import IngestionService

    release = threading.Event()
    original = IngestionService._worker

    async def parked(self, shard):
        while not release.is_set():
            await asyncio.sleep(0.005)
        await original(self, shard)

    monkeypatch.setattr(IngestionService, "_worker", parked)
    yield release
    release.set()
