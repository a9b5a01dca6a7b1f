"""Unit tests for repro.service: routers and async ingestion."""

import asyncio
import importlib

import numpy as np
import pytest

from repro.exceptions import ConfigurationError, InvalidQueryError
from repro.service import (
    HashRouter,
    IngestionService,
    LeastLoadedRouter,
    RoundRobinRouter,
    make_router,
    run_ingestion,
)
from repro.streaming import ShardedCollector

DOMAIN = 64
EPSILON = 1.0


@pytest.fixture
def items(rng):
    return rng.integers(0, DOMAIN, size=40_000)


def make_collector(router=None, n_shards=4, spec="flat_oue", seed=0):
    return ShardedCollector(
        spec,
        epsilon=EPSILON,
        domain_size=DOMAIN,
        n_shards=n_shards,
        random_state=seed,
        router=router,
    )


class TestRouters:
    def test_make_router_accepts_names_instances_and_none(self):
        assert isinstance(make_router(None), RoundRobinRouter)
        assert isinstance(make_router("round-robin"), RoundRobinRouter)
        assert isinstance(make_router("rr"), RoundRobinRouter)
        assert isinstance(make_router("hash"), HashRouter)
        assert isinstance(make_router("least_loaded"), LeastLoadedRouter)
        custom = LeastLoadedRouter()
        assert make_router(custom) is custom

    def test_make_router_rejects_unknown_policy(self):
        with pytest.raises(ConfigurationError, match="unknown router"):
            make_router("random-teleport")

    def test_unbound_router_refuses_to_route(self):
        with pytest.raises(ConfigurationError, match="not bound"):
            RoundRobinRouter().route(10)

    def test_bind_validates_and_rejects_rebinding(self):
        router = RoundRobinRouter()
        with pytest.raises(ConfigurationError):
            router.bind(0)
        router.bind(3)
        router.bind(3)  # idempotent
        with pytest.raises(ConfigurationError):
            router.bind(5)

    def test_round_robin_cycles(self):
        router = RoundRobinRouter().bind(3)
        assert [router.route(1) for _ in range(7)] == [0, 1, 2, 0, 1, 2, 0]

    def test_hash_router_is_sticky_and_deterministic(self):
        first = HashRouter().bind(8)
        second = HashRouter().bind(8)
        for key in ["user-1", "user-2", 12345, b"device"]:
            assert first.route(10, key=key) == second.route(10, key=key)
            assert first.route(10, key=key) == first.route(99, key=key)

    def test_hash_router_spreads_keyless_batches(self):
        router = HashRouter().bind(4)
        shards = {router.route(1) for _ in range(64)}
        assert len(shards) > 1

    def test_hash_router_rejects_bad_key_type(self):
        router = HashRouter().bind(2)
        with pytest.raises(ConfigurationError):
            router.route(1, key=3.14)

    def test_least_loaded_balances_skewed_batches(self):
        router = LeastLoadedRouter().bind(2)
        shard = router.route(1000)
        router.observe(shard, 1000)
        other = router.route(10)
        assert other != shard
        router.observe(other, 10)
        # Next batch goes to the lighter shard again.
        assert router.route(10) == other

    def test_router_state_round_trip(self):
        router = RoundRobinRouter().bind(3)
        router.route(1)
        restored = RoundRobinRouter().bind(3).load_state_dict(router.state_dict())
        assert restored.route(1) == router.route(1)

        loaded = LeastLoadedRouter().bind(2)
        loaded.observe(0, 500)
        restored = LeastLoadedRouter().bind(2).load_state_dict(loaded.state_dict())
        assert restored.loads == [500, 0]
        with pytest.raises(ConfigurationError):
            LeastLoadedRouter().bind(3).load_state_dict(loaded.state_dict())


class TestCollectorRouting:
    def test_least_loaded_avoids_heavy_shards(self, items):
        collector = make_collector(router="least-loaded")
        sizes = [5000, 100, 100, 100, 5000, 100]
        start = 0
        targets = []
        for size in sizes:
            targets.append(collector.submit(items[start : start + size]))
            start += size
        # The first heavy batch loads one shard; the second heavy batch and
        # every later batch must land elsewhere.
        assert targets[0] not in targets[1:]
        # Equal-sized batches spread over the remaining shards before reuse.
        assert len(set(targets[1:4])) == 3

    def test_hash_routing_pins_keys_to_shards(self, items):
        collector = make_collector(router="hash")
        batches = np.array_split(items, 10)
        first = [collector.submit(batch, key=f"tenant-{i % 2}") for i, batch in enumerate(batches)]
        assert len({shard for i, shard in enumerate(first) if i % 2 == 0}) == 1
        assert len({shard for i, shard in enumerate(first) if i % 2 == 1}) == 1

    def test_route_reserves_a_decision(self):
        collector = make_collector()
        assert collector.route(10) == 0
        assert collector.route(10) == 1
        # Explicit submission does not consult the router.
        collector.submit(np.arange(10, dtype=np.int64) % DOMAIN, shard=3)
        assert collector.route(10) == 2


class TestIngestionService:
    def test_requires_collector(self):
        with pytest.raises(ConfigurationError):
            IngestionService("not a collector")

    def test_validates_queue_size_and_parallelism(self):
        collector = make_collector()
        with pytest.raises(ConfigurationError):
            IngestionService(collector, queue_size=0)
        with pytest.raises(ConfigurationError):
            IngestionService(collector, parallelism=-1)

    def test_submit_requires_started_service(self, items):
        service = IngestionService(make_collector())
        with pytest.raises(ConfigurationError, match="not running"):
            asyncio.run(service.submit(items[:10]))

    def test_double_start_rejected(self):
        async def scenario():
            async with IngestionService(make_collector()) as service:
                with pytest.raises(ConfigurationError, match="already started"):
                    await service.start()

        asyncio.run(scenario())

    def test_concurrent_producers_collect_everything(self, items):
        collector = make_collector(router="least-loaded", spec="hhc_4")
        batches = np.array_split(items, 16)

        async def producer(service, mine):
            for batch in mine:
                await service.submit(batch)

        async def scenario():
            async with IngestionService(collector, queue_size=2) as service:
                await asyncio.gather(
                    *(producer(service, batches[p::4]) for p in range(4))
                )
            return collector.reduce()

        mechanism = asyncio.run(scenario())
        assert mechanism.n_users == items.size
        truth = np.mean((items >= 10) & (items <= 50))
        assert mechanism.answer_range(10, 50) == pytest.approx(truth, abs=0.08)

    def test_backpressure_bounds_queue_depth(self, items):
        collector = make_collector()
        batches = np.array_split(items, 32)

        async def scenario():
            async with IngestionService(collector, queue_size=2) as service:
                for batch in batches:
                    await service.submit(batch)
            return service.shard_stats

        stats = asyncio.run(scenario())
        assert sum(s.batches for s in stats) == len(batches)
        assert all(s.queue_peak <= 2 for s in stats)

    def test_stats_carry_no_kernel_backend(self):
        # One kernel implementation: no backend identity to report.
        assert "kernel_backend" not in IngestionService(make_collector()).stats()

    def test_stats_exposes_queue_and_materialization_counters(self, items):
        collector = make_collector(spec="hhc_4")
        service = IngestionService(collector)

        # Safe before start: no queues yet, all counters zero.
        idle = service.stats()
        assert idle["started"] is False
        assert idle["submitted_batches"] == 0
        assert idle["queue_depths"] == [0] * collector.n_shards
        assert idle["materializations_performed"] == 0

        batches = np.array_split(items, 12)

        async def scenario():
            async with IngestionService(collector, queue_size=4) as running:
                for batch in batches:
                    await running.submit(batch)
                await running.join()
                return running.stats()

        stats = asyncio.run(scenario())
        assert stats["started"] is True
        assert stats["n_shards"] == collector.n_shards
        assert stats["submitted_batches"] == len(batches)
        assert stats["submitted_users"] == items.size
        assert stats["absorbed_batches"] == len(batches)
        assert stats["absorbed_users"] == items.size
        # Ingestion is pure accumulation: every absorbed batch bumped a
        # shard's generation and not a single materialization ran.
        assert stats["materializations_performed"] == 0
        assert stats["materializations_deferred"] == len(batches)
        assert sum(
            entry["ingest_generation"] for entry in stats["per_shard"]
        ) == len(batches)
        for entry in stats["per_shard"]:
            assert entry["queue_depth"] == 0  # drained by join()
            assert entry["queue_peak"] <= 4

        # Reading the reduced mechanism does not touch the shards ...
        collector.reduce().estimate_frequencies()
        after = service.stats()
        assert after["materializations_performed"] == 0
        # ... but reading a shard directly is counted.
        shard = next(s for s in collector.shards if s.is_fitted)
        shard.estimate_frequencies()
        assert service.stats()["materializations_performed"] == 1

    def test_invalid_batch_rejected_at_submit_without_routing(self, items):
        """Validation precedes routing: a bad batch costs no routing state."""
        collector = make_collector(router="least-loaded")

        async def scenario():
            async with IngestionService(collector) as service:
                with pytest.raises(InvalidQueryError):
                    await service.submit(np.array([DOMAIN + 7]))  # out of domain
                with pytest.raises(InvalidQueryError):
                    await service.submit(np.array([1.5, 2.5]))    # float dtype

        asyncio.run(scenario())
        assert collector.router.loads == [0, 0, 0, 0]

    def test_worker_errors_surface_on_join(self, items, monkeypatch):
        """A batch failing *inside* a shard worker is re-raised on drain."""
        collector = make_collector()
        monkeypatch.setattr(
            collector.shards[0],
            "partial_fit",
            lambda *a, **k: (_ for _ in ()).throw(InvalidQueryError("shard died")),
        )

        async def scenario():
            async with IngestionService(collector) as service:
                await service.submit(items[:100])  # routed to shard 0

        with pytest.raises(InvalidQueryError, match="shard died"):
            asyncio.run(scenario())

    def test_stop_surfaces_dead_worker_exceptions(self, items):
        """Regression: stop() used to gather worker results with
        ``return_exceptions=True`` and discard them, so a worker task that
        died of anything but cancellation looked like a clean shutdown.
        stop() must complete the teardown and then re-raise the failure."""
        collector = make_collector()
        boom = RuntimeError("shard worker died")

        async def dying_worker():
            raise boom

        async def scenario():
            service = await IngestionService(collector).start()
            # Simulate a worker task killed by a plumbing bug (not by a bad
            # batch, which the workers catch and report via join()).
            service._workers.append(
                asyncio.get_running_loop().create_task(dying_worker())
            )
            await asyncio.sleep(0)  # let the dying task reach its exception
            with pytest.raises(RuntimeError, match="shard worker died"):
                await service.stop()
            # Teardown still completed, and the failure is kept for
            # post-mortem inspection alongside batch errors.
            assert not service.started
            assert service._workers == []
            assert boom in service._errors

        asyncio.run(scenario())

    def test_stop_without_worker_failures_raises_nothing(self, items):
        """The happy teardown path stays silent (cancellations are not
        failures)."""
        collector = make_collector()

        async def scenario():
            service = await IngestionService(collector).start()
            await service.submit(items[:100])
            await service.join()
            await service.stop()
            assert service._errors == []
            assert not service.started

        asyncio.run(scenario())

    def test_workers_stopped_even_when_exit_raises(self, items, monkeypatch):
        """A failing drain must still tear the service down (no task leak)."""
        collector = make_collector()
        monkeypatch.setattr(
            collector.shards[0],
            "partial_fit",
            lambda *a, **k: (_ for _ in ()).throw(InvalidQueryError("shard died")),
        )
        holder = {}

        async def scenario():
            service = IngestionService(collector, parallelism=1)
            holder["service"] = service
            async with service:
                await service.submit(items[:100])

        with pytest.raises(InvalidQueryError):
            asyncio.run(scenario())
        service = holder["service"]
        assert not service.started
        assert service._workers == [] and service._pool is None

    def test_huge_integer_routing_keys(self, items):
        """128-bit ids (UUID ints) must route, not overflow."""
        import uuid

        collector = make_collector(router="hash")
        key = uuid.UUID("ffffffff-ffff-ffff-ffff-ffffffffffff").int
        first = collector.submit(items[:100], key=key)
        second = collector.submit(items[100:200], key=key)
        assert first == second


class TestRunIngestion:
    @pytest.mark.parametrize("router", ["round-robin", "hash", "least-loaded"])
    @pytest.mark.parametrize("n_producers", [1, 3])
    def test_matches_population_and_accuracy(self, items, router, n_producers):
        collector = make_collector(router=router, spec="hhc_4")
        report = run_ingestion(
            collector,
            np.array_split(items, 12),
            n_producers=n_producers,
            queue_size=3,
        )
        assert report.n_users == items.size == collector.n_users
        assert report.n_producers == n_producers
        assert report.router == router
        assert report.users_per_second > 0
        truth = np.mean((items >= 10) & (items <= 50))
        merged = collector.reduce()
        assert merged.answer_range(10, 50) == pytest.approx(truth, abs=0.08)

    def test_thread_parallelism_path(self, items):
        collector = make_collector(spec="hhc_4")
        report = run_ingestion(
            collector, np.array_split(items, 8), n_producers=2, parallelism=2
        )
        assert report.n_users == items.size
        assert collector.n_batches == 8

    def test_validates_inputs(self, items):
        collector = make_collector()
        with pytest.raises(ConfigurationError):
            run_ingestion(collector, [items], n_producers=0)
        with pytest.raises(ConfigurationError, match="routing keys"):
            run_ingestion(collector, np.array_split(items, 4), keys=["only-one"])

    def test_rejected_inside_running_loop(self, items):
        async def scenario():
            run_ingestion(make_collector(), [items[:100]])

        with pytest.raises(ConfigurationError, match="running event loop"):
            asyncio.run(scenario())

    def test_routing_keys_reach_the_router(self, items):
        collector = make_collector(router="hash")
        batches = np.array_split(items, 8)
        run_ingestion(
            collector, batches, keys=["pin"] * len(batches), n_producers=1
        )
        fitted = [shard for shard in collector.shards if shard.is_fitted]
        assert len(fitted) == 1
        assert fitted[0].n_users == items.size


@pytest.mark.parametrize("module", ["repro", "repro.service"])
def test_collect_across_processes_not_exported(module):
    # The in-process ShardedCollector is the one collection fan-out.
    package = importlib.import_module(module)
    assert not hasattr(package, "collect_across_processes")
    assert "collect_across_processes" not in getattr(package, "__all__", ())
