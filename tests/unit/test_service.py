"""Unit tests for repro.service: round-robin placement and async ingestion."""

import asyncio
import importlib

import numpy as np
import pytest

from repro.exceptions import (
    ConfigurationError,
    InvalidQueryError,
    ServiceOverloadedError,
)
from repro.service import (
    IngestionService,
    ServiceClient,
    render_ingestion_stats,
    run_ingestion,
)
from repro.streaming import ShardedCollector

DOMAIN = 64
EPSILON = 1.0


@pytest.fixture
def items(rng):
    return rng.integers(0, DOMAIN, size=40_000)


def make_collector(n_shards=4, spec="flat_oue", seed=0):
    return ShardedCollector(
        spec,
        epsilon=EPSILON,
        domain_size=DOMAIN,
        n_shards=n_shards,
        random_state=seed,
    )


class TestRoundRobin:
    def test_explicit_submission_does_not_move_the_cursor(self):
        collector = make_collector()
        assert collector.next_shard() == 0
        assert collector.next_shard() == 1
        collector.submit(np.arange(10, dtype=np.int64) % DOMAIN, shard=3)
        assert collector.next_shard() == 2

    @pytest.mark.parametrize("router", [None, "round-robin"])
    def test_round_robin_is_the_accepted_router(self, router):
        collector = ShardedCollector(
            "flat_oue", epsilon=EPSILON, domain_size=DOMAIN, n_shards=2,
            router=router,
        )
        assert collector.next_shard() == 0

    @pytest.mark.parametrize(
        "router", ["hash", "least-loaded", "least_loaded", "rr", "random-teleport"]
    )
    def test_other_routers_are_configuration_errors(self, router):
        with pytest.raises(ConfigurationError, match=router):
            ShardedCollector(
                "flat_oue", epsilon=EPSILON, domain_size=DOMAIN, router=router
            )


class TestIngestionService:
    def test_requires_collector(self):
        with pytest.raises(ConfigurationError):
            IngestionService("not a collector")

    def test_validates_queue_size(self):
        collector = make_collector()
        with pytest.raises(ConfigurationError):
            IngestionService(collector, queue_size=0)

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
        collector = make_collector(spec="hhc_4")
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

    @pytest.mark.parametrize("n_shards", [1, 3])
    def test_submit_places_batches_round_robin(self, items, n_shards):
        collector = make_collector(n_shards=n_shards)
        batches = np.array_split(items[:7000], 7)

        async def scenario():
            async with IngestionService(collector) as service:
                return [await service.submit(batch) for batch in batches]

        placements = asyncio.run(scenario())
        assert placements == [i % n_shards for i in range(7)]
        # Each batch was absorbed with its placement's stream: a pinned
        # synchronous replay reduces bit for bit like the service's run.
        replay = make_collector(n_shards=n_shards)
        for batch, shard in zip(batches, placements):
            replay.submit(batch, shard=shard)
        assert collector.n_users == sum(batch.size for batch in batches)
        np.testing.assert_array_equal(
            collector.reduce().estimate_frequencies(),
            replay.reduce().estimate_frequencies(),
        )

    def test_backpressure_bounds_queue_depth(self, items):
        """The one queue holds ``n_shards * queue_size`` batches; a blocking
        producer waits for room instead of growing it."""
        collector = make_collector()
        batches = np.array_split(items, 32)

        async def scenario():
            async with IngestionService(collector, queue_size=2) as service:
                await asyncio.gather(*(service.submit(batch) for batch in batches))
            return service.stats()

        stats = asyncio.run(scenario())
        assert stats["absorbed_batches"] == len(batches)
        assert stats["queue_capacity"] == collector.n_shards * 2
        assert stats["queue_peak"] == collector.n_shards * 2

    def test_stats_carry_no_kernel_backend(self):
        # One kernel implementation: no backend identity to report.
        assert "kernel_backend" not in IngestionService(make_collector()).stats()

    def test_stats_exposes_queue_and_view_counters(self, items):
        collector = make_collector(spec="hhc_4")
        service = IngestionService(collector)

        # Safe before start: no queue yet, all counters zero.
        idle = service.stats()
        assert idle["started"] is False
        assert idle["submitted_batches"] == 0
        assert idle["queue_depth"] == 0
        assert idle["queue_capacity"] == collector.n_shards * 8
        assert idle["views_built"] == idle["view_generation"] == 0

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
        # Ingestion is pure accumulation: every absorbed batch bumped the
        # collector's generation, and no read view was built.
        assert collector.ingest_generation == len(batches)
        assert stats["views_built"] == 0
        assert not any(key.startswith("materializations") for key in stats)
        assert stats["queue_depth"] == 0  # drained by join()
        assert 1 <= stats["queue_peak"] <= collector.n_shards * 4
        # One flat dictionary: no per-shard list, no second copy of totals.
        assert all(not isinstance(value, (dict, list)) for value in stats.values())

        # Reading a reduced mechanism leaves the collector's state alone.
        collector.reduce().estimate_frequencies()
        assert collector.ingest_generation == len(batches)

    def test_read_view_is_keyed_on_the_collector_generation(self, items):
        """One view per ingest generation: reads between writes reuse it,
        and ``view_generation`` names the generation it was built at."""
        collector = make_collector(spec="hhc_4")
        batches = np.array_split(items[:3000], 3)

        async def scenario():
            async with IngestionService(collector) as service:
                await service.submit(batches[0])
                await service.submit(batches[1])
                await service.join()
                first = await service.refresh_query_view()
                assert await service.refresh_query_view() is first
                assert service.view_generation == collector.ingest_generation == 2
                # The accepted batch is still queued: the read drains it.
                await service.submit(batches[2])
                second = await service.refresh_query_view()
                assert second is not first
                assert service.view_generation == 3
                return service.stats(), first, second

        stats, first, second = asyncio.run(scenario())
        assert stats["views_built"] == 2
        assert stats["view_generation"] == 3
        assert first.n_users == batches[0].size + batches[1].size
        np.testing.assert_array_equal(
            second.estimate_frequencies(), collector.reduce().estimate_frequencies()
        )

    def test_invalid_batch_rejected_at_submit_without_placement(self, items):
        """Validation precedes placement: a bad batch spends no round-robin
        decision."""
        collector = make_collector()

        async def scenario():
            async with IngestionService(collector) as service:
                with pytest.raises(InvalidQueryError):
                    await service.submit(np.array([DOMAIN + 7]))  # out of domain
                with pytest.raises(InvalidQueryError):
                    await service.submit(np.array([1.5, 2.5]))    # float dtype
                with pytest.raises(InvalidQueryError):
                    service.try_submit(np.array([DOMAIN + 7]))

        asyncio.run(scenario())
        assert collector.next_shard() == 0

    def test_try_submit_bounces_a_full_queue(self, items):
        """With no await between submissions the worker never runs, so the
        queue fills deterministically at ``n_shards * queue_size``
        batches; a bounced batch still spends its round-robin decision."""
        collector = make_collector(n_shards=2)

        async def scenario():
            async with IngestionService(collector, queue_size=1) as service:
                assert service.try_submit(items[:10]) == 0
                assert service.try_submit(items[10:20]) == 1
                with pytest.raises(ServiceOverloadedError, match="2 batches"):
                    service.try_submit(items[20:50])
                with pytest.raises(ServiceOverloadedError, match="retry later"):
                    service.try_submit(items[50:60])
                stats = service.stats()
                await service.join()
                assert service.try_submit(items[60:70]) == 0
            return stats

        stats = asyncio.run(scenario())
        assert stats["rejected_batches"] == 2
        assert stats["rejected_users"] == 40
        assert stats["submitted_batches"] == 2
        assert stats["queue_depth"] == stats["queue_peak"] == 2
        assert collector.n_batches == 3

    @pytest.mark.parametrize("n_shards, queue_size", [(1, 3), (3, 2)])
    def test_full_queue_refuses_the_next_batch_and_absorbs_nothing(
        self, items, n_shards, queue_size
    ):
        """The one queue takes exactly ``n_shards * queue_size`` batches;
        the next ``try_submit`` is refused without touching any shard or
        the absorbed-users counter, and the refused batch never lands."""
        collector = make_collector(n_shards=n_shards)
        capacity = n_shards * queue_size
        batches = np.array_split(items[: 100 * (capacity + 3)], capacity + 3)

        def shard_state():
            return collector.ingest_generation, collector.n_users

        def absorbed_line(service):
            return next(
                line for line in render_ingestion_stats(service.stats()).splitlines()
                if line.startswith("repro_ingest_absorbed_users_total ")
            )

        async def scenario():
            async with IngestionService(collector, queue_size=queue_size) as service:
                # Absorb two batches first, so "unchanged" is not all zeros.
                await service.submit(batches[0])
                await service.submit(batches[1])
                await service.join()
                for batch in batches[2 : 2 + capacity]:
                    service.try_submit(batch)
                assert service.stats()["queue_depth"] == capacity
                shards, absorbed = shard_state(), absorbed_line(service)
                with pytest.raises(ServiceOverloadedError):
                    service.try_submit(batches[-1])
                assert shard_state() == shards
                assert absorbed_line(service) == absorbed
                assert absorbed == (
                    "repro_ingest_absorbed_users_total "
                    f"{batches[0].size + batches[1].size}"
                )
            return service.stats()

        stats = asyncio.run(scenario())
        accepted = batches[: 2 + capacity]
        assert stats["rejected_batches"] == 1
        assert stats["rejected_users"] == batches[-1].size
        assert stats["absorbed_batches"] == len(accepted)
        assert collector.n_users == sum(batch.size for batch in accepted)

    def test_worker_errors_surface_on_join(self, items, monkeypatch):
        """A batch failing *inside* the worker is re-raised on drain."""
        collector = make_collector()
        monkeypatch.setattr(
            collector,
            "submit",
            lambda *a, **k: (_ for _ in ()).throw(InvalidQueryError("absorb failed")),
        )

        async def scenario():
            async with IngestionService(collector) as service:
                await service.submit(items[:100])

        with pytest.raises(InvalidQueryError, match="absorb failed"):
            asyncio.run(scenario())

    def test_stop_surfaces_dead_worker_exceptions(self, items, monkeypatch):
        """Regression: stop() used to gather worker results with
        ``return_exceptions=True`` and discard them, so a worker task that
        died of anything but cancellation looked like a clean shutdown.
        stop() must complete the teardown and then re-raise the failure."""
        collector = make_collector()
        boom = RuntimeError("ingest worker died")

        async def dying_worker(self):
            raise boom

        # Simulate a worker task killed by a plumbing bug (not by a bad
        # batch, which the worker catches and reports via join()).
        monkeypatch.setattr(IngestionService, "_worker", dying_worker)

        async def scenario():
            service = await IngestionService(collector).start()
            await asyncio.sleep(0)  # let the dying task reach its exception
            with pytest.raises(RuntimeError, match="ingest worker died"):
                await service.stop()
            # Teardown still completed, and the failure is kept for
            # post-mortem inspection alongside batch errors.
            assert not service.started
            assert service._worker_task is None
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
            collector,
            "submit",
            lambda *a, **k: (_ for _ in ()).throw(InvalidQueryError("absorb failed")),
        )
        holder = {}

        async def scenario():
            service = IngestionService(collector)
            holder["service"] = service
            async with service:
                await service.submit(items[:100])

        with pytest.raises(InvalidQueryError):
            asyncio.run(scenario())
        service = holder["service"]
        assert not service.started
        assert service._worker_task is None


class TestRunIngestion:
    @pytest.mark.parametrize("n_producers", [1, 3])
    def test_matches_population_and_accuracy(self, items, n_producers):
        collector = make_collector(spec="hhc_4")
        report = run_ingestion(
            collector,
            np.array_split(items, 12),
            n_producers=n_producers,
            queue_size=3,
        )
        assert report.n_users == items.size == collector.n_users
        assert report.n_producers == n_producers
        assert report.users_per_second > 0
        truth = np.mean((items >= 10) & (items <= 50))
        merged = collector.reduce()
        assert merged.answer_range(10, 50) == pytest.approx(truth, abs=0.08)

    def test_validates_inputs(self, items):
        collector = make_collector()
        with pytest.raises(ConfigurationError):
            run_ingestion(collector, [items], n_producers=0)

    def test_rejected_inside_running_loop(self, items):
        async def scenario():
            run_ingestion(make_collector(), [items[:100]])

        with pytest.raises(ConfigurationError, match="running event loop"):
            asyncio.run(scenario())


class TestRemovedPlacementKnobs:
    """Routers, the autoscaler and the aggregation thread pool are gone:
    merging is exact, so placement never changes an estimate, and none of
    them showed a measured win."""

    @pytest.mark.parametrize(
        "module", ["repro.streaming.routing", "repro.service.autoscale"]
    )
    def test_modules_are_not_importable(self, module):
        with pytest.raises(ImportError):
            importlib.import_module(module)

    def test_thread_pool_option_is_gone(self):
        with pytest.raises(TypeError):
            IngestionService(make_collector(), parallelism=1)
        with pytest.raises(TypeError):
            run_ingestion(make_collector(), [np.arange(4)], parallelism=1)

    def test_routing_keys_are_gone(self, items):
        collector = make_collector()
        with pytest.raises(TypeError):
            collector.submit(items[:10], key="tenant")
        with pytest.raises(TypeError):
            run_ingestion(collector, [items[:10]], keys=["tenant"])

    def test_client_sends_no_routing_key(self, items):
        # Arguments bind before any connection is opened, so no server is needed.
        client = ServiceClient("127.0.0.1", 9)
        for post in (client.post_batch, client.post_points, client.post_batch_retrying):
            with pytest.raises(TypeError):
                post(items[:10], key="tenant")

    def test_scaling_surfaces_are_gone(self):
        collector = make_collector()
        for name in ("route", "release_route", "add_shards", "shrink_to",
                     "stream_ids", "streams_spawned", "router"):
            assert not hasattr(collector, name), name
        assert not hasattr(IngestionService, "scale_to")


@pytest.mark.parametrize("module", ["repro", "repro.service"])
def test_collect_across_processes_not_exported(module):
    # The in-process ShardedCollector is the one collection fan-out.
    package = importlib.import_module(module)
    assert not hasattr(package, "collect_across_processes")
    assert "collect_across_processes" not in getattr(package, "__all__", ())
