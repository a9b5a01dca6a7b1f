"""Integration tests for the HTTP ingestion front.

Each test boots a real :class:`HttpServerThread` (service + asyncio HTTP
server on a dedicated loop thread) on an ephemeral port and talks to it
over loopback TCP with :class:`ServiceClient` — or a raw ``http.client``
connection when the test needs to send bytes the client refuses to
produce (malformed JSON, wrong paths).

Covered error paths, per the network-tier contract: malformed JSON → 400,
epsilon/domain disagreement with the served spec → 409, queue overload →
503 with ``Retry-After``; and ``reduce()`` after a run over the wire must be
bit-identical to an in-process replay pinned by each 202's ``shard``.
"""

import json
import re
import signal
import subprocess
import sys
import time
from http.client import HTTPConnection

import numpy as np
import pytest

from repro.exceptions import ConfigurationError, ServiceOverloadedError
from repro.service import HttpServerThread, ServiceClient
from repro.streaming import ShardedCollector

DOMAIN = 64
EPSILON = 1.0


def make_collector(n_shards=2, seed=7, spec="flat_oue", domain=DOMAIN):
    return ShardedCollector(
        spec,
        epsilon=EPSILON,
        domain_size=domain,
        n_shards=n_shards,
        random_state=seed,
    )


def stats_after_absorbing(server, n_batches, attempts=200):
    """Poll until the service has absorbed ``n_batches`` (acceptance is
    acknowledged before absorption completes, so a freshly-202'd batch may
    still be in flight toward its shard)."""
    for _ in range(attempts):
        stats = server.stats()
        if stats["totals"]["absorbed_batches"] >= n_batches:
            return stats
        time.sleep(0.01)
    raise AssertionError(
        f"service absorbed {stats['totals']['absorbed_batches']} of "
        f"{n_batches} accepted batches"
    )


def raw_request(server, method, path, body=None, headers=None):
    """One request outside ServiceClient's guardrails; returns
    ``(status, headers_dict, body_bytes)``."""
    connection = HTTPConnection(server.host, server.port, timeout=10)
    try:
        connection.request(method, path, body=body, headers=headers or {})
        response = connection.getresponse()
        return response.status, dict(response.getheaders()), response.read()
    finally:
        connection.close()


class TestHappyPath:
    def test_healthz_reports_served_spec(self):
        with HttpServerThread(make_collector()) as server:
            with ServiceClient(*server.address) as client:
                health = client.healthz().json()
        assert health["status"] == "ok"
        assert health["shards"] == 2
        assert health["spec"] == "flat_oue"
        assert health["epsilon"] == pytest.approx(EPSILON)
        assert health["domain_size"] == DOMAIN

    def test_accepted_batches_are_absorbed_and_reduce(self, rng):
        batches = [rng.integers(0, DOMAIN, size=500) for _ in range(6)]
        server = HttpServerThread(make_collector(seed=13))
        with server:
            with ServiceClient(*server.address) as client:
                for index, batch in enumerate(batches):
                    response = client.post_batch(batch)
                    assert response.status == 202
                    assert response.json() == {"accepted": 500, "shard": index % 2}
            stats = server.stats()
        assert stats["totals"]["absorbed_batches"] == 6
        assert stats["totals"]["absorbed_users"] == 3000
        estimate = server.reduce().estimate_frequencies()
        assert estimate.shape == (DOMAIN,)

    def test_points_endpoint_feeds_the_2d_grid(self, rng):
        side = 16
        collector = make_collector(spec="grid2d_2", domain=side, n_shards=2)
        points = rng.integers(0, side, size=(800, 2))
        server = HttpServerThread(collector)
        with server:
            with ServiceClient(*server.address) as client:
                response = client.post_points(points)
                assert response.status == 202
            stats = server.stats()
        assert stats["totals"]["absorbed_users"] == 800
        server.reduce()  # merged grid must materialise cleanly

    def test_matching_spec_claims_are_accepted(self, rng):
        with HttpServerThread(make_collector()) as server:
            with ServiceClient(*server.address) as client:
                response = client.post_batch(
                    rng.integers(0, DOMAIN, size=50),
                    epsilon=EPSILON,
                    domain_size=DOMAIN,
                )
                assert response.status == 202


class TestMetricsEndpoint:
    SAMPLE_RE = re.compile(
        r"^[a-zA-Z_:][a-zA-Z0-9_:]*"
        r'(\{[a-zA-Z_][a-zA-Z0-9_]*="[^"]*"(,[a-zA-Z_][a-zA-Z0-9_]*="[^"]*")*\})?'
        r" (-?[0-9.e+-]+|\+Inf|-Inf|NaN)$"
    )

    def test_metrics_is_valid_prometheus_text(self, rng):
        server = HttpServerThread(make_collector())
        with server:
            with ServiceClient(*server.address) as client:
                for _ in range(3):
                    client.post_batch(rng.integers(0, DOMAIN, size=100))
                text = client.metrics()
                status, headers, _ = raw_request(server, "GET", "/metrics")
        assert status == 200
        assert headers["Content-Type"].startswith("text/plain; version=0.0.4")
        for line in text.strip().split("\n"):
            if line.startswith("# HELP ") or line.startswith("# TYPE "):
                continue
            assert self.SAMPLE_RE.match(line), f"malformed line: {line!r}"
        assert "repro_ingest_submitted_batches_total 3" in text
        assert "repro_ingest_submitted_users_total 300" in text
        # The scrape itself is instrumented alongside the ingest counters.
        assert 'repro_http_requests_total{method="POST",path="/v1/batches",status="202"} 3' in text
        assert 'repro_http_request_seconds_bucket{path="/v1/batches",le="+Inf"} 3' in text


class TestErrorPaths:
    def test_malformed_json_is_400(self):
        with HttpServerThread(make_collector()) as server:
            status, _, body = raw_request(
                server,
                "POST",
                "/v1/batches",
                body=b'{"items": [1, 2',
                headers={"Content-Type": "application/json"},
            )
        assert status == 400
        assert b"malformed JSON" in body

    def test_non_object_body_is_400(self):
        with HttpServerThread(make_collector()) as server:
            status, _, _ = raw_request(
                server, "POST", "/v1/batches", body=b"[1, 2, 3]"
            )
        assert status == 400

    def test_epsilon_mismatch_is_409(self, rng):
        with HttpServerThread(make_collector()) as server:
            with ServiceClient(*server.address) as client:
                response = client.post_batch(
                    rng.integers(0, DOMAIN, size=10), epsilon=EPSILON * 2
                )
        assert response.status == 409
        assert "epsilon" in response.json()["error"]

    def test_domain_mismatch_is_409(self, rng):
        with HttpServerThread(make_collector()) as server:
            with ServiceClient(*server.address) as client:
                response = client.post_batch(
                    rng.integers(0, DOMAIN, size=10), domain_size=DOMAIN * 2
                )
        assert response.status == 409
        assert "domain" in response.json()["error"]

    def test_out_of_domain_items_are_400(self):
        with HttpServerThread(make_collector()) as server:
            with ServiceClient(*server.address) as client:
                response = client.post_batch([0, 1, DOMAIN + 5])
        assert response.status == 400

    @pytest.mark.parametrize(
        "path, payload",
        [
            ("/v1/batches", {"items": [0.5, 3.9]}),
            ("/v1/batches", {"items": [True, False, 3]}),
            ("/v1/batches", {"items": [3, 1.0]}),
            ("/v1/batches", {"items": ["3"]}),
            ("/v1/points", {"points": [[0.5, 1], [2, 3]]}),
            ("/v1/points", {"points": [[True, 1], [2, 3]]}),
        ],
    )
    def test_non_integer_json_batches_are_400_and_absorb_nothing(
        self, rng, path, payload
    ):
        """JSON floats and bools are refused, not truncated to integers:
        the batch gets a 400 before a round-robin decision is spent, and
        no shard's generation or user count moves."""
        collector = make_collector(spec="grid2d_2", domain=8)
        with HttpServerThread(collector) as server:
            with ServiceClient(*server.address) as client:
                assert client.post_points([[1, 2]]).json()["shard"] == 0
                before = stats_after_absorbing(server, 1)
                status, _, body = raw_request(
                    server, "POST", path, body=json.dumps(payload).encode()
                )
                assert status == 400, body
                assert b"must be an array of integers" in body
                assert b"quer" not in body
                after = server.stats()
                assert client.post_points([[3, 4]]).json()["shard"] == 1
        assert after["totals"] == before["totals"]
        for field in ("ingest_generation", "users", "batches"):
            assert [entry[field] for entry in after["per_shard"]] == [
                entry[field] for entry in before["per_shard"]
            ]

    def test_unknown_path_404_wrong_method_405(self):
        with HttpServerThread(make_collector()) as server:
            status_404, _, _ = raw_request(server, "GET", "/v1/nope")
            status_405, _, _ = raw_request(server, "GET", "/v1/batches")
        assert status_404 == 404
        assert status_405 == 405

    def test_points_on_a_1d_mechanism_is_400(self, rng):
        with HttpServerThread(make_collector(spec="flat_oue")) as server:
            with ServiceClient(*server.address) as client:
                response = client.post_points(rng.integers(0, 8, size=(10, 2)))
        assert response.status == 400
        assert "point surface" in response.json()["error"]


class TestBackpressure:
    def test_overload_is_503_with_retry_after(self, rng, parked_workers):
        """Deterministic overload: the workers are parked while the event
        loop keeps answering, a 1-slot queue fills, and the next batch must
        bounce with 503 + Retry-After.  Releasing the workers drains the
        queue and the same batch goes through on retry."""
        collector = make_collector(n_shards=1)
        release = parked_workers
        batch = rng.integers(0, DOMAIN, size=100)
        server = HttpServerThread(collector, queue_size=1)
        try:
            with server:
                with ServiceClient(*server.address) as client:
                    statuses = []
                    rejected = None
                    for _ in range(4):
                        response = client.post_batch(batch)
                        statuses.append(response.status)
                        if response.status == 503:
                            rejected = response
                            break
                    assert rejected is not None, f"no 503 in {statuses}"
                    assert rejected.retry_after is not None
                    assert rejected.retry_after >= 1
                    assert "retry" in rejected.json()["error"].lower()

                    release.set()
                    retried = client.post_batch_retrying(batch)
                    assert retried.status == 202

                accepted = statuses.count(202) + 1
                stats = stats_after_absorbing(server, accepted)
        finally:
            release.set()  # never leave the worker parked on failure
        # The retrying client may catch one more 503 racing the drain, so
        # the rejection count is a floor, not an exact figure.
        rejections = stats["totals"]["rejected_batches"]
        assert rejections >= 1
        assert stats["totals"]["rejected_users"] == 100 * rejections
        assert stats["totals"]["absorbed_batches"] == accepted
        assert stats["per_shard"][0]["rejected"] == rejections

    def test_retrying_client_gives_up_eventually(self, rng, parked_workers):
        collector = make_collector(n_shards=1)
        release = parked_workers
        batch = rng.integers(0, DOMAIN, size=50)
        server = HttpServerThread(collector, queue_size=1)
        try:
            with server:
                with ServiceClient(*server.address) as client:
                    # Fill the queue.
                    while client.post_batch(batch).status == 202:
                        pass
                    with pytest.raises(ServiceOverloadedError):
                        client.post_batch_retrying(
                            batch, max_attempts=3, max_sleep=0.01
                        )
                    # Unpark absorption *before* stop() so the drain-on-exit
                    # doesn't sit out the event's full timeout.
                    release.set()
        finally:
            release.set()


class TestStaticShardsOverHttp:
    def test_http_run_reduces_bit_identically_to_pinned_replay(self, rng):
        """The acceptance contract over the wire: a 2-shard run driven over
        HTTP reduces bit-identically to an in-process collector with the
        same seed, every batch pinned to the shard its 202 reported."""
        batches = [rng.integers(0, DOMAIN, size=400) for _ in range(18)]
        collector = make_collector(n_shards=2, seed=29)
        server = HttpServerThread(collector, queue_size=8)
        placements = []
        with server:
            with ServiceClient(*server.address) as client:
                for batch in batches:
                    response = client.post_batch_retrying(batch)
                    assert response.status == 202
                    placements.append(response.json()["shard"])
            final = server.stats()

        assert final["totals"]["absorbed_batches"] == len(batches)
        assert placements == [index % 2 for index in range(len(batches))]

        replay = make_collector(n_shards=2, seed=29)
        for batch, shard in zip(batches, placements):
            replay.submit(batch, shard=shard)
        assert np.array_equal(
            server.reduce().estimate_frequencies(),
            replay.reduce().estimate_frequencies(),
        )


class TestFraming:
    def test_oversized_body_is_413(self):
        with HttpServerThread(make_collector()) as server:
            payload = b'{"items": [' + b"1," * 9 + b"1]}"
            status, _, _ = raw_request(
                server,
                "POST",
                "/v1/batches",
                body=payload,
                headers={"Content-Length": str(64 * 1024 * 1024)},
            )
        assert status == 413

    def test_bad_content_length_is_400(self):
        with HttpServerThread(make_collector()) as server:
            connection = HTTPConnection(server.host, server.port, timeout=10)
            try:
                connection.putrequest("POST", "/v1/batches", skip_host=False)
                connection.putheader("Content-Length", "not-a-number")
                connection.endheaders()
                response = connection.getresponse()
                assert response.status == 400
            finally:
                connection.close()

    def test_reduce_refused_while_serving(self, rng):
        server = HttpServerThread(make_collector())
        with server:
            with ServiceClient(*server.address) as client:
                client.post_batch(rng.integers(0, DOMAIN, size=100))
            with pytest.raises(ConfigurationError, match="stop"):
                server.reduce()
        server.reduce()  # fine once stopped and drained


class TestServeCommand:
    def test_serve_accepts_traffic_and_stops_on_sigint(self, rng):
        """`python -m repro serve` end to end: boot on an ephemeral port,
        parse the banner for the bound address, ingest a batch over the
        wire, then SIGINT for a clean drain-and-exit."""
        # The with block closes the stdout pipe the banner is read from.
        with subprocess.Popen(
            [
                sys.executable, "-m", "repro", "serve",
                "--port", "0", "--domain", "64", "--shards", "2",
                "--mechanism", "flat_oue", "--epsilon", "1.0",
            ],
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
        ) as process:
            try:
                banner = process.stdout.readline()
                match = re.search(r"http://([\d.]+):(\d+)", banner)
                assert match, f"no address in banner: {banner!r}"
                host, port = match.group(1), int(match.group(2))
                with ServiceClient(host, port) as client:
                    assert client.healthz().json()["status"] == "ok"
                    response = client.post_batch(rng.integers(0, 64, size=200))
                    assert response.status == 202
                process.send_signal(signal.SIGINT)
                assert process.wait(timeout=30) == 0
            finally:
                if process.poll() is None:
                    process.kill()
                    process.wait(timeout=10)


class TestClientRobustness:
    def test_client_reconnects_after_server_side_close(self, rng):
        """Keep-alive connections die when the peer restarts between
        requests; the client transparently redials once."""
        collector = make_collector(seed=3)
        server = HttpServerThread(collector)
        with server:
            client = ServiceClient(*server.address)
            assert client.healthz().ok
            # Force the pooled socket stale by closing it server-side:
            # easiest deterministic trigger is closing our own connection.
            client._connection.close()
            assert client.healthz().ok
            client.close()
