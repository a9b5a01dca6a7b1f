"""Integration tests for the HTTP query tier.

Each test boots a real :class:`HttpServerThread` on an ephemeral port and
reads back over loopback TCP: ``POST /v1/query`` (boxes and flattened
ranges), ``POST /v1/quantiles``, the ``application/x-npy`` binary wire
format on both ingest and query responses, ``--readonly`` replicas that
405 the ingest endpoints, the 409-before-data conflict, and the
query-view/answer-cache metric families on ``GET /metrics``.

The load-bearing contract throughout: answers served over the wire are
bit-identical to a local ``reduce()`` of the same collected state.
"""

import io
import json
import time
from http.client import HTTPConnection

import numpy as np
import pytest

from repro.data.workloads import random_boxes
from repro.exceptions import ConfigurationError
from repro.service import HttpServerThread, ServiceClient
from repro.streaming import ShardedCollector

DOMAIN = 64
SIDE = 16
EPSILON = 1.0


def make_collector(n_shards=2, seed=7, spec="flat_oue", domain=DOMAIN):
    return ShardedCollector(
        spec,
        epsilon=EPSILON,
        domain_size=domain,
        n_shards=n_shards,
        random_state=seed,
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


def wait_absorbed(server, n_batches, attempts=200):
    for _ in range(attempts):
        stats = server.stats()
        if stats["totals"]["absorbed_batches"] >= n_batches:
            return stats
        time.sleep(0.01)
    raise AssertionError("batches were not absorbed in time")


@pytest.fixture
def rng():
    return np.random.default_rng(101)


class TestRangeQueries:
    def test_ranges_match_local_reduce_bit_for_bit(self, rng):
        queries = np.sort(rng.integers(0, DOMAIN, size=(10, 2)), axis=1)
        batches = [rng.integers(0, DOMAIN, size=400) for _ in range(4)]
        with HttpServerThread(make_collector(seed=31)) as server:
            with ServiceClient(*server.address) as client:
                for batch in batches:
                    client.post_batch_retrying(batch)
                answers = client.query_ranges(queries)
                again = client.query_ranges(queries)
        local = server.reduce().answer_ranges(queries)
        np.testing.assert_array_equal(answers, local)
        np.testing.assert_array_equal(again, local)

    def test_generation_header_and_json_envelope(self, rng):
        with HttpServerThread(make_collector(seed=32)) as server:
            with ServiceClient(*server.address) as client:
                client.post_batch_retrying(rng.integers(0, DOMAIN, size=300))
            status, headers, body = raw_request(
                server,
                "POST",
                "/v1/query",
                body=json.dumps({"ranges": [[0, 10]]}).encode(),
            )
        assert status == 200
        payload = json.loads(body)
        assert "answers" in payload
        assert int(headers["X-Repro-Generation"]) == payload["generation"] >= 1

    def test_quantiles_match_local_reduce(self, rng):
        batches = [rng.integers(0, DOMAIN, size=400) for _ in range(3)]
        with HttpServerThread(make_collector(seed=33)) as server:
            with ServiceClient(*server.address) as client:
                for batch in batches:
                    client.post_batch_retrying(batch)
                quantiles = client.query_quantiles((0.25, 0.5, 0.75))
        assert quantiles == server.reduce().quantiles((0.25, 0.5, 0.75))

    def test_reads_see_writes_landed_between_queries(self, rng):
        """The query view refreshes at materialization boundaries: a write
        after the first read must be visible to the second."""
        with HttpServerThread(make_collector(seed=34)) as server:
            with ServiceClient(*server.address) as client:
                client.post_batch_retrying(rng.integers(0, DOMAIN, size=500))
                wait_absorbed(server, 1)
                first_generation = int(
                    raw_request(
                        server, "POST", "/v1/query",
                        body=json.dumps({"ranges": [[0, 31]]}).encode(),
                    )[1]["X-Repro-Generation"]
                )
                client.post_batch_retrying(rng.integers(0, DOMAIN, size=500))
                wait_absorbed(server, 2)
                second_generation = int(
                    raw_request(
                        server, "POST", "/v1/query",
                        body=json.dumps({"ranges": [[0, 31]]}).encode(),
                    )[1]["X-Repro-Generation"]
                )
                stats = server.stats()
        assert second_generation > first_generation
        assert stats["query"]["views_built"] >= 2


class TestBoxQueries:
    def test_boxes_match_local_reduce_bit_for_bit(self, rng):
        points = rng.integers(0, SIDE, size=(1500, 2))
        boxes = random_boxes(SIDE, 8, dims=2, random_state=35)
        collector = make_collector(seed=36, spec="grid2d_2", domain=SIDE)
        with HttpServerThread(collector) as server:
            with ServiceClient(*server.address) as client:
                client.post_points(points)
                answers = client.query_boxes(boxes)
                binary = client.query_boxes(boxes, binary=True)
        local = server.reduce().answer_boxes(boxes)
        np.testing.assert_array_equal(answers, local)
        np.testing.assert_array_equal(binary, local)

    def test_boxes_on_flat_mechanism_rejected(self, rng):
        with HttpServerThread(make_collector(seed=37)) as server:
            with ServiceClient(*server.address) as client:
                client.post_batch_retrying(rng.integers(0, DOMAIN, size=300))
                with pytest.raises(ConfigurationError, match="no box surface"):
                    client.query_boxes([[0, 3, 0, 3]])


class TestBinaryWire:
    def test_npy_ingest_and_npy_answers(self, rng):
        points = rng.integers(0, SIDE, size=(1200, 2))
        boxes = random_boxes(SIDE, 6, dims=2, random_state=38)
        collector = make_collector(seed=39, spec="grid2d_2", domain=SIDE)
        with HttpServerThread(collector) as server:
            with ServiceClient(*server.address) as client:
                response = client.post_points(points, binary=True)
                assert response.status == 202
                status, headers, body = raw_request(
                    server,
                    "POST",
                    "/v1/query",
                    body=json.dumps({"boxes": boxes.tolist()}).encode(),
                    headers={"Accept": "application/x-npy"},
                )
        assert status == 200
        assert headers["Content-Type"] == "application/x-npy"
        answers = np.load(io.BytesIO(body), allow_pickle=False)
        np.testing.assert_array_equal(answers, server.reduce().answer_boxes(boxes))

    def test_binary_quantiles(self, rng):
        with HttpServerThread(make_collector(seed=40)) as server:
            with ServiceClient(*server.address) as client:
                client.post_batch_retrying(rng.integers(0, DOMAIN, size=400))
                values = client.query_quantiles((0.1, 0.9), binary=True)
        assert values == server.reduce().quantiles((0.1, 0.9))

    def test_malformed_npy_body_is_400(self, rng):
        with HttpServerThread(make_collector(seed=41, spec="grid2d_2", domain=SIDE)) as server:
            status, _, _ = raw_request(
                server,
                "POST",
                "/v1/points",
                body=b"not an npy payload",
                headers={"Content-Type": "application/x-npy"},
            )
        assert status == 400

    def test_binary_mode_refuses_json_envelope_fields(self):
        with HttpServerThread(make_collector(spec="grid2d_2", domain=SIDE)) as server:
            with ServiceClient(*server.address) as client:
                with pytest.raises(ConfigurationError):
                    client.post_points([[0, 0]], mode="per_user", binary=True)


class TestReadonlyReplica:
    def test_ingest_endpoints_are_405(self, rng):
        with HttpServerThread(make_collector(seed=42), readonly=True) as server:
            status_batches, _, body = raw_request(
                server, "POST", "/v1/batches",
                body=json.dumps({"items": [1, 2]}).encode(),
            )
            status_points, _, _ = raw_request(
                server, "POST", "/v1/points",
                body=json.dumps({"points": [[1, 2]]}).encode(),
            )
        assert status_batches == 405
        assert status_points == 405
        assert b"read-only" in body

    def test_health_and_queries_stay_live(self):
        with HttpServerThread(make_collector(seed=43), readonly=True) as server:
            with ServiceClient(*server.address) as client:
                assert client.healthz().status == 200
                # No data yet: a valid query conflicts with the empty state.
                status, _, _ = raw_request(
                    server, "POST", "/v1/query",
                    body=json.dumps({"ranges": [[0, 1]]}).encode(),
                )
        assert status == 409


class TestErrorPaths:
    def test_query_before_any_data_is_409(self):
        with HttpServerThread(make_collector(seed=44)) as server:
            status, _, _ = raw_request(
                server, "POST", "/v1/query",
                body=json.dumps({"ranges": [[0, 1]]}).encode(),
            )
        assert status == 409

    def test_query_requires_exactly_one_of_boxes_or_ranges(self, rng):
        with HttpServerThread(make_collector(seed=45)) as server:
            with ServiceClient(*server.address) as client:
                client.post_batch_retrying(rng.integers(0, DOMAIN, size=200))
            neither, _, _ = raw_request(
                server, "POST", "/v1/query", body=json.dumps({}).encode()
            )
            both, _, _ = raw_request(
                server, "POST", "/v1/query",
                body=json.dumps({"ranges": [[0, 1]], "boxes": [[0, 1, 0, 1]]}).encode(),
            )
        assert neither == 400
        assert both == 400

    def test_query_methods_and_payloads_validated(self, rng):
        with HttpServerThread(make_collector(seed=46)) as server:
            with ServiceClient(*server.address) as client:
                client.post_batch_retrying(rng.integers(0, DOMAIN, size=200))
            get_status, _, _ = raw_request(server, "GET", "/v1/query")
            bad_json, _, _ = raw_request(server, "POST", "/v1/query", body=b"{nope")
            bad_bounds, _, _ = raw_request(
                server, "POST", "/v1/query",
                body=json.dumps({"ranges": [[0, "x"]]}).encode(),
            )
            out_of_domain, _, _ = raw_request(
                server, "POST", "/v1/query",
                body=json.dumps({"ranges": [[0, DOMAIN + 9]]}).encode(),
            )
            missing_phis, _, _ = raw_request(
                server, "POST", "/v1/quantiles", body=json.dumps({}).encode()
            )
            bad_phis, _, _ = raw_request(
                server, "POST", "/v1/quantiles",
                body=json.dumps({"phis": [1.7]}).encode(),
            )
        assert get_status == 405
        assert bad_json == 400
        assert bad_bounds == 400
        assert out_of_domain == 400
        assert missing_phis == 400
        assert bad_phis == 400

    def test_non_integer_bounds_are_400_before_any_view_refresh(self, rng):
        """Float, bool and string bounds are refused by the decoder, not
        truncated: ``[[0.5, 10.9]]`` used to be answered as ``[0, 10]`` and
        ``true`` as ``1``.  The refusal comes before the view refresh, so
        it is a 400 even before any data lands (not the 409 of an empty
        server) and builds no view."""
        bad = [
            ("ranges", [[0.5, 10.9]]),
            ("ranges", [[2.0, 10]]),
            ("ranges", [[True, 10]]),
            ("ranges", [[True, False]]),
            ("ranges", [["0", "1"]]),
            ("boxes", [[0, 3, 1.5, 4]]),
        ]

        def ask(server, field, bounds):
            status, _, body = raw_request(
                server, "POST", "/v1/query",
                body=json.dumps({field: bounds}).encode(),
            )
            return status, json.loads(body)["error"]

        with HttpServerThread(make_collector(seed=50)) as server:
            before_data = [ask(server, *case) for case in bad]
            with ServiceClient(*server.address) as client:
                client.post_batch_retrying(rng.integers(0, DOMAIN, size=200))
            wait_absorbed(server, 1)
            with_data = [ask(server, *case) for case in bad]
            stats = server.stats()
        for status, message in before_data + with_data:
            assert status == 400
            assert "query bounds must be integers" in message
        assert stats["query"]["views_built"] == 0

    def test_spec_mismatch_on_query_is_409(self, rng):
        with HttpServerThread(make_collector(seed=47)) as server:
            with ServiceClient(*server.address) as client:
                client.post_batch_retrying(rng.integers(0, DOMAIN, size=200))
            status, _, _ = raw_request(
                server, "POST", "/v1/query",
                body=json.dumps({"ranges": [[0, 1]], "epsilon": EPSILON + 1}).encode(),
            )
        assert status == 409


class TestQueryMetrics:
    def test_cache_and_view_families_exposed(self, rng):
        with HttpServerThread(make_collector(seed=48)) as server:
            with ServiceClient(*server.address) as client:
                client.post_batch_retrying(rng.integers(0, DOMAIN, size=400))
                queries = [[0, 15]]
                client.query_ranges(queries)
                client.query_ranges(queries)  # second read: a cache hit
                text = client.metrics()
                stats = server.stats()
        assert "repro_query_views_built_total 1" in text
        assert "repro_query_cache_hits_total 1" in text
        assert "repro_query_cache_misses_total 1" in text
        assert "repro_query_cache_capacity" in text
        cache = stats["query"]["answer_cache"]
        assert cache["hits"] == 1
        assert cache["misses"] == 1

    def test_query_cache_size_zero_disables_server_side(self, rng):
        with HttpServerThread(make_collector(seed=49), query_cache_size=0) as server:
            with ServiceClient(*server.address) as client:
                client.post_batch_retrying(rng.integers(0, DOMAIN, size=400))
                client.query_ranges([[0, 15]])
                client.query_ranges([[0, 15]])
                stats = server.stats()
        cache = stats["query"]["answer_cache"]
        assert cache["hits"] == 0
        assert cache["maxsize"] == 0
