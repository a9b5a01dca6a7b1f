"""Strict request framing and decoder fuzzing for the HTTP front.

The server reads ``Content-Length`` bodies only (RFC 9112 section 6): the
length must be ASCII digits and agree across duplicate fields, and any
``Transfer-Encoding`` is refused with 411.  A framing error is answered
once and the connection is closed, because the server can no longer tell
where the next request starts.

The fuzz half sends hypothesis-generated heads, JSON payloads and npy
bodies to the ingest and query routes.  Every request must get a typed
4xx or a valid answer (never a 5xx, never a dropped connection), and a
rejected request must leave the absorbed-user counters and every shard's
``ingest_generation`` exactly as they were.

Requests go over raw sockets, because the point is to send bytes no
well-behaved client would produce.
"""

import io
import json
import socket
import time

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.service import HttpServerThread, ServiceClient
from repro.streaming import ShardedCollector

DOMAIN = 64
SIDE = 8
EPSILON = 1.0
NPY = "application/x-npy"
ROUTES = ("/v1/batches", "/v1/points", "/v1/query", "/v1/quantiles")

FUZZ = settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


def make_server(spec, domain, seed):
    collector = ShardedCollector(
        spec,
        epsilon=EPSILON,
        domain_size=domain,
        n_shards=2,
        random_state=seed,
    )
    return HttpServerThread(collector)


def exchange(address, data, timeout=10.0):
    """Send ``data`` on a fresh connection, half-close, and return every
    byte the server sends until it closes its side."""
    with socket.create_connection(address, timeout=timeout) as sock:
        sock.sendall(data)
        sock.shutdown(socket.SHUT_WR)
        chunks = []
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                return b"".join(chunks)
            chunks.append(chunk)


def parse_responses(raw):
    """Split a byte stream into ``(status, fields, body)`` responses."""
    responses = []
    while raw:
        head, separator, rest = raw.partition(b"\r\n\r\n")
        assert separator, f"truncated response head {raw[:80]!r}"
        status_line, *lines = head.decode("latin-1").split("\r\n")
        fields = {}
        for line in lines:
            name, _, value = line.partition(":")
            fields[name.strip().lower()] = value.strip()
        length = int(fields["content-length"])
        assert len(rest) >= length, "truncated response body"
        responses.append((int(status_line.split()[1]), fields, rest[:length]))
        raw = rest[length:]
    return responses


def request_bytes(method, path, fields, body=b""):
    head = f"{method} {path} HTTP/1.1\r\nHost: fuzz\r\n"
    head += "".join(f"{name}: {value}\r\n" for name, value in fields)
    return (head + "\r\n").encode("latin-1") + body


def quiesce(server, attempts=500):
    """Wait until every accepted batch is absorbed; return the state a
    rejected request must not move."""
    for _ in range(attempts):
        stats = server.stats()
        totals = stats["totals"]
        if totals["absorbed_batches"] == totals["submitted_batches"]:
            return (
                totals["submitted_batches"],
                totals["absorbed_users"],
                tuple(shard["ingest_generation"] for shard in stats["per_shard"]),
            )
        time.sleep(0.01)
    raise AssertionError("accepted batches were not absorbed in time")


def send_and_check(server, data):
    """One fuzz exchange: every response typed, no 5xx, and the ingest
    state unmoved unless some response accepted a batch."""
    before = quiesce(server)
    responses = parse_responses(exchange(server.address, data))
    assert responses, "the server closed the connection without answering"
    for status, fields, body in responses:
        assert status < 500, (status, body)
        if status >= 400:
            assert fields["content-type"] == "application/json"
            assert isinstance(json.loads(body)["error"], str)
    if all(status >= 300 for status, _, _ in responses):
        assert quiesce(server) == before
    return responses


@pytest.fixture(scope="module")
def line_server():
    with make_server("hhc_4", DOMAIN, seed=61) as server:
        with ServiceClient(*server.address) as client:
            rng = np.random.default_rng(61)
            assert client.post_batch(rng.integers(0, DOMAIN, 400)).status == 202
        yield server


@pytest.fixture(scope="module")
def grid_server():
    with make_server("grid2d_2", SIDE, seed=62) as server:
        with ServiceClient(*server.address) as client:
            rng = np.random.default_rng(62)
            points = rng.integers(0, SIDE, (400, 2))
            assert client.post_points(points, binary=True).status == 202
        yield server


# ----------------------------------------------------------------------
# Strict framing (each case was accepted or mis-framed before)
# ----------------------------------------------------------------------
BATCH = b'{"items":[1,2,3]}'


class TestStrictFraming:
    @pytest.mark.parametrize("length", ["+17", "1_7", " 17 x", "0x11", "-17", "", "\xb9\xb2"])
    def test_non_digit_content_length_is_400_and_closes(self, line_server, length):
        data = request_bytes(
            "POST", "/v1/batches", [("Content-Length", length)], BATCH
        )
        responses = send_and_check(line_server, data)
        assert [status for status, _, _ in responses] == [400]
        assert responses[0][1]["connection"] == "close"

    def test_conflicting_duplicate_content_length_is_400(self, line_server):
        data = request_bytes(
            "POST",
            "/v1/batches",
            [("Content-Length", "17"), ("Content-Length", "3")],
            BATCH,
        )
        responses = send_and_check(line_server, data)
        assert [status for status, _, _ in responses] == [400]
        assert "Content-Length" in json.loads(responses[0][2])["error"]

    def test_identical_duplicate_content_length_is_accepted(self, line_server):
        data = request_bytes(
            "POST",
            "/v1/batches",
            [("Content-Length", "17"), ("content-length", "17"), ("Connection", "close")],
            BATCH,
        )
        assert [status for status, _, _ in send_and_check(line_server, data)] == [202]

    @pytest.mark.parametrize(
        "fields",
        [
            [("Transfer-Encoding", "chunked")],
            [("Transfer-Encoding", "gzip, chunked"), ("Content-Length", "3")],
            [("Content-Length", "3"), ("Transfer-Encoding", "identity")],
        ],
    )
    def test_transfer_encoding_is_411_and_closes(self, line_server, fields):
        chunked = b"11\r\n" + BATCH + b"\r\n0\r\n\r\n"
        data = request_bytes("POST", "/v1/batches", fields, chunked)
        responses = send_and_check(line_server, data)
        # One answer only: the chunk bytes are never read as a request.
        assert [status for status, _, _ in responses] == [411]
        assert responses[0][1]["connection"] == "close"

    def test_whitespace_before_the_colon_is_400(self, line_server):
        data = request_bytes(
            "POST", "/v1/batches", [("Content-Length ", "17")], BATCH
        )
        assert [status for status, _, _ in send_and_check(line_server, data)] == [400]

    def test_oversized_header_line_is_400(self, line_server):
        data = request_bytes("GET", "/healthz", [("X-Padding", "a" * 70_000)])
        responses = send_and_check(line_server, data)
        assert [status for status, _, _ in responses] == [400]

    def test_framing_error_closes_a_keep_alive_connection(self, line_server):
        """A valid request, then a bad one: both answered on one
        connection, and nothing after the bad one is read."""
        good = request_bytes("GET", "/healthz", [])
        bad = request_bytes("POST", "/v1/batches", [("Content-Length", "+17")], BATCH)
        responses = send_and_check(line_server, good + bad + good)
        assert [status for status, _, _ in responses] == [200, 400]
        assert responses[0][1]["connection"] == "keep-alive"
        assert responses[1][1]["connection"] == "close"


# ----------------------------------------------------------------------
# Fuzzing: heads
# ----------------------------------------------------------------------
_FIELD_TEXT = st.text(
    st.characters(min_codepoint=0x20, max_codepoint=0xFF, exclude_characters="\x7f"),
    max_size=12,
)
_BAD_LENGTHS = ("+1", "1_0", "-1", "", " ", "0x1", "1e1", "²", "1 1", "1,1")


@st.composite
def fuzz_heads(draw):
    """``(request bytes, expected framing status or None)``."""
    method = draw(st.sampled_from(["GET", "POST", "PUT", "DELETE", "HEAD", "post"]))
    path = draw(st.sampled_from(ROUTES + ("/healthz", "/metrics", "/v2/nope", "/v1/query?x=1")))
    body = draw(
        st.binary(max_size=48)
        | st.sampled_from([BATCH, b'{"ranges":[[0,3]]}', b'{"phis":[0.5]}'])
    )
    fields = draw(
        st.lists(
            st.tuples(
                st.sampled_from(
                    ["Content-Type", "Accept", "Connection", "X-Junk",
                     "Transfer-Encoding", "content-TYPE"]
                ),
                st.sampled_from([NPY, "application/json", "close", "keep-alive", "chunked"])
                | _FIELD_TEXT,
            ),
            max_size=4,
        )
    )
    lengths = draw(
        st.lists(
            st.integers(0, len(body)).map(str) | st.sampled_from(_BAD_LENGTHS),
            max_size=2,
        )
    )
    fields += [("Content-Length", length) for length in lengths]
    if draw(st.booleans()):
        fields.append((draw(st.sampled_from([" X-Bad", "X-Bad ", "X Bad"])), "1"))
    fields = draw(st.permutations(fields))
    names = [name for name, _ in fields]
    if any(name != name.strip() for name in names):
        expected = 400
    elif any(name.lower() == "transfer-encoding" for name in names):
        expected = 411
    elif len(set(lengths)) > 1 or any(not (l.isascii() and l.isdigit()) for l in lengths):
        expected = 400
    else:
        expected = None
    return request_bytes(method, path, fields, body), expected


class TestHeadFuzz:
    @FUZZ
    @given(case=fuzz_heads())
    def test_any_head_gets_a_typed_answer(self, line_server, case):
        data, expected = case
        responses = send_and_check(line_server, data)
        if expected is not None:
            assert [status for status, _, _ in responses] == [expected]
            assert responses[0][1]["connection"] == "close"
        for status, fields, _ in responses[:-1]:
            assert fields["connection"] == "keep-alive"


# ----------------------------------------------------------------------
# Fuzzing: JSON payloads
# ----------------------------------------------------------------------
#: Values each decoder must refuse or survive, drawn often enough that
#: every field meets them.
_NASTY = st.sampled_from(
    [float("inf"), float("-inf"), float("nan"), 2**63, -(2**63) - 1, 10**400, 1e300,
     True, "", "1", [], {}]
)
_JSON_SCALARS = (
    _NASTY
    | st.none()
    | st.booleans()
    | st.integers(-(2**70), 2**70)
    | st.integers(-3, DOMAIN + 3)
    | st.floats(allow_nan=True, allow_infinity=True)
    | st.text(max_size=6)
)
_JSON_VALUES = st.recursive(
    _JSON_SCALARS,
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=4), children, max_size=3),
    max_leaves=12,
)
_BOUNDS = st.lists(st.integers(-2, DOMAIN + 2) | _NASTY, min_size=1, max_size=4)
_FIELDS = {
    "items": st.lists(st.integers(-2, DOMAIN + 2) | _NASTY, max_size=8) | _JSON_VALUES,
    "points": st.lists(st.lists(st.integers(-2, SIDE + 2), max_size=3), max_size=6) | _JSON_VALUES,
    "boxes": st.lists(_BOUNDS, max_size=4) | _JSON_VALUES,
    "ranges": st.lists(_BOUNDS, max_size=4) | _JSON_VALUES,
    "phis": st.lists(st.floats(-0.5, 1.5) | st.integers(-1, 2) | _NASTY, max_size=4) | _JSON_VALUES,
    "mode": st.sampled_from(["per_user", "aggregate", "nope"]) | _JSON_VALUES,
    "key": st.integers(-5, 5) | st.text(max_size=4) | _JSON_VALUES,
    "epsilon": st.just(EPSILON) | _NASTY | _JSON_VALUES,
    "domain_size": st.sampled_from([DOMAIN, SIDE, SIDE * SIDE]) | _NASTY | _JSON_VALUES,
}


_ROUTE_FIELDS = {
    "/v1/batches": ["items"],
    "/v1/points": ["points"],
    "/v1/query": ["boxes", "ranges"],
    "/v1/quantiles": ["phis"],
}


@st.composite
def json_requests(draw):
    path = draw(st.sampled_from(ROUTES))
    names = [draw(st.sampled_from(_ROUTE_FIELDS[path]))]
    names += draw(st.lists(st.sampled_from(sorted(_FIELDS)), max_size=3))
    payload = {name: draw(_FIELDS[name]) for name in names}
    if draw(st.sampled_from(["object"] * 9 + ["bare"])) == "bare":
        payload = draw(_JSON_VALUES)
    body = json.dumps(payload).encode("utf-8")
    accept = draw(st.sampled_from([[], [("Accept", NPY)]]))
    fields = accept + [("Content-Type", "application/json"), ("Content-Length", str(len(body)))]
    return request_bytes("POST", path, fields, body)


class TestJsonFuzz:
    @FUZZ
    @given(data=json_requests())
    def test_line_mechanism_answers_every_payload(self, line_server, data):
        assert len(send_and_check(line_server, data)) == 1

    @FUZZ
    @given(data=json_requests())
    def test_grid_mechanism_answers_every_payload(self, grid_server, data):
        assert len(send_and_check(grid_server, data)) == 1


# ----------------------------------------------------------------------
# Fuzzing: npy bodies
# ----------------------------------------------------------------------
_NPY_DTYPES = (
    hnp.integer_dtypes(endianness="=")
    | hnp.unsigned_integer_dtypes(endianness="=")
    | hnp.integer_dtypes(endianness=">")
    | hnp.floating_dtypes()
    | hnp.boolean_dtypes()
)


def npy_bytes(array):
    buffer = io.BytesIO()
    np.save(buffer, array, allow_pickle=False)
    return buffer.getvalue()


def npy_claiming(shape, array):
    """An npy body whose header claims ``shape`` over ``array``'s bytes."""
    buffer = io.BytesIO()
    header = np.lib.format.header_data_from_array_1_0(array)
    header["shape"] = tuple(shape)
    np.lib.format.write_array_header_1_0(buffer, header)
    return buffer.getvalue() + array.tobytes()


@st.composite
def npy_requests(draw):
    array = draw(
        hnp.arrays(
            _NPY_DTYPES,
            hnp.array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=5),
        )
    )
    body = npy_bytes(array)
    mutation = draw(st.sampled_from(["none", "truncate", "flip", "shape"]))
    if mutation == "truncate":
        body = body[: draw(st.integers(0, len(body)))]
    elif mutation == "flip":
        index = draw(st.integers(0, len(body) - 1))
        body = body[:index] + bytes([body[index] ^ draw(st.integers(1, 255))]) + body[index + 1 :]
    elif mutation == "shape":
        # A well-formed header claiming far more data than the body holds.
        claimed = draw(st.sampled_from([(2**40,), (4 * 10**9, 2), (array.size + 1,)]))
        body = npy_claiming(claimed, array)
    path = draw(st.sampled_from(["/v1/batches", "/v1/points"]))
    fields = [("Content-Type", NPY), ("Content-Length", str(len(body)))]
    return request_bytes("POST", path, fields, body)


class TestNpyFuzz:
    @FUZZ
    @given(data=npy_requests())
    def test_line_mechanism_answers_every_body(self, line_server, data):
        assert len(send_and_check(line_server, data)) == 1

    @FUZZ
    @given(data=npy_requests())
    def test_grid_mechanism_answers_every_body(self, grid_server, data):
        assert len(send_and_check(grid_server, data)) == 1

    @pytest.mark.parametrize("claimed", [(2**40,), (4 * 10**9, 2), (5,)])
    def test_header_claiming_more_data_than_sent_is_400(self, line_server, claimed):
        body = npy_claiming(claimed, np.arange(4, dtype=np.int8))
        data = request_bytes(
            "POST", "/v1/batches", [("Content-Type", NPY), ("Content-Length", str(len(body)))], body
        )
        assert [status for status, _, _ in send_and_check(line_server, data)] == [400]


class TestDecoderRegressions:
    """Inputs the fuzzer found that dropped the connection unanswered."""

    @pytest.mark.parametrize(
        "path, payload",
        [
            ("/v1/batches", b'{"items":[1],"domain_size":Infinity}'),
            ("/v1/query", b'{"ranges":[[0,3]],"domain_size":-Infinity}'),
            ("/v1/batches", b'{"items":[1],"epsilon":1' + b"0" * 400 + b"}"),
            ("/v1/quantiles", b'{"phis":[1' + b"0" * 400 + b"]}"),
        ],
        ids=["domain-inf", "domain-minus-inf", "epsilon-1e400", "phis-1e400"],
    )
    def test_overflowing_json_numbers_are_400(self, line_server, path, payload):
        data = request_bytes("POST", path, [("Content-Length", str(len(payload)))], payload)
        assert [status for status, _, _ in send_and_check(line_server, data)] == [400]

    @pytest.mark.parametrize(
        "body",
        [
            npy_bytes(np.arange(4, dtype=np.int64)).replace(b"(4,)", b"(4,(", 1),
            npy_claiming((-1, -1), np.arange(1, dtype=np.int8)),
            npy_bytes(np.arange(4, dtype=np.int64))[:9],
            npy_bytes(np.array([[0, 1], [2, 3]], dtype=np.int64)) + b"trailing",
        ],
        ids=["unbalanced-shape", "negative-shape", "truncated-magic", "trailing-bytes"],
    )
    def test_broken_npy_headers_are_400(self, grid_server, body):
        data = request_bytes(
            "POST", "/v1/points", [("Content-Type", NPY), ("Content-Length", str(len(body)))], body
        )
        assert [status for status, _, _ in send_and_check(grid_server, data)] == [400]
