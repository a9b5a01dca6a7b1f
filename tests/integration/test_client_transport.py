"""Tests for :class:`ServiceClient`'s socket transport.

Three kinds of peer stand in for the server:

* a fake socket that replays scripted response bytes in hypothesis-chosen
  ``recv`` chunks (framing, typed errors, ``Connection: close``);
* a scripted localhost server that counts the requests it reads, for the
  retry rule — a request is re-sent only when a *reused* keep-alive
  connection dies before any response byte arrives;
* the real :class:`HttpServerThread`, where the client must agree with
  :class:`http.client.HTTPConnection` on status, body bytes and
  ``Retry-After`` for every response kind the service produces.
"""

import json
import socket
import threading
import time
from http.client import HTTPConnection

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import ProtocolError, ReproError
from repro.service import HttpServerThread, ServiceClient, ServiceResponse
from repro.service.client import MAX_HEAD_BYTES
from repro.streaming import ShardedCollector

DOMAIN = 64
EPSILON = 1.0


# ----------------------------------------------------------------------
# Fake socket: replays response bytes in fixed chunks
# ----------------------------------------------------------------------
class ReplaySocket:
    """Socket stand-in: records what is sent, answers with ``chunks``."""

    def __init__(self, chunks):
        self.chunks = [bytes(chunk) for chunk in chunks if chunk]
        self.sent = []
        self.closed = False

    def sendall(self, data):
        self.sent.append(bytes(data))

    def recv_into(self, buffer):
        if not self.chunks:
            return 0
        chunk = self.chunks[0]
        count = min(len(chunk), len(buffer))
        buffer[:count] = chunk[:count]
        if count == len(chunk):
            self.chunks.pop(0)
        else:
            self.chunks[0] = chunk[count:]
        return count

    def close(self):
        self.closed = True


def client_over(chunks):
    """A client whose kept connection is a :class:`ReplaySocket`."""
    client = ServiceClient("127.0.0.1", 9)
    client._connection = ReplaySocket(chunks)
    return client


def response_bytes(status=200, body=b"", fields=()):
    head = f"HTTP/1.1 {status} Whatever\r\nContent-Length: {len(body)}\r\n"
    head += "".join(f"{name}: {value}\r\n" for name, value in fields)
    return (head + "\r\n").encode("latin-1") + body


def split_at(data, cuts):
    edges = [0] + sorted(set(cut for cut in cuts if 0 < cut < len(data))) + [len(data)]
    return [data[start:stop] for start, stop in zip(edges, edges[1:])]


@st.composite
def scripted_responses(draw):
    status = draw(st.sampled_from([200, 202, 400, 404, 409, 503]))
    size = draw(st.sampled_from([0, 1, 17, 4096, MAX_HEAD_BYTES - 1, MAX_HEAD_BYTES + 5, 200_000]))
    body = (bytes(range(256)) * (size // 256 + 1))[:size]
    fields = draw(
        st.lists(
            st.sampled_from(
                [
                    ("Content-Type", "application/json"),
                    ("Retry-After", "1"),
                    ("retry-after", "0.25"),
                    ("X-Repro-Generation", "7"),
                    ("Connection", "keep-alive"),
                ]
            ),
            unique_by=lambda field: field[0].lower(),
            max_size=3,
        )
    )
    data = response_bytes(status, body, fields)
    head_end = data.index(b"\r\n\r\n")
    cuts = draw(st.lists(st.integers(1, len(data) - 1), max_size=6))
    # Always consider splitting inside the blank line that ends the head.
    cuts += draw(st.lists(st.sampled_from([head_end + 1, head_end + 2, head_end + 3]), max_size=2))
    return data, cuts


class TestFraming:
    @settings(max_examples=80, deadline=None)
    @given(case=scripted_responses())
    def test_any_chunking_yields_the_same_response(self, case):
        data, cuts = case
        whole = client_over([data])._request("GET", "/healthz")
        split = client_over(split_at(data, cuts))
        assert split._request("GET", "/healthz") == whole
        assert split._connection is not None  # keep-alive: socket kept
        body = data[data.index(b"\r\n\r\n") + 4 :]
        assert whole.body == body and isinstance(whole.body, bytes)

    def test_request_is_one_send_with_host_and_length(self):
        client = client_over([response_bytes(202, b"{}")])
        client._request("POST", "/v1/batches", {"items": [1, 2]})
        sent = client._connection.sent
        assert len(sent) == 1
        head, _, body = sent[0].partition(b"\r\n\r\n")
        lines = head.decode("latin-1").split("\r\n")
        assert lines[0] == "POST /v1/batches HTTP/1.1"
        assert "Host: 127.0.0.1:9" in lines
        assert "Content-Type: application/json" in lines
        assert f"Content-Length: {len(body)}" in lines
        assert json.loads(body) == {"items": [1, 2]}

    def test_retry_after_is_parsed_and_garbage_ignored(self):
        ok = client_over([response_bytes(503, b"{}", [("Retry-After", "2")])])
        assert ok._request("GET", "/healthz").retry_after == 2.0
        bad = client_over([response_bytes(503, b"{}", [("Retry-After", "soon")])])
        assert bad._request("GET", "/healthz").retry_after is None

    def test_connection_close_is_honoured(self):
        client = client_over([response_bytes(200, b"{}", [("Connection", "close")])])
        replay = client._connection
        assert client._request("GET", "/healthz") == ServiceResponse(200, b"{}")
        assert replay.closed and client._connection is None

    @pytest.mark.parametrize(
        "data",
        [
            b"HTTP/2 200 OK\r\nContent-Length: 0\r\n\r\n",
            b"HTTP/1.0 200 OK\r\nContent-Length: 0\r\n\r\n",
            b"HTTP/1.1 2x0 OK\r\nContent-Length: 0\r\n\r\n",
            b"HTTP/1.1 2000 OK\r\nContent-Length: 0\r\n\r\n",
            b"garbage\r\n\r\n",
            b"HTTP/1.1 200 OK\r\n\r\n",
            b"HTTP/1.1 200 OK\r\nContent-Length: +2\r\n\r\n{}",
            b"HTTP/1.1 200 OK\r\nContent-Length: 2_0\r\n\r\n{}",
            b"HTTP/1.1 200 OK\r\nContent-Length: \xb2\r\n\r\n{}",
            b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\nContent-Length: 3\r\n\r\n{}",
            b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n2\r\n{}\r\n0\r\n\r\n",
            b"HTTP/1.1 200 OK\r\nContent-Length : 2\r\n\r\n{}",
            b"HTTP/1.1 200 OK\r\nno colon here\r\nContent-Length: 2\r\n\r\n{}",
            b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\n{}extra",
            b"HTTP/1.1 200 OK\r\nContent-Length: 5\r\n\r\n{}",
            b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\n",
            b"HTTP/1.1 200 OK\r\nX-Pad: " + b"a" * MAX_HEAD_BYTES,
        ],
        ids=[
            "http2", "http1.0", "non-digit-status", "long-status", "no-status-line",
            "missing-length", "plus-length", "underscore-length", "latin1-digit-length",
            "conflicting-lengths", "chunked", "space-before-colon", "no-colon",
            "surplus-bytes", "eof-in-body", "eof-in-head", "head-too-large",
        ],
    )
    def test_malformed_responses_raise_typed_errors(self, data):
        client = client_over([data])
        replay = client._connection
        with pytest.raises(ProtocolError) as raised:
            client._request("GET", "/healthz")
        assert isinstance(raised.value, ReproError)
        # Nothing is re-sent once response bytes have arrived.
        assert len(replay.sent) == 1
        assert replay.closed and client._connection is None


# ----------------------------------------------------------------------
# Scripted localhost server: counts what it reads
# ----------------------------------------------------------------------
class ScriptedServer:
    """Serves one script per accepted connection, each on its own thread.

    A script is a list of actions, one per request read: ``"answer"``
    (a 202), ``"drop"`` (close unanswered), ``"stall"`` (hold the
    connection open, unanswered, past the client's timeout) or
    ``"partial"`` (send a few head bytes, then close).  After its last
    action a connection is closed, like an idle keep-alive the server
    reaped.  Connections beyond the scripts play ``["drop"]``, so an
    unexpected resend is still read and counted.
    """

    def __init__(self, scripts, stall_seconds=1.0):
        self.scripts = list(scripts)
        self.stall_seconds = stall_seconds
        self.requests = 0
        self.connections = 0
        self._lock = threading.Lock()
        self._listener = socket.create_server(("127.0.0.1", 0))
        self._listener.settimeout(0.05)
        self._done = threading.Event()
        self._threads = [threading.Thread(target=self._serve, daemon=True)]

    @property
    def address(self):
        return self._listener.getsockname()[:2]

    def __enter__(self):
        self._threads[0].start()
        return self

    def __exit__(self, *exc):
        self._done.set()
        self._threads[0].join(timeout=10)
        for thread in self._threads[1:]:
            thread.join(timeout=10)
        self._listener.close()

    def _serve(self):
        while not self._done.is_set():
            try:
                connection, _ = self._listener.accept()
            except socket.timeout:
                continue
            with self._lock:
                self.connections += 1
                script = self.scripts.pop(0) if self.scripts else ["drop"]
            thread = threading.Thread(target=self._play, args=(connection, script))
            self._threads.append(thread)
            thread.start()

    @staticmethod
    def _read_request(connection):
        data = b""
        while b"\r\n\r\n" not in data:
            chunk = connection.recv(65536)
            if not chunk:
                return False
            data += chunk
        head, _, body = data.partition(b"\r\n\r\n")
        length = 0
        for line in head.split(b"\r\n")[1:]:
            name, _, value = line.partition(b":")
            if name.strip().lower() == b"content-length":
                length = int(value)
        while len(body) < length:
            body += connection.recv(65536)
        return True

    def _play(self, connection, script):
        with connection:
            for action in script:
                if not self._read_request(connection):
                    return
                with self._lock:
                    self.requests += 1
                if action == "answer":
                    connection.sendall(response_bytes(202, b'{"accepted":1}'))
                elif action == "drop":
                    return
                elif action == "stall":
                    self._done.wait(self.stall_seconds)
                    return
                elif action == "partial":
                    connection.sendall(b"HTTP/1.1 20")
                    return


class TestRetryRule:
    def test_reused_connection_reaped_while_idle_is_resent_once(self):
        with ScriptedServer([["answer"], ["answer"]]) as server:
            with ServiceClient(*server.address, timeout=5) as client:
                assert client.post_batch([1]).status == 202
                time.sleep(0.05)  # the server has closed the kept socket
                assert client.post_batch([2]).status == 202
        assert (server.connections, server.requests) == (2, 2)

    def test_timeout_is_never_resent(self):
        with ScriptedServer([["answer", "stall"]], stall_seconds=2.0) as server:
            client = ServiceClient(*server.address, timeout=0.3)
            assert client.post_batch([1]).status == 202
            with pytest.raises(socket.timeout):
                client.post_batch([2])
            assert client._connection is None
            time.sleep(0.3)
        assert (server.connections, server.requests) == (1, 2)

    def test_fresh_connection_dropped_unanswered_raises(self):
        with ScriptedServer([["drop"], ["answer"]]) as server:
            client = ServiceClient(*server.address, timeout=5)
            with pytest.raises(ConnectionError):
                client.post_batch([1])
            time.sleep(0.1)
        assert (server.connections, server.requests) == (1, 1)

    def test_failure_after_response_bytes_is_not_resent(self):
        with ScriptedServer([["answer", "partial"], ["answer"]]) as server:
            client = ServiceClient(*server.address, timeout=5)
            assert client.post_batch([1]).status == 202
            with pytest.raises(ProtocolError):
                client.post_batch([2])
            time.sleep(0.1)
        assert (server.connections, server.requests) == (1, 2)

    def test_resend_happens_at_most_once(self):
        """A reused socket dropped unanswered earns one resend; when the
        fresh connection fails the same way, the error surfaces."""
        with ScriptedServer([["answer", "drop"], ["drop"], ["answer"]]) as server:
            client = ServiceClient(*server.address, timeout=5)
            assert client.post_batch([1]).status == 202
            with pytest.raises(ConnectionError):
                client.post_batch([2])
            time.sleep(0.1)
        assert (server.connections, server.requests) == (2, 3)

    @pytest.mark.parametrize(
        "error, resent",
        [(BrokenPipeError(), True), (ConnectionResetError(), True), (socket.timeout(), False)],
    )
    def test_only_a_failed_send_that_is_not_a_timeout_redials(self, error, resent):
        class FailingSocket(ReplaySocket):
            def sendall(self, data):
                raise error

        with ScriptedServer([["answer"]]) as server:
            client = ServiceClient(*server.address, timeout=5)
            client._connection = FailingSocket([])
            if resent:
                assert client.post_batch([1]).status == 202
            else:
                with pytest.raises(socket.timeout):
                    client.post_batch([1])
            client.close()
            time.sleep(0.1)
        assert (server.connections, server.requests) == ((1, 1) if resent else (0, 0))

    def test_send_on_a_locally_closed_socket_redials(self):
        with ScriptedServer([["answer"], ["answer"]]) as server:
            client = ServiceClient(*server.address, timeout=5)
            assert client.post_batch([1]).status == 202
            client._connection.close()
            assert client.post_batch([2]).status == 202
            client.close()
        assert (server.connections, server.requests) == (2, 2)


# ----------------------------------------------------------------------
# Equivalence with http.client on the real server
# ----------------------------------------------------------------------
def make_collector():
    return ShardedCollector(
        "hhc_4", epsilon=EPSILON, domain_size=DOMAIN, n_shards=1, random_state=5
    )


def reference(connection, method, path, body=None, headers=None):
    connection.request(method, path, body=body, headers=headers or {})
    response = connection.getresponse()
    header = response.getheader("Retry-After")
    try:
        retry_after = float(header) if header is not None else None
    except ValueError:
        retry_after = None
    return ServiceResponse(response.status, response.read(), retry_after)


def wait_absorbed(server):
    for _ in range(500):
        stats = server.stats()
        if stats["absorbed_batches"] == stats["submitted_batches"]:
            return
        time.sleep(0.01)
    raise AssertionError("batches were not absorbed in time")


def without_request_metrics(body):
    """``/metrics`` minus the per-request families, which count the
    comparison's own requests."""
    return [line for line in body.decode().splitlines() if "repro_http_" not in line]


JSON = {"Content-Type": "application/json"}
NPY = "application/x-npy"
EXCHANGES = [
    ("POST", "/v1/batches", b'{"items":[1,2,3,60]}', JSON),
    ("POST", "/v1/batches", b'{"items":[1,2', JSON),
    ("POST", "/v1/batches", b'{"items":[1],"epsilon":3.0}', JSON),
    ("GET", "/v1/batches", None, None),
    ("GET", "/v2/nowhere", None, None),
    ("POST", "/v1/query", b'{"ranges":[[0,9],[3,40]]}', JSON),
    ("POST", "/v1/query", b'{"ranges":[[0,9],[3,40]]}', {**JSON, "Accept": NPY}),
    ("POST", "/v1/quantiles", b'{"phis":[0.5]}', {**JSON, "Accept": NPY}),
    ("POST", "/v1/points", b"\x93NUMPY garbage", {"Content-Type": NPY}),
    ("GET", "/healthz", None, None),
]


class TestEquivalenceWithHttpClient:
    def test_every_response_kind_matches(self):
        statuses = set()
        with HttpServerThread(make_collector()) as server:
            reference_connection = HTTPConnection(*server.address, timeout=10)
            with ServiceClient(*server.address) as client:
                assert client.post_batch(np.arange(DOMAIN)).status == 202
                for method, path, body, headers in EXCHANGES:
                    wait_absorbed(server)
                    ours = client._request(method, path, body=body, headers=headers)
                    wait_absorbed(server)
                    theirs = reference(reference_connection, method, path, body, headers)
                    assert ours == theirs, (method, path)
                    statuses.add(ours.status)
                ours = client._request("GET", "/metrics")
                theirs = reference(reference_connection, "GET", "/metrics")
                assert (ours.status, ours.retry_after) == (theirs.status, theirs.retry_after)
                assert without_request_metrics(ours.body) == without_request_metrics(theirs.body)
            reference_connection.close()
        assert statuses == {200, 202, 400, 404, 405, 409}

    def test_backpressure_503_matches(self, parked_worker):
        collector = make_collector()
        release = parked_worker
        body = b'{"items":[1,2,3]}'
        try:
            with HttpServerThread(collector, queue_size=1) as server:
                reference_connection = HTTPConnection(*server.address, timeout=10)
                with ServiceClient(*server.address) as client:
                    for _ in range(4):
                        ours = client._request("POST", "/v1/batches", body=body, headers=JSON)
                        if ours.status == 503:
                            break
                    theirs = reference(reference_connection, "POST", "/v1/batches", body, JSON)
                    assert ours.status == 503 and ours.retry_after == 1.0
                    assert ours == theirs
                    release.set()
                reference_connection.close()
        finally:
            release.set()
