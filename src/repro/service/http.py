"""Stdlib-asyncio HTTP front for the ingestion service.

The network tier the ROADMAP asked for, built on ``asyncio.start_server``
only — no web framework, because the surface is four routes and the repo's
rule is stdlib + numpy:

* ``POST /v1/batches`` — JSON ``{"items": [...], "mode"?, "epsilon"?,
  "domain_size"?}``; placed on the next round-robin shard and queued on
  the :class:`~repro.service.IngestionService`'s one ingest queue via the
  non-blocking :meth:`~repro.service.IngestionService.try_submit` path,
  answered ``202 {"accepted", "shard"}``.  A full queue surfaces as
  ``503`` with a ``Retry-After`` hint instead of parking the remote
  producer.
* ``POST /v1/points`` — JSON ``{"points": [[x, y], ...]}`` for grid
  mechanisms; :meth:`~repro.streaming.ShardedCollector.flatten_points`
  flattens them to row-major items before a round-robin decision is
  spent.  Both submit endpoints also accept a raw ``application/x-npy``
  body (the batch array itself, no JSON envelope) — the binary fast path
  that skips JSON encode/decode.  Either way a batch must hold integers:
  JSON floats and bools get a 400 instead of being truncated.
* ``POST /v1/query`` — JSON ``{"boxes": [[a1, b1, ...], ...]}`` or
  ``{"ranges": [[a, b], ...]}``; answered from the service's reduced +
  materialized read view (rebuilt only when the collector's
  ``ingest_generation`` moves) with concurrent requests micro-batched
  through :class:`~repro.service.query.QueryCoalescer`.  ``Accept:
  application/x-npy`` negotiates a binary response body.
* ``POST /v1/quantiles`` — JSON ``{"phis": [0.5, ...]}``, same view and
  content negotiation; targets must be numbers in ``[0, 1]`` (strings and
  bools get a 400 before any view refresh).
* ``GET /healthz`` — liveness JSON.
* ``GET /metrics`` — Prometheus text exposition (version 0.0.4): the
  service's :meth:`~repro.service.IngestionService.stats` snapshot plus
  the server's own request counters and latency histogram, rendered by
  :mod:`repro.service.metrics`.

Error mapping is deliberate: malformed JSON / bad report payloads → 400,
``epsilon`` or ``domain_size`` claims that contradict the served spec →
409 (the producer and server disagree about the protocol — retrying won't
help), backpressure → 503 + ``Retry-After``.  Bodies are framed by
``Content-Length`` alone (RFC 9112 section 6): a non-digit or conflicting
length → 400, any ``Transfer-Encoding`` → 411; a framing error is
answered once and the connection closed.

:class:`HttpServerThread` packages service + server on a dedicated
event-loop thread so synchronous tests, benchmarks and the
``python -m repro serve`` CLI can stand up a real localhost endpoint with
two lines.
"""

from __future__ import annotations

import asyncio
import io
import json
import math
import threading
import time
from tokenize import TokenError
from typing import Any, Dict, Mapping, Optional, Tuple

import numpy as np

from repro.core.base import integer_queries
from repro.core.cache import DEFAULT_ANSWER_CACHE_SIZE
from repro.core.quantiles import quantile_targets
from repro.exceptions import (
    ConfigurationError,
    InvalidQueryError,
    NotFittedError,
    ReproError,
    ServiceOverloadedError,
)
from repro.service.ingestion import IngestionService
from repro.service.metrics import (
    MetricsRegistry,
    ingestion_stats_lines,
)
from repro.service.query import QueryCoalescer
from repro.streaming.sharded import ShardedCollector

__all__ = ["HttpServerThread", "ReproHttpServer"]

#: Bound on accepted request bodies; a batch of a million int64 item ids
#: rendered as JSON stays well under this.
MAX_BODY_BYTES = 16 * 1024 * 1024

#: Retry hint (seconds) attached to every 503.  Small on purpose: the
#: queue is short and drains in milliseconds; the value is a pacing nudge,
#: not an outage estimate.
RETRY_AFTER_SECONDS = 1

_JSON = "application/json"
_PROM = "text/plain; version=0.0.4; charset=utf-8"
#: Binary wire format: one ``.npy`` serialized array as the whole body
#: (``numpy.save``/``numpy.load`` with ``allow_pickle=False``).  Accepted
#: as a request Content-Type on the submit endpoints and negotiated as a
#: response type on the query endpoints via the Accept header.
_NPY = "application/x-npy"
#: npy format versions whose header the server reads itself (``np.save``
#: writes 1.0 for integer arrays; 2.0 only for headers over 64 KiB).
_NPY_HEADER_READERS = {
    (1, 0): np.lib.format.read_array_header_1_0,
    (2, 0): np.lib.format.read_array_header_2_0,
}

#: Path label used for unknown routes so 404 floods cannot mint unbounded
#: label cardinality in the request counter.
_OTHER_PATH = "<other>"
_KNOWN_PATHS = (
    "/v1/batches",
    "/v1/points",
    "/v1/query",
    "/v1/quantiles",
    "/healthz",
    "/metrics",
)


class _HttpRequest:
    """One parsed request: method, path, headers, raw body."""

    __slots__ = ("method", "path", "headers", "body", "keep_alive")

    def __init__(
        self,
        method: str,
        path: str,
        headers: Dict[str, str],
        body: bytes,
        keep_alive: bool,
    ) -> None:
        self.method = method
        self.path = path
        self.headers = headers
        self.body = body
        self.keep_alive = keep_alive


class _HttpResponse:
    """Status + payload, rendered to the wire by the connection loop."""

    __slots__ = ("status", "reason", "body", "content_type", "extra_headers")

    _REASONS = {
        200: "OK",
        202: "Accepted",
        400: "Bad Request",
        404: "Not Found",
        405: "Method Not Allowed",
        409: "Conflict",
        411: "Length Required",
        413: "Payload Too Large",
        500: "Internal Server Error",
        503: "Service Unavailable",
    }

    def __init__(
        self,
        status: int,
        body: bytes,
        content_type: str = _JSON,
        extra_headers: Optional[Mapping[str, str]] = None,
    ) -> None:
        self.status = int(status)
        self.reason = self._REASONS.get(self.status, "Unknown")
        self.body = body
        self.content_type = content_type
        self.extra_headers = dict(extra_headers or {})

    @classmethod
    def json(
        cls,
        status: int,
        payload: Mapping[str, Any],
        extra_headers: Optional[Mapping[str, str]] = None,
    ) -> "_HttpResponse":
        body = json.dumps(payload, separators=(",", ":")).encode("utf-8")
        return cls(status, body, _JSON, extra_headers)

    @classmethod
    def error(
        cls,
        status: int,
        message: str,
        extra_headers: Optional[Mapping[str, str]] = None,
    ) -> "_HttpResponse":
        return cls.json(status, {"error": message}, extra_headers)

    def encode(self, keep_alive: bool) -> bytes:
        lines = [
            f"HTTP/1.1 {self.status} {self.reason}",
            f"Content-Type: {self.content_type}",
            f"Content-Length: {len(self.body)}",
            f"Connection: {'keep-alive' if keep_alive else 'close'}",
        ]
        for name, value in self.extra_headers.items():
            lines.append(f"{name}: {value}")
        head = "\r\n".join(lines) + "\r\n\r\n"
        return head.encode("ascii") + self.body


class ReproHttpServer:
    """The asyncio HTTP listener; owns request metrics, not the service."""

    def __init__(
        self,
        service: IngestionService,
        max_body_bytes: int = MAX_BODY_BYTES,
        readonly: bool = False,
    ) -> None:
        if not isinstance(service, IngestionService):
            raise ConfigurationError(
                f"ReproHttpServer fronts an IngestionService, got "
                f"{type(service).__name__}"
            )
        self._service = service
        self._max_body_bytes = int(max_body_bytes)
        self._readonly = bool(readonly)
        self._coalescer = QueryCoalescer()
        self._server: Optional[asyncio.base_events.Server] = None
        self._connections: set = set()
        self._handler_tasks: set = set()
        self.registry = MetricsRegistry()
        self._requests_total = self.registry.counter(
            "repro_http_requests_total",
            "HTTP requests served, by method, path and status code.",
            ("method", "path", "status"),
        )
        self._request_seconds = self.registry.histogram(
            "repro_http_request_seconds",
            "Wall-clock seconds from request parse to response write.",
            label_names=("path",),
        )

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(self, host: str = "127.0.0.1", port: int = 0) -> "ReproHttpServer":
        if self._server is not None:
            raise ConfigurationError("HTTP server is already listening")
        self._server = await asyncio.start_server(
            self._handle_connection, host=host, port=int(port)
        )
        return self

    async def stop(self) -> None:
        if self._server is None:
            return
        self._server.close()
        await self._server.wait_closed()
        self._server = None
        # Closing a keep-alive transport delivers EOF to its handler, which
        # then returns cleanly — without this, loop teardown would cancel
        # handlers mid-read and log spurious CancelledErrors.
        for writer in list(self._connections):
            writer.close()
        if self._handler_tasks:
            results = await asyncio.gather(
                *list(self._handler_tasks), return_exceptions=True
            )
            failures = [
                result
                for result in results
                if isinstance(result, BaseException)
                and not isinstance(result, asyncio.CancelledError)
            ]
            if failures:
                raise failures[0]

    @property
    def port(self) -> int:
        """The bound TCP port (resolves ``port=0`` to the kernel's pick)."""
        if self._server is None or not self._server.sockets:
            raise ConfigurationError("HTTP server is not listening")
        return int(self._server.sockets[0].getsockname()[1])

    # ------------------------------------------------------------------
    # Connection handling
    # ------------------------------------------------------------------
    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._handler_tasks.add(task)
        self._connections.add(writer)
        try:
            while True:
                request = await self._read_request(reader)
                if request is None:
                    break
                started = time.perf_counter()
                if isinstance(request, _HttpResponse):
                    # Unparseable request: answer and drop the connection —
                    # we cannot trust the framing to find the next request.
                    writer.write(request.encode(keep_alive=False))
                    await writer.drain()
                    self._record("?", _OTHER_PATH, request.status, started)
                    break
                response = self._dispatch(request)
                if asyncio.iscoroutine(response):
                    # Query routes coalesce with other in-flight requests,
                    # so they hand back a coroutine instead of a response.
                    response = await response
                writer.write(response.encode(keep_alive=request.keep_alive))
                await writer.drain()
                self._record(
                    request.method, request.path, response.status, started
                )
                if not request.keep_alive:
                    break
        except (
            asyncio.IncompleteReadError,
            asyncio.LimitOverrunError,
            ConnectionError,
        ):
            pass
        finally:
            self._connections.discard(writer)
            if task is not None:
                self._handler_tasks.discard(task)
            writer.close()
            try:
                await writer.wait_closed()
            except ConnectionError:  # pragma: no cover - peer reset
                pass

    async def _read_request(self, reader: asyncio.StreamReader):
        """Parse one request; ``None`` on clean EOF, an error response on
        malformed framing (the connection loop answers it and closes).

        Framing follows RFC 9112 section 6 strictly, because a lenient
        parser and a strict peer that disagree on where a body ends can be
        made to read a body's bytes as a second request: ``Content-Length``
        must be ASCII digits and agree across duplicates, and any
        ``Transfer-Encoding`` is answered 411 (the service reads
        ``Content-Length`` bodies only).
        """
        try:
            request_line = await reader.readline()
            if not request_line or request_line in (b"\r\n", b"\n"):
                return None
            parts = request_line.decode("latin-1").strip().split()
            if len(parts) != 3 or not parts[2].startswith("HTTP/1."):
                return _HttpResponse.error(400, "malformed request line")
            method, raw_path, version = parts
            headers: Dict[str, str] = {}
            lengths = set()
            while True:
                line = await reader.readline()
                if not line:
                    return None
                if line in (b"\r\n", b"\n"):
                    break
                name, colon, value = line.decode("latin-1").partition(":")
                if not colon or not name or name != name.strip():
                    return _HttpResponse.error(400, "malformed header line")
                name = name.lower()
                headers[name] = value.strip()
                if name == "content-length":
                    lengths.add(headers[name])
        except (asyncio.LimitOverrunError, ValueError):
            return _HttpResponse.error(400, "request head line too long")
        if "transfer-encoding" in headers:
            return _HttpResponse.error(
                411, "Transfer-Encoding is not supported; send Content-Length"
            )
        if len(lengths) > 1:
            return _HttpResponse.error(400, "conflicting Content-Length fields")
        raw_length = headers.get("content-length", "0")
        if not (raw_length.isascii() and raw_length.isdigit()):
            return _HttpResponse.error(400, f"bad Content-Length {raw_length!r}")
        length = int(raw_length)
        if length > self._max_body_bytes:
            return _HttpResponse.error(
                413, f"body of {length} bytes exceeds {self._max_body_bytes}"
            )
        body = await reader.readexactly(length) if length else b""
        path = raw_path.split("?", 1)[0]
        connection = headers.get("connection", "").lower()
        keep_alive = connection != "close" and version != "HTTP/1.0"
        return _HttpRequest(method.upper(), path, headers, body, keep_alive)

    def _record(self, method: str, path: str, status: int, started: float) -> None:
        label_path = path if path in _KNOWN_PATHS else _OTHER_PATH
        self._requests_total.inc(
            labels={"method": method, "path": label_path, "status": str(status)}
        )
        self._request_seconds.observe(
            time.perf_counter() - started, labels={"path": label_path}
        )

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------
    def _dispatch(self, request: _HttpRequest):
        """Route to a response, or to a *coroutine* producing one (query
        routes — the connection loop awaits those so concurrent requests
        can coalesce)."""
        if request.path == "/healthz":
            if request.method != "GET":
                return _HttpResponse.error(405, "healthz is GET-only")
            return self._handle_healthz()
        if request.path == "/metrics":
            if request.method != "GET":
                return _HttpResponse.error(405, "metrics is GET-only")
            return self._handle_metrics()
        if request.path == "/v1/batches":
            if request.method != "POST":
                return _HttpResponse.error(405, "batches is POST-only")
            if self._readonly:
                return _HttpResponse.error(
                    405, "read-only replica: ingest endpoints are disabled"
                )
            return self._handle_submit(request, points=False)
        if request.path == "/v1/points":
            if request.method != "POST":
                return _HttpResponse.error(405, "points is POST-only")
            if self._readonly:
                return _HttpResponse.error(
                    405, "read-only replica: ingest endpoints are disabled"
                )
            return self._handle_submit(request, points=True)
        if request.path == "/v1/query":
            if request.method != "POST":
                return _HttpResponse.error(405, "query is POST-only")
            return self._handle_query(request)
        if request.path == "/v1/quantiles":
            if request.method != "POST":
                return _HttpResponse.error(405, "quantiles is POST-only")
            return self._handle_quantiles(request)
        return _HttpResponse.error(404, f"no route for {request.path}")

    def _handle_healthz(self) -> _HttpResponse:
        stats = self._service.stats()
        return _HttpResponse.json(
            200,
            {
                "status": "ok" if stats["started"] else "starting",
                "shards": stats["n_shards"],
                "spec": self._service.collector.spec,
                "epsilon": self._service.collector.epsilon,
                "domain_size": self._service.collector.domain_size,
            },
        )

    def _handle_metrics(self) -> _HttpResponse:
        lines = ingestion_stats_lines(self._service.stats())
        lines.extend(self.registry.render_lines())
        payload = ("\n".join(lines) + "\n").encode("utf-8")
        return _HttpResponse(200, payload, _PROM)

    @staticmethod
    def _is_npy(request: _HttpRequest) -> bool:
        content_type = request.headers.get("content-type", "")
        return content_type.split(";", 1)[0].strip().lower() == _NPY

    @staticmethod
    def _wants_npy(request: _HttpRequest) -> bool:
        accept = request.headers.get("accept", "")
        return any(
            part.split(";", 1)[0].strip().lower() == _NPY
            for part in accept.split(",")
        )

    @staticmethod
    def _decode_npy_body(body: bytes):
        """``(array, None)`` or ``(None, error response)`` for a binary
        request body.

        The header is checked against the bytes that follow it before any
        array is allocated: ``numpy.load`` would first allocate whatever
        shape a forged header claims.
        """
        stream = io.BytesIO(body)
        try:
            version = np.lib.format.read_magic(stream)
            read_header = _NPY_HEADER_READERS.get(version)
            if read_header is None:
                return None, _HttpResponse.error(
                    400, f"unsupported npy format version {version}"
                )
            shape, fortran, dtype = read_header(stream)
        except (
            ValueError, TypeError, SyntaxError, OSError, EOFError, TokenError
        ) as error:
            return None, _HttpResponse.error(400, f"malformed npy body: {error}")
        if any(side < 0 for side in shape):
            return None, _HttpResponse.error(
                400, f"malformed npy body: negative shape {shape}"
            )
        if not np.issubdtype(dtype, np.integer):
            return None, _HttpResponse.error(
                400, "npy body must be an integer array"
            )
        count = math.prod(shape)
        data = memoryview(body)[stream.tell():]
        if len(data) != count * dtype.itemsize:
            return None, _HttpResponse.error(
                400,
                f"malformed npy body: header shape {shape} needs "
                f"{count * dtype.itemsize} data bytes, got {len(data)}",
            )
        array = np.frombuffer(data, dtype=dtype, count=count)
        return array.reshape(shape, order="F" if fortran else "C").astype(np.int64), None

    def _handle_submit(self, request: _HttpRequest, points: bool) -> _HttpResponse:
        field = "points" if points else "items"
        mode = None
        if self._is_npy(request):
            # Binary fast path: the body is the batch array itself — no
            # JSON envelope, so no mode/spec claims to check.
            batch, error = self._decode_npy_body(request.body)
            if error is not None:
                return error
        else:
            try:
                payload = json.loads(request.body.decode("utf-8"))
            except (UnicodeDecodeError, json.JSONDecodeError) as error:
                return _HttpResponse.error(400, f"malformed JSON body: {error}")
            if not isinstance(payload, dict):
                return _HttpResponse.error(400, "body must be a JSON object")

            mismatch = self._spec_mismatch(payload)
            if mismatch is not None:
                return mismatch

            raw = payload.get(field)
            if raw is None:
                return _HttpResponse.error(400, f"missing required field {field!r}")
            try:
                # The read side's dtype policy: floats and bools are refused,
                # not truncated, before a round-robin decision is spent.
                batch = integer_queries(raw).astype(np.int64, copy=False)
            except InvalidQueryError:
                return _HttpResponse.error(
                    400,
                    f"{field!r} must be an array of integers; "
                    "round or cast explicitly before submitting",
                )
            mode = payload.get("mode")

        try:
            if points:
                batch = self._service.collector.flatten_points(batch)
            shard = self._service.try_submit(batch, mode=mode)
        except ServiceOverloadedError as error:
            return _HttpResponse.error(
                503, str(error), {"Retry-After": str(RETRY_AFTER_SECONDS)}
            )
        except ReproError as error:
            return _HttpResponse.error(400, str(error))
        return _HttpResponse.json(
            202, {"accepted": int(batch.shape[0]), "shard": int(shard)}
        )

    def _spec_mismatch(self, payload: Mapping[str, Any]) -> Optional[_HttpResponse]:
        """409 when the producer's epsilon/domain claims contradict the
        served spec — a protocol disagreement no retry can fix."""
        collector = self._service.collector
        if "epsilon" in payload:
            try:
                epsilon = float(payload["epsilon"])
            except (TypeError, ValueError, OverflowError):
                return _HttpResponse.error(400, "'epsilon' must be a number")
            if not np.isclose(epsilon, collector.epsilon, rtol=1e-9, atol=0.0):
                return _HttpResponse.error(
                    409,
                    f"server collects at epsilon={collector.epsilon}, "
                    f"producer reported for epsilon={epsilon}",
                )
        if "domain_size" in payload:
            try:
                domain = int(payload["domain_size"])
            except (TypeError, ValueError, OverflowError):
                return _HttpResponse.error(400, "'domain_size' must be an integer")
            if domain != collector.domain_size:
                return _HttpResponse.error(
                    409,
                    f"server domain_size={collector.domain_size}, "
                    f"producer reported for domain_size={domain}",
                )
        return None

    # ------------------------------------------------------------------
    # Query serving
    # ------------------------------------------------------------------
    @staticmethod
    def _answers_response(
        request: _HttpRequest, answers: np.ndarray, generation: int
    ) -> _HttpResponse:
        """Render a query result, honouring ``Accept: application/x-npy``.

        The generation travels in a header either way so binary consumers
        keep the freshness information without a JSON envelope.
        """
        headers = {"X-Repro-Generation": str(int(generation))}
        if ReproHttpServer._wants_npy(request):
            buffer = io.BytesIO()
            np.save(buffer, answers, allow_pickle=False)
            return _HttpResponse(200, buffer.getvalue(), _NPY, headers)
        return _HttpResponse.json(
            200,
            {"answers": answers.tolist(), "generation": int(generation)},
            headers,
        )

    def _decode_query_payload(self, request: _HttpRequest):
        """``(payload dict, None)`` or ``(None, error response)``."""
        try:
            payload = json.loads(request.body.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as error:
            return None, _HttpResponse.error(400, f"malformed JSON body: {error}")
        if not isinstance(payload, dict):
            return None, _HttpResponse.error(400, "body must be a JSON object")
        mismatch = self._spec_mismatch(payload)
        if mismatch is not None:
            return None, mismatch
        return payload, None

    async def _query_view(self):
        """``(view, generation, None)`` or ``(None, 0, error response)``.

        ``generation`` is the collector's ingest generation the view was
        built at, read before any later await can rebuild the view.

        ``NotFittedError`` maps to 409: the request is valid but conflicts
        with the server's current state (nothing collected yet) — the
        producer side must land data first, no rephrasing will help.
        """
        try:
            view = await self._service.refresh_query_view()
        except NotFittedError as error:
            return None, 0, _HttpResponse.error(409, str(error))
        except ReproError as error:
            return None, 0, _HttpResponse.error(400, str(error))
        return view, self._service.view_generation, None

    async def _handle_query(self, request: _HttpRequest) -> _HttpResponse:
        payload, error = self._decode_query_payload(request)
        if error is not None:
            return error
        raw_boxes = payload.get("boxes")
        raw_ranges = payload.get("ranges")
        if (raw_boxes is None) == (raw_ranges is None):
            return _HttpResponse.error(
                400, "provide exactly one of 'boxes' or 'ranges'"
            )
        try:
            # Float, bool and string bounds are refused here, before any
            # view refresh, instead of being truncated to integers.
            queries = integer_queries(
                raw_boxes if raw_boxes is not None else raw_ranges
            )
        except InvalidQueryError as error:
            return _HttpResponse.error(400, str(error))
        view, generation, error = await self._query_view()
        if error is not None:
            return error
        if raw_boxes is not None and getattr(view, "answer_boxes", None) is None:
            return _HttpResponse.error(
                400,
                "the served mechanism has no box surface; "
                "query flattened 'ranges' instead",
            )
        try:
            if raw_boxes is not None:
                answers = await self._coalescer.answer_boxes(view, queries)
            else:
                answers = await self._coalescer.answer_ranges(view, queries)
        except ReproError as error:
            return _HttpResponse.error(400, str(error))
        return self._answers_response(
            request, np.asarray(answers, dtype=np.float64), generation
        )

    async def _handle_quantiles(self, request: _HttpRequest) -> _HttpResponse:
        payload, error = self._decode_query_payload(request)
        if error is not None:
            return error
        raw = payload.get("phis")
        if raw is None:
            return _HttpResponse.error(400, "missing required field 'phis'")
        if not isinstance(raw, list):
            return _HttpResponse.error(400, "'phis' must be an array of numbers")
        try:
            phis = quantile_targets(raw)
        except ReproError as error:
            return _HttpResponse.error(400, str(error))
        view, generation, error = await self._query_view()
        if error is not None:
            return error
        try:
            values = view.quantiles(phis)
        except ReproError as error:
            return _HttpResponse.error(400, str(error))
        if self._wants_npy(request):
            buffer = io.BytesIO()
            np.save(buffer, np.asarray(values, dtype=np.int64), allow_pickle=False)
            return _HttpResponse(
                200, buffer.getvalue(), _NPY,
                {"X-Repro-Generation": str(int(generation))},
            )
        return _HttpResponse.json(
            200,
            {"quantiles": [int(value) for value in values],
             "generation": int(generation)},
            {"X-Repro-Generation": str(int(generation))},
        )


class HttpServerThread:
    """Service + server on a dedicated event-loop thread.

    The synchronous world's handle on the network tier: tests, benchmarks
    and the CLI construct one, call :meth:`start` (which blocks until the
    port is bound, resolving ``port=0``), talk to ``http://host:port`` and
    finally :meth:`stop` — which drains the queue before tearing down, so
    :meth:`reduce` afterwards sees every accepted batch.
    """

    def __init__(
        self,
        collector: ShardedCollector,
        host: str = "127.0.0.1",
        port: int = 0,
        queue_size: int = 8,
        readonly: bool = False,
        query_cache_size: int = DEFAULT_ANSWER_CACHE_SIZE,
    ) -> None:
        self._collector = collector
        self._host = str(host)
        self._requested_port = int(port)
        self._queue_size = int(queue_size)
        self._readonly = bool(readonly)
        self._query_cache_size = int(query_cache_size)
        self._thread: Optional[threading.Thread] = None
        self._ready = threading.Event()
        self._startup_error: Optional[BaseException] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._stop_requested: Optional[asyncio.Event] = None
        self._port: Optional[int] = None
        self.service: Optional[IngestionService] = None
        self.server: Optional[ReproHttpServer] = None

    # ------------------------------------------------------------------
    # Lifecycle (called from the synchronous owner thread)
    # ------------------------------------------------------------------
    def start(self, timeout: float = 10.0) -> "HttpServerThread":
        if self._thread is not None:
            raise ConfigurationError("server thread is already running")
        self._thread = threading.Thread(
            target=self._run, name="repro-http", daemon=True
        )
        self._thread.start()
        if not self._ready.wait(timeout):
            raise ConfigurationError(
                f"HTTP server did not come up within {timeout}s"
            )
        if self._startup_error is not None:
            error = self._startup_error
            self._thread.join()
            self._thread = None
            raise error
        return self

    def stop(self, timeout: float = 30.0) -> None:
        if self._thread is None:
            return
        if self._loop is not None and self._stop_requested is not None:
            self._loop.call_soon_threadsafe(self._stop_requested.set)
        self._thread.join(timeout)
        if self._thread.is_alive():  # pragma: no cover - watchdog only
            raise ConfigurationError("HTTP server thread did not stop in time")
        self._thread = None
        if self._startup_error is not None:
            raise self._startup_error

    def __enter__(self) -> "HttpServerThread":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.stop()

    # ------------------------------------------------------------------
    # Synchronous accessors
    # ------------------------------------------------------------------
    @property
    def host(self) -> str:
        return self._host

    @property
    def port(self) -> int:
        if self._port is None:
            raise ConfigurationError("HTTP server is not listening yet")
        return self._port

    @property
    def address(self) -> Tuple[str, int]:
        return (self.host, self.port)

    def stats(self) -> dict:
        """A service stats snapshot, fetched on the event-loop thread."""
        if self._loop is None or self.service is None:
            raise ConfigurationError("HTTP server is not running")

        async def _snapshot() -> dict:
            return self.service.stats()

        future = asyncio.run_coroutine_threadsafe(_snapshot(), self._loop)
        return future.result(timeout=10.0)

    def reduce(self):
        """Merge the collected state into one queryable mechanism.

        Only valid after :meth:`stop` (queue drained, loop parked) — the
        collector must not be touched concurrently with its worker.
        """
        if self._thread is not None:
            raise ConfigurationError("stop() the server before reducing")
        return self._collector.reduce()

    # ------------------------------------------------------------------
    # Event-loop thread
    # ------------------------------------------------------------------
    def _run(self) -> None:
        try:
            asyncio.run(self._main())
        except BaseException as error:  # noqa: BLE001 - reported to owner
            self._startup_error = error
        finally:
            self._ready.set()

    async def _main(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._stop_requested = asyncio.Event()
        service = IngestionService(
            self._collector,
            queue_size=self._queue_size,
            query_cache_size=self._query_cache_size,
        )
        await service.start()
        server = ReproHttpServer(service, readonly=self._readonly)
        try:
            await server.start(self._host, self._requested_port)
            self._port = server.port
            self.service = service
            self.server = server
            self._ready.set()
            await self._stop_requested.wait()
        finally:
            await server.stop()
            await service.join()
            await service.stop()
