"""Blocking HTTP client for the ingestion service.

Tests, benchmarks and operators talk to the network tier through
:class:`ServiceClient`, a synchronous HTTP/1.1 client over one keep-alive
TCP socket (the *producer* side of the fleet is plain sequential code,
which is also what the end-to-end latency benchmark wants to measure).
It speaks exactly the subset of HTTP the service's server speaks:

* each request is one ``sendall`` of a prebuilt head plus the body;
* each response is framed by ``Content-Length`` alone: the head is found
  with one search for the blank line in a reusable receive buffer, the
  body is read to exactly its declared length, and ``Connection: close``
  drops the socket after the response.  A bad status line, a missing or
  non-digit ``Content-Length``, a ``Transfer-Encoding`` or a head over
  :data:`MAX_HEAD_BYTES` raises :class:`~repro.exceptions.ProtocolError`.

Retry rule: a request is re-sent once, on a fresh connection, only when a
*reused* keep-alive socket fails before any response byte arrives — the
send fails, or the peer resets or closes it unread (the server dropped an
idle connection).  A fresh connection, a timeout, or a failure after
response bytes have arrived raises: the server may already have absorbed
the batch, and a second copy would count those users twice against
their epsilon.

Beyond transport the client knows the service's three conventions and
nothing else:

* JSON in, JSON out, except ``/metrics`` which returns Prometheus text;
* ``503`` carries a ``Retry-After`` header — surfaced on the response and
  honoured by :meth:`ServiceClient.post_batch_retrying`;
* payload fields mirror ``POST /v1/batches``: ``items``, optional
  ``mode`` / ``epsilon`` / ``domain_size``.
"""

from __future__ import annotations

import io
import json
import socket
import time
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.exceptions import (
    ConfigurationError,
    ProtocolError,
    ServiceOverloadedError,
)

__all__ = ["ServiceClient", "ServiceResponse"]

_NPY = "application/x-npy"

#: Bound on a response head (status line plus fields); it is also the size
#: of the client's receive buffer, so a head that does not fit is refused.
MAX_HEAD_BYTES = 64 * 1024


class _NoResponse(ConnectionError):
    """The connection failed before any byte of the response arrived."""


@dataclass(frozen=True)
class ServiceResponse:
    """One HTTP exchange, decoded as far as the payload allows."""

    status: int
    body: bytes
    retry_after: Optional[float] = None

    @property
    def ok(self) -> bool:
        return 200 <= self.status < 300

    def json(self) -> Dict[str, Any]:
        return json.loads(self.body.decode("utf-8"))

    @property
    def text(self) -> str:
        return self.body.decode("utf-8")


def _parse_head(head: str) -> Tuple[int, Dict[str, str], bool]:
    """``(status, lower-cased fields, keep_alive)`` of one response head."""
    status_line, *lines = head.split("\r\n")
    version, _, rest = status_line.partition(" ")
    code = rest[:3]
    if (
        version != "HTTP/1.1"
        or not (code.isascii() and code.isdigit())
        or rest[3:4] not in ("", " ")
    ):
        raise ProtocolError(f"malformed status line {status_line!r}")
    fields: Dict[str, str] = {}
    for line in lines:
        name, colon, value = line.partition(":")
        if not colon or not name or name != name.strip():
            raise ProtocolError(f"malformed response header line {line!r}")
        name = name.lower()
        value = value.strip()
        if fields.setdefault(name, value) != value and name == "content-length":
            raise ProtocolError("conflicting Content-Length fields")
    if "transfer-encoding" in fields:
        raise ProtocolError("the service frames bodies by Content-Length only")
    keep_alive = "close" not in fields.get("connection", "").lower()
    return int(code), fields, keep_alive


class ServiceClient:
    """Synchronous client bound to one ``host:port`` service endpoint.

    Keeps a single keep-alive socket (``_connection``); not thread-safe
    (create one client per producer thread, mirroring one fleet member
    each).
    """

    def __init__(self, host: str, port: int, timeout: float = 30.0) -> None:
        self._host = str(host)
        self._port = int(port)
        self._timeout = float(timeout)
        self._connection: Optional[socket.socket] = None
        authority = f"[{self._host}]" if ":" in self._host else self._host
        self._host_field = f"Host: {authority}:{self._port}\r\n"
        self._buffer = bytearray(MAX_HEAD_BYTES)
        self._view = memoryview(self._buffer)

    # ------------------------------------------------------------------
    # Plumbing
    # ------------------------------------------------------------------
    def _request(
        self,
        method: str,
        path: str,
        payload: Optional[Dict[str, Any]] = None,
        body: Optional[bytes] = None,
        headers: Optional[Dict[str, str]] = None,
    ) -> ServiceResponse:
        head = f"{method} {path} HTTP/1.1\r\n{self._host_field}"
        if payload is not None:
            body = json.dumps(payload, separators=(",", ":")).encode("utf-8")
            head += "Content-Type: application/json\r\n"
        if body is not None:
            head += f"Content-Length: {len(body)}\r\n"
        for name, value in (headers or {}).items():
            head += f"{name}: {value}\r\n"
        message = (head + "\r\n").encode("latin-1") + (body or b"")
        if self._connection is not None:
            try:
                return self._exchange(self._connection, message)
            except _NoResponse:
                # The kept socket died unanswered (typically the server
                # dropped it while idle): the one case worth a resend.
                self.close()
            except BaseException:
                self.close()
                raise
        self._connection = self._dial()
        try:
            return self._exchange(self._connection, message)
        except BaseException:
            self.close()
            raise

    def _dial(self) -> socket.socket:
        connection = socket.create_connection(
            (self._host, self._port), self._timeout
        )
        connection.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        return connection

    def _exchange(self, connection: socket.socket, message: bytes) -> ServiceResponse:
        """Send one request and read its response off ``connection``."""
        try:
            connection.sendall(message)
        except socket.timeout:
            raise  # a slow server is not a gone one: never resent
        except OSError as error:
            raise _NoResponse(f"sending the request failed: {error}") from error
        buffer, view = self._buffer, self._view
        filled = 0
        end = -1
        while end < 0:
            if filled == MAX_HEAD_BYTES:
                raise ProtocolError(
                    f"response head exceeds {MAX_HEAD_BYTES} bytes"
                )
            try:
                count = connection.recv_into(view[filled:])
            except ConnectionResetError as error:
                if filled:
                    raise
                raise _NoResponse("the server reset the connection") from error
            if not count:
                if filled:
                    raise ProtocolError("connection closed inside the response head")
                raise _NoResponse("the server closed the connection unanswered")
            end = buffer.find(b"\r\n\r\n", max(0, filled - 3), filled + count)
            filled += count
        status, fields, keep_alive = _parse_head(str(view[:end], "latin-1"))
        raw_length = fields.get("content-length", "")
        if not (raw_length.isascii() and raw_length.isdigit()):
            raise ProtocolError(f"bad response Content-Length {raw_length!r}")
        length = int(raw_length)
        start = end + 4
        received = filled - start
        if received >= length:
            if received > length:
                raise ProtocolError(
                    f"{received - length} bytes follow the response body"
                )
            body = bytes(view[start:filled])
        else:
            # Large bodies land straight in one buffer of the right size.
            whole = bytearray(length)
            whole[:received] = view[start:filled]
            target = memoryview(whole)
            while received < length:
                count = connection.recv_into(target[received:])
                if not count:
                    raise ProtocolError(
                        f"connection closed after {received} of {length} "
                        "body bytes"
                    )
                received += count
            body = bytes(whole)
        if not keep_alive:
            self.close()
        retry_after: Optional[float] = None
        header = fields.get("retry-after")
        if header is not None:
            try:
                retry_after = float(header)
            except ValueError:
                retry_after = None
        return ServiceResponse(status=status, body=body, retry_after=retry_after)

    def close(self) -> None:
        if self._connection is not None:
            self._connection.close()
            self._connection = None

    def __enter__(self) -> "ServiceClient":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Endpoints
    # ------------------------------------------------------------------
    def post_batch(
        self,
        items: Union[Sequence[int], np.ndarray],
        mode: Optional[str] = None,
        epsilon: Optional[float] = None,
        domain_size: Optional[int] = None,
    ) -> ServiceResponse:
        """``POST /v1/batches``; never raises on HTTP-level rejection —
        inspect ``response.status`` (202 accepted, 503 backpressure...)."""
        payload: Dict[str, Any] = {"items": np.asarray(items).tolist()}
        if mode is not None:
            payload["mode"] = mode
        if epsilon is not None:
            payload["epsilon"] = float(epsilon)
        if domain_size is not None:
            payload["domain_size"] = int(domain_size)
        return self._request("POST", "/v1/batches", payload)

    def post_points(
        self,
        points: Union[Sequence[Sequence[int]], np.ndarray],
        mode: Optional[str] = None,
        binary: bool = False,
    ) -> ServiceResponse:
        """``POST /v1/points`` — ``(n, d)`` coordinate rows for grid
        mechanisms (``d = 2`` for ``grid2d``, the mechanism's ``dims``
        otherwise).  ``binary=True`` ships the array as an
        ``application/x-npy`` body instead of JSON — the wire fast path;
        ``mode`` cannot ride along (no envelope)."""
        if binary:
            if mode is not None:
                raise ConfigurationError(
                    "binary point submission carries no JSON envelope; "
                    "mode is a JSON-only field"
                )
            return self._request(
                "POST",
                "/v1/points",
                body=self._npy_bytes(np.asarray(points, dtype=np.int64)),
                headers={"Content-Type": _NPY},
            )
        payload: Dict[str, Any] = {"points": np.asarray(points).tolist()}
        if mode is not None:
            payload["mode"] = mode
        return self._request("POST", "/v1/points", payload)

    @staticmethod
    def _npy_bytes(array: np.ndarray) -> bytes:
        buffer = io.BytesIO()
        np.save(buffer, array, allow_pickle=False)
        return buffer.getvalue()

    def post_batch_retrying(
        self,
        items: Union[Sequence[int], np.ndarray],
        mode: Optional[str] = None,
        max_attempts: int = 50,
        max_sleep: float = 0.05,
    ) -> ServiceResponse:
        """``post_batch`` that honours 503 backpressure by waiting and
        retrying (capping the server's ``Retry-After`` hint at
        ``max_sleep`` so tests against millisecond queues stay fast).
        Raises :class:`~repro.exceptions.ServiceOverloadedError` once
        ``max_attempts`` rejections pile up."""
        if max_attempts < 1:
            raise ConfigurationError(
                f"max_attempts must be a positive integer, got {max_attempts!r}"
            )
        response = self.post_batch(items, mode=mode)
        attempts = 1
        while response.status == 503 and attempts < int(max_attempts):
            hint = response.retry_after if response.retry_after is not None else max_sleep
            time.sleep(min(float(hint), float(max_sleep)))
            response = self.post_batch(items, mode=mode)
            attempts += 1
        if response.status == 503:
            raise ServiceOverloadedError(
                f"batch still rejected after {attempts} attempts"
            )
        return response

    # ------------------------------------------------------------------
    # Query endpoints
    # ------------------------------------------------------------------
    def _post_query_retrying(
        self,
        path: str,
        payload: Dict[str, Any],
        binary: bool,
        max_attempts: int,
        max_sleep: float,
    ) -> ServiceResponse:
        """One query POST with the same keep-alive + one-reconnect +
        ``Retry-After`` discipline as :meth:`post_batch_retrying`."""
        if max_attempts < 1:
            raise ConfigurationError(
                f"max_attempts must be a positive integer, got {max_attempts!r}"
            )
        headers = {"Accept": _NPY} if binary else None
        response = self._request("POST", path, payload, headers=headers)
        attempts = 1
        while response.status == 503 and attempts < int(max_attempts):
            hint = response.retry_after if response.retry_after is not None else max_sleep
            time.sleep(min(float(hint), float(max_sleep)))
            response = self._request("POST", path, payload, headers=headers)
            attempts += 1
        if response.status == 503:
            raise ServiceOverloadedError(
                f"query still rejected after {attempts} attempts"
            )
        if not response.ok:
            try:
                message = response.json().get("error", response.text)
            except (ValueError, UnicodeDecodeError):
                message = f"{len(response.body)} undecodable bytes"
            raise ConfigurationError(
                f"{path} returned HTTP {response.status}: {message}"
            )
        return response

    def query_boxes(
        self,
        boxes: Union[Sequence[Sequence[int]], np.ndarray],
        binary: bool = False,
        max_attempts: int = 50,
        max_sleep: float = 0.05,
    ) -> np.ndarray:
        """``POST /v1/query`` with ``(n, 2d)`` per-axis bound rows; returns
        the estimated fractions as a float array.  ``binary=True``
        negotiates an ``application/x-npy`` response body."""
        payload = {"boxes": np.asarray(boxes).tolist()}
        response = self._post_query_retrying(
            "/v1/query", payload, binary, max_attempts, max_sleep
        )
        if binary:
            return np.load(io.BytesIO(response.body), allow_pickle=False)
        return np.asarray(response.json()["answers"], dtype=np.float64)

    def query_ranges(
        self,
        ranges: Union[Sequence[Sequence[int]], np.ndarray],
        binary: bool = False,
        max_attempts: int = 50,
        max_sleep: float = 0.05,
    ) -> np.ndarray:
        """``POST /v1/query`` with ``(n, 2)`` flat-domain range rows."""
        payload = {"ranges": np.asarray(ranges).tolist()}
        response = self._post_query_retrying(
            "/v1/query", payload, binary, max_attempts, max_sleep
        )
        if binary:
            return np.load(io.BytesIO(response.body), allow_pickle=False)
        return np.asarray(response.json()["answers"], dtype=np.float64)

    def query_quantiles(
        self,
        phis: Sequence[float],
        binary: bool = False,
        max_attempts: int = 50,
        max_sleep: float = 0.05,
    ) -> List[int]:
        """``POST /v1/quantiles``; returns one domain item per target."""
        payload = {"phis": [float(phi) for phi in phis]}
        response = self._post_query_retrying(
            "/v1/quantiles", payload, binary, max_attempts, max_sleep
        )
        if binary:
            values = np.load(io.BytesIO(response.body), allow_pickle=False)
            return [int(value) for value in values]
        return [int(value) for value in response.json()["quantiles"]]

    def healthz(self) -> ServiceResponse:
        return self._request("GET", "/healthz")

    def metrics(self) -> str:
        """The Prometheus exposition payload of ``GET /metrics``."""
        response = self._request("GET", "/metrics")
        if not response.ok:
            raise ServiceOverloadedError(
                f"/metrics returned HTTP {response.status}"
            )
        return response.text
