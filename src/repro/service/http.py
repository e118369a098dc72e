"""A minimal asyncio HTTP/1.1 server — stdlib only, JSON in/out.

The service must run with zero hard dependencies beyond the scientific
stack the repo already requires, so this module implements just enough
HTTP on ``asyncio.start_server``: request-line + header parsing with
hard size limits, ``Content-Length`` bodies (``Transfer-Encoding`` is
refused), keep-alive, and JSON responses.  It is deliberately not a
framework — routes are template paths (``/v1/devices/{device_id}``)
bound to async handlers returning ``(status, payload)``, and everything
else (devices, batching, jobs) lives in :mod:`repro.service.app`.  It
is the service's only server.
"""

from __future__ import annotations

import asyncio
import json
from typing import Any, Awaitable, Callable

from repro.service.codes import CODES, ServiceError
from repro.service.telemetry import Telemetry

__all__ = ["HttpServer", "Router"]

#: Request hard limits: generous for block payloads (a 512-bit block is
#: 128 hex chars), hostile to abuse.
MAX_HEADER_BYTES = 16 * 1024
MAX_BODY_BYTES = 1024 * 1024

#: Telemetry label of every request that matches no route (404/405):
#: raw paths would give each distinct URL its own latency reservoir.
UNROUTED = "(unrouted)"

#: Reason phrases for the statuses the code catalog uses.
_REASONS = {
    200: "OK", 201: "Created", 202: "Accepted", 400: "Bad Request",
    404: "Not Found", 405: "Method Not Allowed", 409: "Conflict",
    413: "Payload Too Large", 422: "Unprocessable Entity",
    500: "Internal Server Error", 503: "Service Unavailable",
    507: "Insufficient Storage",
}

#: ``async handler(path_params, body) -> (status, json_payload)``
Handler = Callable[[dict[str, str], Any], Awaitable[tuple[int, dict]]]


class Router:
    """Template-path router: ``{name}`` segments capture path params."""

    def __init__(self) -> None:
        self._routes: list[tuple[str, list[str], str, Handler]] = []

    def add(self, method: str, template: str, handler: Handler) -> None:
        segments = template.strip("/").split("/")
        self._routes.append((method.upper(), segments, f"{method.upper()} {template}", handler))

    def resolve(self, method: str, path: str) -> tuple[str, Handler, dict[str, str]]:
        """Match a request; returns ``(endpoint label, handler, params)``.

        A miss resolves to the :data:`UNROUTED` label and a handler that
        raises ``E_NOT_FOUND`` for unknown paths, or ``E_METHOD`` when
        the path exists but not for this method.
        """
        segments = path.strip("/").split("/")
        path_matched = False
        for route_method, template, label, handler in self._routes:
            params = _match(template, segments)
            if params is None:
                continue
            path_matched = True
            if route_method == method.upper():
                return label, handler, params
        if path_matched:
            err = ServiceError("E_METHOD", f"{method} not allowed on {path}")
        else:
            err = ServiceError("E_NOT_FOUND", f"no route at {path}")

        async def unrouted(params: dict[str, str], body: Any) -> tuple[int, dict]:
            raise err

        return UNROUTED, unrouted, {}


def _match(template: list[str], segments: list[str]) -> dict[str, str] | None:
    if len(template) != len(segments):
        return None
    params: dict[str, str] = {}
    for part, seg in zip(template, segments):
        if part.startswith("{") and part.endswith("}"):
            if not seg:
                return None
            params[part[1:-1]] = seg
        elif part != seg:
            return None
    return params


class HttpServer:
    """Serves a :class:`Router` over asyncio with per-endpoint telemetry."""

    def __init__(self, router: Router, telemetry: Telemetry | None = None):
        self.router = router
        self.telemetry = telemetry or Telemetry()
        self._server: asyncio.base_events.Server | None = None

    # -- lifecycle -----------------------------------------------------
    async def start(self, host: str, port: int) -> tuple[str, int]:
        """Bind and start serving; returns the actual (host, port)."""
        self._server = await asyncio.start_server(self._handle_conn, host, port)
        sock = self._server.sockets[0]
        addr = sock.getsockname()
        return addr[0], addr[1]

    async def stop(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None

    # -- connection handling -------------------------------------------
    async def _handle_conn(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            while True:
                keep_alive = await self._handle_one(reader, writer)
                if not keep_alive:
                    break
        except (ConnectionError, asyncio.IncompleteReadError, asyncio.LimitOverrunError):
            pass  # peer went away mid-request; nothing to answer
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass  # already torn down; close is best-effort

    async def _handle_one(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> bool:
        request_line = await reader.readline()
        if not request_line:
            return False
        try:
            method, target, version = request_line.decode("latin-1").split()
        except ValueError:
            await self._send_error(
                writer, "HTTP/1.1", ServiceError("E_BAD_REQUEST", "malformed request line")
            )
            return False
        headers, overflow = await _read_headers(reader)
        if overflow:
            await self._send_error(
                writer, version, ServiceError("E_PAYLOAD_TOO_LARGE", "headers too large")
            )
            return False
        # A refused body is left unread, and its bytes must never be
        # parsed as the next request: answer it, then close.
        length, refusal = _body_length(headers)
        keep_alive = refusal is None and _wants_keep_alive(version, headers)

        start = self.telemetry.timer()
        endpoint, handler, params = self.router.resolve(method, target.split("?", 1)[0])
        try:
            if refusal is not None:
                raise refusal
            body = await _read_body(reader, length)
            status, payload = await handler(params, body)
        except ServiceError as exc:
            self.telemetry.observe(endpoint, self.telemetry.elapsed(start), error=True)
            await self._send_json(writer, version, exc.http_status, exc.payload(), keep_alive)
            return keep_alive
        except Exception as exc:
            self.telemetry.observe(endpoint, self.telemetry.elapsed(start), error=True)
            err = ServiceError("E_INTERNAL", f"{type(exc).__name__}: {exc}")
            await self._send_json(writer, version, err.http_status, err.payload(), keep_alive)
            return keep_alive
        self.telemetry.observe(endpoint, self.telemetry.elapsed(start))
        await self._send_json(writer, version, status, payload, keep_alive)
        return keep_alive

    # -- responses -----------------------------------------------------
    async def _send_json(
        self,
        writer: asyncio.StreamWriter,
        version: str,
        status: int,
        payload: dict,
        keep_alive: bool = False,
    ) -> None:
        body = json.dumps(payload, sort_keys=True).encode()
        reason = _REASONS.get(status, "Unknown")
        head = (
            f"{version if version.startswith('HTTP/') else 'HTTP/1.1'} {status} {reason}\r\n"
            f"Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n"
            f"Connection: {'keep-alive' if keep_alive else 'close'}\r\n"
            f"\r\n"
        )
        writer.write(head.encode("latin-1") + body)
        await writer.drain()

    async def _send_error(
        self, writer: asyncio.StreamWriter, version: str, exc: ServiceError
    ) -> None:
        await self._send_json(writer, version, exc.http_status, exc.payload())


async def _read_headers(reader: asyncio.StreamReader) -> tuple[dict[str, str], bool]:
    headers: dict[str, str] = {}
    total = 0
    while True:
        line = await reader.readline()
        total += len(line)
        if total > MAX_HEADER_BYTES:
            return headers, True
        if line in (b"\r\n", b"\n", b""):
            return headers, False
        name, _, value = line.decode("latin-1").partition(":")
        headers[name.strip().lower()] = value.strip()


def _body_length(headers: dict[str, str]) -> tuple[int, ServiceError | None]:
    """The body's ``Content-Length``, or the error that refuses the body.

    Bodies are framed by ``Content-Length`` alone, so any
    ``Transfer-Encoding`` is refused rather than ignored.
    """
    if "transfer-encoding" in headers:
        return 0, ServiceError("E_BAD_REQUEST", "Transfer-Encoding is not supported")
    length_text = headers.get("content-length", "0")
    try:
        length = int(length_text)
    except ValueError:
        return 0, ServiceError("E_BAD_REQUEST", f"bad Content-Length {length_text!r}")
    if length < 0:
        return 0, ServiceError("E_BAD_REQUEST", "negative Content-Length")
    if length > MAX_BODY_BYTES:
        return 0, ServiceError(
            "E_PAYLOAD_TOO_LARGE",
            f"body of {length} bytes exceeds the {MAX_BODY_BYTES} byte limit",
        )
    return length, None


async def _read_body(reader: asyncio.StreamReader, length: int) -> Any:
    if length == 0:
        return None
    raw = await reader.readexactly(length)
    try:
        return json.loads(raw)
    except ValueError:
        raise ServiceError("E_BAD_REQUEST", "request body is not valid JSON")


def _wants_keep_alive(version: str, headers: dict[str, str]) -> bool:
    connection = headers.get("connection", "").lower()
    if "close" in connection:
        return False
    if version == "HTTP/1.0":
        return "keep-alive" in connection
    return True


def status_for_code(code: str) -> int:
    """HTTP status for a catalog code (convenience for handlers)."""
    return CODES[code].http_status
