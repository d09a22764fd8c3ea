"""Fleet query API: three GET routes over raw asyncio streams.

No framework, no threads: :class:`FleetQueryServer` is an
``asyncio.start_server`` handler that parses the request line, drains
the headers and answers from the fleet's last coherent snapshots —
:meth:`~repro.fleet.pipeline.FleetPipeline.clusters_payload`,
:meth:`~repro.fleet.pipeline.FleetPipeline.machine_status` and
:meth:`~repro.fleet.pipeline.FleetPipeline.health` are all plain dict
reads refreshed by the driver, so a query during live ingest never
blocks on (or races) an in-flight update.

Routes::

    GET /clusters                 the merged fleet cluster model
    GET /machines                 machine ids + health at a glance
    GET /machines/<id>/status     one machine's last status snapshot
    GET /health                   liveness + fleet-level counters

Under a supervised drive (``drive(resilience=...)``) ``/health`` adds
the supervision summary — worst-machine status, health counts, the
stale-evidence machine list, restart/fault totals — and each machine's
``/status`` carries its ``HEALTHY/DEGRADED/UNHEALTHY`` state.

Request input comes from the network, so reading it is bounded: the
request line and headers must arrive within :data:`READ_TIMEOUT` seconds
(else 408), no line may exceed :data:`MAX_LINE_BYTES` and at most
:data:`MAX_HEADERS` header lines are read (else 400).  At most
:data:`MAX_CONNECTIONS` requests are read at once; a connection over the
cap is answered 503 without its request being read.  Every connection is
closed after its one response.
"""

from __future__ import annotations

import asyncio
import json

from repro.fleet.pipeline import FleetPipeline

_REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    408: "Request Timeout",
    503: "Service Unavailable",
}

#: Seconds a client has to send its request line and all its headers.
READ_TIMEOUT = 10.0

#: Longest request or header line read (the stream reader's limit).
MAX_LINE_BYTES = 8192

#: Most header lines read after the request line.
MAX_HEADERS = 100

#: Most connections whose requests are read at once; each may hold its
#: handler for up to :data:`READ_TIMEOUT` seconds.
MAX_CONNECTIONS = 64


class _BadRequest(ValueError):
    """A request the server answers with 400."""


async def _read_request(reader: asyncio.StreamReader) -> tuple[str, str]:
    """``(method, path)`` of one request, after draining its headers."""
    parts = (await reader.readline()).decode("latin-1").split()
    if len(parts) < 2:
        raise _BadRequest("malformed request line")
    # drain the headers; all routes are bodyless GETs
    for _ in range(MAX_HEADERS + 1):
        if await reader.readline() in (b"\r\n", b"\n", b""):
            return parts[0], parts[1].split("?", 1)[0]
    raise _BadRequest(f"more than {MAX_HEADERS} header lines")


class FleetQueryServer:
    """Serve fleet cluster/status queries while ingest continues.

    Usage (inside a running event loop, e.g. alongside
    :meth:`~repro.fleet.pipeline.FleetPipeline.drive`)::

        server = FleetQueryServer(fleet)
        host, port = await server.start()   # port 0: pick a free port
        ...
        await server.close()

    ``async with FleetQueryServer(fleet) as server:`` does the same.
    """

    def __init__(self, fleet: FleetPipeline) -> None:
        self._fleet = fleet
        self._server: asyncio.AbstractServer | None = None
        self._in_flight = 0

    @property
    def address(self) -> tuple[str, int]:
        """The bound (host, port); raises before :meth:`start`."""
        if self._server is None:
            raise RuntimeError("server not started")
        host, port = self._server.sockets[0].getsockname()[:2]
        return host, port

    async def start(self, host: str = "127.0.0.1", port: int = 0) -> tuple[str, int]:
        if self._server is not None:
            raise RuntimeError("server already started")
        self._server = await asyncio.start_server(
            self._handle, host, port, limit=MAX_LINE_BYTES
        )
        return self.address

    async def close(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None

    async def __aenter__(self) -> "FleetQueryServer":
        await self.start()
        return self

    async def __aexit__(self, *exc_info) -> None:
        await self.close()

    def _route(self, method: str, path: str) -> tuple[int, dict]:
        if method != "GET":
            return 405, {"error": f"method {method} not allowed"}
        if path == "/health":
            return 200, self._fleet.health()
        if path == "/clusters":
            return 200, self._fleet.clusters_payload()
        if path in ("/machines", "/machines/"):
            return 200, self._fleet.machines_payload()
        if path.startswith("/machines/") and path.endswith("/status"):
            machine_id = path[len("/machines/") : -len("/status")].rstrip("/")
            status = self._fleet.machine_status(machine_id)
            if status is None:
                return 404, {"error": f"no machine {machine_id!r}"}
            return 200, status
        return 404, {"error": f"no route {path!r}"}

    async def _respond_to(self, reader: asyncio.StreamReader) -> tuple[int, dict]:
        try:
            method, path = await asyncio.wait_for(_read_request(reader), READ_TIMEOUT)
        except asyncio.TimeoutError:
            return 408, {"error": f"request not received within {READ_TIMEOUT} s"}
        except _BadRequest as error:
            return 400, {"error": str(error)}
        except ValueError:  # the stream reader's line limit
            return 400, {"error": f"line longer than {MAX_LINE_BYTES} bytes"}
        return self._route(method, path)

    async def _handle(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            if self._in_flight >= MAX_CONNECTIONS:
                status, payload = 503, {
                    "error": f"more than {MAX_CONNECTIONS} connections in flight"
                }
            else:
                self._in_flight += 1
                try:
                    status, payload = await self._respond_to(reader)
                finally:
                    self._in_flight -= 1
            body = json.dumps(payload).encode("utf-8")
            writer.write(
                (
                    f"HTTP/1.1 {status} {_REASONS[status]}\r\n"
                    "Content-Type: application/json\r\n"
                    f"Content-Length: {len(body)}\r\n"
                    "Connection: close\r\n"
                    "\r\n"
                ).encode("latin-1")
                + body
            )
            await writer.drain()
        except (ConnectionError, asyncio.IncompleteReadError):
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except ConnectionError:
                pass
