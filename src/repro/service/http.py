"""Minimal asyncio HTTP/1.1 transport for the advisor service.

The container ships no async HTTP framework, and the service's needs
are tiny — three routes, JSON bodies, keep-alive — so this module
implements just enough of HTTP/1.1 over ``asyncio.start_server``:

- ``POST /advise``  — placement query in, ranked advice out
- ``GET  /healthz`` — liveness (also polled by CI before the smoke run)
- ``GET  /stats``   — service / engine / cache / pre-warm counters

Error mapping keeps client and server faults distinct: malformed JSON
(deeply nested JSON included) or an unanswerable query
(:class:`~repro.service.app.QueryError`) is a 400, an unknown route a
404, a wrong method a 405, an oversized body a 413, and an evaluation
failure (:class:`~repro.engine.batch.BatchEvaluationError`, which names
the failed grid points) a 500 with the structured detail in the body.
Any other exception while answering a request is logged and answered
with a 500 naming it, and the connection is then closed; every error
status is counted in ``/stats`` ``errors``.

Bodies are framed by ``Content-Length`` alone, and it must be 1*DIGIT:
anything else is a 400, and a ``Transfer-Encoding`` of any kind a 501.
A request whose framing is refused (those two, an oversized body or
header block, a malformed request line or header, a truncated request)
closes the connection, since where its body ends is unknown.  An
``/advise`` answer is written as the bytes
:meth:`~repro.service.app.AdvisorService.advise` returns.

Connections are keep-alive by default (HTTP/1.1 semantics); the bench
harness leans on that to measure steady-state query latency rather than
TCP handshakes.
"""

from __future__ import annotations

import asyncio
import json
import logging
from typing import Awaitable, Callable

from repro.engine.batch import BatchEvaluationError
from repro.service.app import AdvisorService, QueryError
from repro.service.prewarm import PrewarmSpec, prewarm_worker

log = logging.getLogger("repro.service")

#: Largest accepted request body; advise queries are a few hundred bytes.
MAX_BODY = 1 << 20

#: Largest accepted request-line + headers block.
MAX_HEADER = 64 * 1024

_REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    413: "Payload Too Large",
    500: "Internal Server Error",
    501: "Not Implemented",
}


class _HttpError(Exception):
    """Abort the current request with a status and a JSON error body."""

    def __init__(self, status: int, message: str, **extra):
        super().__init__(message)
        self.status = status
        self.doc = {"error": message, **extra}


def _json(doc: dict) -> bytes:
    return json.dumps(doc).encode()


def _encode(status: int, body: bytes, keep_alive: bool) -> bytes:
    head = (
        f"HTTP/1.1 {status} {_REASONS.get(status, 'Unknown')}\r\n"
        f"Content-Type: application/json\r\n"
        f"Content-Length: {len(body)}\r\n"
        f"Connection: {'keep-alive' if keep_alive else 'close'}\r\n"
        f"\r\n"
    )
    return head.encode() + body


async def _read_request(
    reader: asyncio.StreamReader,
) -> tuple[str, str, dict[str, str], bytes] | None:
    """Parse one request; None on clean EOF (client closed keep-alive).

    Raises :class:`_HttpError` when the request's framing is refused.
    """
    try:
        head = await reader.readuntil(b"\r\n\r\n")
    except asyncio.IncompleteReadError as err:
        if not err.partial:
            return None  # connection closed between requests
        raise _HttpError(400, "truncated request") from None
    except asyncio.LimitOverrunError:
        raise _HttpError(413, "headers too large") from None
    lines = head.decode("latin-1").split("\r\n")
    parts = lines[0].split()
    if len(parts) != 3 or not parts[2].startswith("HTTP/1."):
        raise _HttpError(400, f"malformed request line {lines[0]!r}")
    method, target, _version = parts
    headers: dict[str, str] = {}
    for line in lines[1:]:
        if not line:
            continue
        name, sep, value = line.partition(":")
        if not sep:
            raise _HttpError(400, f"malformed header line {line!r}")
        name = name.strip().lower()
        value = value.strip(" \t")
        if name == "content-length" and headers.get(name, value) != value:
            raise _HttpError(400, "conflicting Content-Length headers")
        headers[name] = value
    if "transfer-encoding" in headers:
        raise _HttpError(
            501,
            f"Transfer-Encoding {headers['transfer-encoding']!r} is not "
            "supported: send the body with a Content-Length",
        )
    length_text = headers.get("content-length", "0")
    if not (length_text.isascii() and length_text.isdigit()):
        raise _HttpError(400, f"bad Content-Length {length_text!r}")
    length = int(length_text)
    if length > MAX_BODY:
        raise _HttpError(413, f"body of {length} bytes exceeds limit {MAX_BODY}")
    body = await reader.readexactly(length) if length else b""
    return method, target, headers, body


class ServiceServer:
    """One bound listening socket serving an :class:`AdvisorService`."""

    def __init__(
        self,
        service: AdvisorService,
        host: str = "127.0.0.1",
        port: int = 8787,
        prewarm: tuple[PrewarmSpec, ...] = (),
        prewarm_idle_s: float = 1.0,
    ):
        self.service = service
        self.host = host
        self.port = port
        self.prewarm = prewarm
        self.prewarm_idle_s = prewarm_idle_s
        self._server: asyncio.AbstractServer | None = None
        self._stop = asyncio.Event()
        self._prewarm_task: asyncio.Task | None = None

    @property
    def bound_port(self) -> int:
        """The actual port (differs from ``port`` when it was 0)."""
        assert self._server is not None, "server not started"
        return self._server.sockets[0].getsockname()[1]

    async def start(self) -> None:
        self._server = await asyncio.start_server(
            self._handle, self.host, self.port, limit=MAX_HEADER
        )
        if self.prewarm:
            self._prewarm_task = asyncio.create_task(
                prewarm_worker(
                    self.service,
                    self.prewarm,
                    idle_s=self.prewarm_idle_s,
                    stop=self._stop,
                ),
                name="repro-prewarm",
            )
        log.info("advisor service listening on %s:%d", self.host, self.bound_port)

    async def stop(self) -> None:
        self._stop.set()
        if self._prewarm_task is not None:
            await self._prewarm_task
            self._prewarm_task = None
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        self.service.close()

    async def serve_forever(self) -> None:
        assert self._server is not None, "call start() first"
        async with self._server:
            await self._server.serve_forever()

    # -- request handling --------------------------------------------------

    async def _handle(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            while True:
                # Kept only once a request is read whole: after a refused
                # framing, where the next request starts is unknown.
                keep_alive = False
                try:
                    parsed = await _read_request(reader)
                    if parsed is None:
                        break
                    method, target, headers, body = parsed
                    keep_alive = (
                        headers.get("connection", "keep-alive").lower() != "close"
                    )
                    status, payload = await self._dispatch(method, target, body)
                except _HttpError as err:
                    self.service.errors += 1
                    status, payload = err.status, _json(err.doc)
                except Exception as err:  # noqa: BLE001 - answer, then drop
                    log.exception("unhandled error answering a request")
                    self.service.errors += 1
                    status, payload = 500, _json({"error": f"internal error: {err!r}"})
                    keep_alive = False
                writer.write(_encode(status, payload, keep_alive))
                await writer.drain()
                if not keep_alive:
                    break
        except (ConnectionError, asyncio.IncompleteReadError):
            pass  # client went away mid-request
        except Exception:  # noqa: BLE001 - connection task must not leak
            log.exception("unhandled error on connection")
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _dispatch(
        self, method: str, target: str, body: bytes
    ) -> tuple[int, bytes]:
        path = target.split("?", 1)[0]
        route = _ROUTES.get(path)
        if route is None:
            raise _HttpError(
                404, f"no route {path!r}", routes=sorted(_ROUTES)
            )
        expect_method, handler = route
        if method != expect_method:
            raise _HttpError(405, f"{path} expects {expect_method}, got {method}")
        return await handler(self, body)

    async def _advise(self, body: bytes) -> tuple[int, bytes]:
        try:
            return 200, await self.service.advise(body)
        except QueryError as err:
            raise _HttpError(400, str(err)) from None
        except BatchEvaluationError as err:
            self.service.errors += 1
            log.error("advise grid failed: %s", err)
            return 500, _json({
                "error": str(err),
                "failed_points": [p.describe() for p in err.points],
            })

    async def _healthz(self, body: bytes) -> tuple[int, bytes]:
        return 200, _json(self.service.healthz_doc())

    async def _stats(self, body: bytes) -> tuple[int, bytes]:
        return 200, _json(self.service.stats_doc())


_Handler = Callable[[ServiceServer, bytes], Awaitable[tuple[int, bytes]]]
_ROUTES: dict[str, tuple[str, _Handler]] = {
    "/advise": ("POST", ServiceServer._advise),
    "/healthz": ("GET", ServiceServer._healthz),
    "/stats": ("GET", ServiceServer._stats),
}


async def start_service_server(
    service: AdvisorService,
    host: str = "127.0.0.1",
    port: int = 0,
    prewarm: tuple[PrewarmSpec, ...] = (),
    prewarm_idle_s: float = 1.0,
) -> ServiceServer:
    """Start a server (ephemeral port by default) and return it running.

    Callers (tests, the bench harness) own the loop; use
    :meth:`ServiceServer.stop` to shut down.
    """
    server = ServiceServer(
        service, host, port, prewarm=prewarm, prewarm_idle_s=prewarm_idle_s
    )
    await server.start()
    return server


def run_server(
    service: AdvisorService,
    host: str = "127.0.0.1",
    port: int = 8787,
    prewarm: tuple[PrewarmSpec, ...] = (),
    prewarm_idle_s: float = 1.0,
) -> None:
    """Blocking entrypoint used by ``repro-mrd serve``."""

    async def _main() -> None:
        server = ServiceServer(
            service, host, port, prewarm=prewarm, prewarm_idle_s=prewarm_idle_s
        )
        await server.start()
        print(
            f"repro-mrd advisor service on http://{server.host}:{server.bound_port} "
            f"(backend={service.default_backend}, "
            f"prewarm={', '.join(s.label for s in prewarm) or 'off'})",
            flush=True,
        )
        try:
            await server.serve_forever()
        except asyncio.CancelledError:
            pass
        finally:
            await server.stop()

    try:
        asyncio.run(_main())
    except KeyboardInterrupt:
        pass


__all__ = [
    "MAX_BODY",
    "ServiceServer",
    "run_server",
    "start_service_server",
]
