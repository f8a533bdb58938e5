"""Minimal HTTP/1.1 JSON transport over asyncio streams.

No web framework ships with the standard library, and this PR adds no
dependencies, so the transport is handwritten: a keep-alive HTTP/1.1
parser over ``asyncio.start_server`` streams, just enough protocol for
JSON request/response bodies.  All routing dispatches to
:class:`~repro.serve.service.CoverageService`; a
:class:`~repro.exceptions.ServeError` raised anywhere in a handler maps to
its HTTP status with the structured ``payload()`` as the JSON body, so
clients always get ``{"code", "message", ...}`` errors.

:class:`BackgroundServer` runs the loop in a daemon thread — the harness
tests and ``bench_serve.py`` use it to stand a real socket server up and
tear it down inside one process.
"""

from __future__ import annotations

import asyncio
import json
import threading
from typing import Any, Dict, Optional, Tuple

from repro.exceptions import ServeError
from repro.serve.config import ServeConfig
from repro.serve.service import CoverageService

#: Largest accepted request body; a delivery of a million short rows fits.
MAX_BODY_BYTES = 64 << 20
#: Largest accepted request-line + headers block.
MAX_HEADER_BYTES = 64 << 10

_STATUS_REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    409: "Conflict",
    413: "Payload Too Large",
    429: "Too Many Requests",
    500: "Internal Server Error",
}


def _json_bytes(body: Dict) -> bytes:
    return json.dumps(body, separators=(",", ":")).encode("utf-8")


def _response(status: int, body: Dict, keep_alive: bool) -> bytes:
    payload = _json_bytes(body)
    reason = _STATUS_REASONS.get(status, "Unknown")
    head = (
        f"HTTP/1.1 {status} {reason}\r\n"
        f"Content-Type: application/json\r\n"
        f"Content-Length: {len(payload)}\r\n"
        f"Connection: {'keep-alive' if keep_alive else 'close'}\r\n"
        f"\r\n"
    )
    return head.encode("ascii") + payload


class HttpServer:
    """Routes HTTP requests on asyncio streams into the service."""

    def __init__(self, service: CoverageService) -> None:
        self.service = service
        self._server: Optional[asyncio.AbstractServer] = None

    # ------------------------------------------------------------------
    # protocol
    # ------------------------------------------------------------------
    async def _read_request(
        self, reader: asyncio.StreamReader
    ) -> Optional[Tuple[str, str, Dict]]:
        """One request as ``(method, path, json_body)``; None at EOF."""
        try:
            head = await reader.readuntil(b"\r\n\r\n")
        except asyncio.IncompleteReadError:
            return None
        except asyncio.LimitOverrunError:
            raise ServeError(
                "bad_request", "request headers too large", status=400
            )
        if len(head) > MAX_HEADER_BYTES:
            raise ServeError(
                "bad_request", "request headers too large", status=400
            )
        lines = head.decode("latin-1").split("\r\n")
        try:
            method, path, _version = lines[0].split(" ", 2)
        except ValueError:
            raise ServeError(
                "bad_request", f"malformed request line {lines[0]!r}"
            )
        headers = {}
        for line in lines[1:]:
            if ":" in line:
                name, _, value = line.partition(":")
                headers[name.strip().lower()] = value.strip()
        try:
            length = int(headers.get("content-length", "0"))
        except ValueError:
            raise ServeError("bad_request", "bad Content-Length header")
        if length < 0:
            raise ServeError(
                "bad_request", f"negative Content-Length {length}"
            )
        if length > MAX_BODY_BYTES:
            raise ServeError(
                "payload_too_large",
                f"request body of {length} bytes exceeds the "
                f"{MAX_BODY_BYTES}-byte limit",
                status=413,
            )
        body: Dict = {}
        if length:
            raw = await reader.readexactly(length)
            try:
                body = json.loads(raw)
            except ValueError as error:
                raise ServeError("bad_request", f"bad JSON body: {error}")
            if not isinstance(body, dict):
                raise ServeError(
                    "bad_request", "JSON body must be an object"
                )
        return method.upper(), path.split("?", 1)[0], body

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            while True:
                try:
                    request = await self._read_request(reader)
                except ServeError as error:
                    # Parse errors poison the stream; answer and close.
                    writer.write(
                        _response(error.status, error.payload(), False)
                    )
                    await writer.drain()
                    break
                if request is None:
                    break
                method, path, body = request
                status, response = await self._dispatch(method, path, body)
                writer.write(_response(status, response, True))
                await writer.drain()
        except (ConnectionError, asyncio.IncompleteReadError):
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, asyncio.CancelledError):
                # Server-shutdown cancellation lands here; the transport is
                # already closing, so ending the task quietly is correct.
                pass

    # ------------------------------------------------------------------
    # routing
    # ------------------------------------------------------------------
    async def _dispatch(
        self, method: str, path: str, body: Dict
    ) -> Tuple[int, Dict]:
        try:
            handler = self._route(method, path)
            return 200, await handler(body)
        except ServeError as error:
            return error.status, error.payload()
        except Exception as error:  # noqa: BLE001 — a handler bug must not
            # kill the connection loop; surface it as a structured 500.
            return 500, {
                "code": "internal",
                "message": f"{type(error).__name__}: {error}",
            }

    def _route(self, method: str, path: str):
        routes = {
            ("GET", "/healthz"): self._handle_healthz,
            ("GET", "/stats"): self._handle_stats,
            ("POST", "/datasets"): self._handle_register,
            ("POST", "/label"): self._handle_label,
            ("POST", "/identify"): self._handle_identify,
            ("POST", "/sweep"): self._handle_sweep,
            ("POST", "/hierarchy"): self._handle_hierarchy,
            ("POST", "/enhance"): self._handle_enhance,
            ("POST", "/deliver"): self._handle_deliver,
        }
        handler = routes.get((method, path))
        if handler is None:
            known = {p for _, p in routes}
            if path in known:
                raise ServeError(
                    "method_not_allowed",
                    f"{method} not supported on {path}",
                    status=405,
                )
            raise ServeError(
                "not_found", f"no route {path!r}", status=404
            )
        return handler

    @staticmethod
    def _require(body: Dict, field: str) -> Any:
        if field not in body:
            raise ServeError(
                "bad_request", f"missing required field {field!r}"
            )
        return body[field]

    async def _handle_healthz(self, body: Dict) -> Dict:
        return {"status": "ok"}

    async def _handle_stats(self, body: Dict) -> Dict:
        return self.service.stats()

    async def _handle_register(self, body: Dict) -> Dict:
        return await self.service.register_dataset(
            self._require(body, "rows"), names=body.get("names")
        )

    async def _handle_label(self, body: Dict) -> Dict:
        return await self.service.label(
            self._require(body, "dataset"),
            self._require(body, "patterns"),
            threshold=body.get("threshold"),
        )

    async def _handle_identify(self, body: Dict) -> Dict:
        return await self.service.identify(
            self._require(body, "dataset"),
            self._require(body, "threshold"),
            algorithm=body.get("algorithm", "deepdiver"),
        )

    async def _handle_sweep(self, body: Dict) -> Dict:
        thresholds = body.get("thresholds", body.get("tau_range"))
        if thresholds is None:
            raise ServeError(
                "bad_request",
                "missing required field 'thresholds' (or 'tau_range')",
            )
        return await self.service.sweep(
            self._require(body, "dataset"),
            thresholds,
            attributes=body.get("attributes"),
            bootstrap=body.get("bootstrap", 0),
            seed=body.get("seed", 0),
            max_level=body.get("max_level"),
        )

    async def _handle_hierarchy(self, body: Dict) -> Dict:
        return await self.service.hierarchy(
            self._require(body, "dataset"),
            self._require(body, "hierarchies"),
            self._require(body, "threshold"),
            max_level=body.get("max_level"),
            remedies=body.get("remedies", True),
        )

    async def _handle_enhance(self, body: Dict) -> Dict:
        return await self.service.enhance(
            self._require(body, "dataset"),
            self._require(body, "threshold"),
            self._require(body, "level"),
            algorithm=body.get("algorithm", "deepdiver"),
        )

    async def _handle_deliver(self, body: Dict) -> Dict:
        return await self.service.deliver(
            self._require(body, "dataset"),
            self._require(body, "rows"),
            threshold=body.get("threshold"),
            algorithm=body.get("algorithm", "deepdiver"),
        )

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    async def start(self, host: str, port: int) -> Tuple[str, int]:
        """Bind and start serving; returns the bound ``(host, port)``."""
        self._server = await asyncio.start_server(
            self._handle_connection, host, port, limit=MAX_HEADER_BYTES
        )
        bound = self._server.sockets[0].getsockname()
        return bound[0], bound[1]

    async def serve_forever(self) -> None:
        if self._server is None:
            raise ServeError("bad_state", "server not started", status=500)
        async with self._server:
            await self._server.serve_forever()

    async def stop(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None


async def run_server(config: ServeConfig) -> None:
    """Build the service and serve until cancelled (the CLI entry point)."""
    service = CoverageService(config)
    server = HttpServer(service)
    host, port = await server.start(config.host, config.port)
    print(f"repro serve: listening on http://{host}:{port}", flush=True)
    try:
        await server.serve_forever()
    finally:
        await server.stop()
        service.close()


class BackgroundServer:
    """A served :class:`CoverageService` on a daemon-thread event loop.

    Used by the tests and the benchmark to run client code (blocking
    ``http.client`` calls, thread pools) against a live server in the same
    process::

        with BackgroundServer(config) as server:
            ... http.client.HTTPConnection(server.host, server.port) ...

    ``port=0`` in the config binds an ephemeral port; the bound address is
    on ``self.host`` / ``self.port`` once the context is entered.  The
    service itself is exposed as ``self.service`` so in-process callers can
    also drive it directly via :meth:`submit`.
    """

    def __init__(self, config: ServeConfig) -> None:
        self.config = config
        self.service = CoverageService(config)
        self.host = config.host
        self.port = config.port
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._thread: Optional[threading.Thread] = None
        self._started = threading.Event()
        self._startup_error: Optional[BaseException] = None

    def __enter__(self) -> "BackgroundServer":
        self._thread = threading.Thread(
            target=self._run, name="repro-serve", daemon=True
        )
        self._thread.start()
        if not self._started.wait(timeout=30):
            raise ServeError("bad_state", "server failed to start", 500)
        if self._startup_error is not None:
            raise self._startup_error
        return self

    def _run(self) -> None:
        loop = asyncio.new_event_loop()
        asyncio.set_event_loop(loop)
        self._loop = loop
        server = HttpServer(self.service)
        try:
            self.host, self.port = loop.run_until_complete(
                server.start(self.config.host, self.config.port)
            )
        except BaseException as error:  # bind failure reaches __enter__
            self._startup_error = error
            self._started.set()
            loop.close()
            return
        self._started.set()
        try:
            loop.run_forever()
        finally:
            loop.run_until_complete(server.stop())
            # Let in-flight connection tasks unwind before closing the loop.
            pending = asyncio.all_tasks(loop)
            for task in pending:
                task.cancel()
            if pending:
                loop.run_until_complete(
                    asyncio.gather(*pending, return_exceptions=True)
                )
            loop.close()

    def submit(self, coroutine) -> Any:
        """Run ``coroutine`` on the server loop; blocks for the result."""
        if self._loop is None:
            raise ServeError("bad_state", "server not running", 500)
        return asyncio.run_coroutine_threadsafe(
            coroutine, self._loop
        ).result(timeout=300)

    def __exit__(self, *exc_info) -> None:
        if self._loop is not None:
            self._loop.call_soon_threadsafe(self._loop.stop)
        if self._thread is not None:
            self._thread.join(timeout=30)
        self.service.close()
        self._loop = None
        self._thread = None
