"""A minimal asyncio HTTP face for the job service (stdlib only).

``python -m repro serve`` runs this server.  It speaks just enough
HTTP/1.1 for the service's JSON API — one request per connection
(``Connection: close``), no framework, no dependencies beyond
:mod:`asyncio`:

==========  =========================  ==========================================
method      path                       semantics
==========  =========================  ==========================================
``GET``     ``/healthz``               liveness (always 200 once listening)
``GET``     ``/statsz``                service + store counters
``POST``    ``/jobs``                  submit a ``pipeline_spec`` dict; 200 on a
                                       store hit (artifact inline), 202 when
                                       queued or deduplicated in flight; add
                                       ``?wait=SECONDS`` to long-poll completion
``GET``     ``/jobs``                  list tracked jobs
``GET``     ``/jobs/{id}``             one job; ``?wait=SECONDS`` long-polls its
                                       terminal state
``GET``     ``/jobs/{id}/artifact``    the finished report artifact (409 until
                                       terminal)
``GET``     ``/jobs/{id}/events``      newline-delimited JSON status stream
                                       until the job is terminal
``POST``    ``/shutdown``              begin graceful shutdown
==========  =========================  ==========================================

Job ids are spec hashes (:meth:`~repro.api.spec.PipelineSpec.spec_hash`), so
clients that can hash a spec locally never need to remember server state.
"""

from __future__ import annotations

import asyncio
import contextlib
import json
import signal
from typing import Any, Callable, Dict, Optional, Tuple
from urllib.parse import parse_qs, urlsplit

from ..api.serialize import SchemaError
from .jobs import JobService, ServiceClosed

__all__ = ["JobServer", "serve"]

#: Upper bound on request bodies (a spec with a large inline netlist is tens
#: of kilobytes; 16 MiB leaves room without inviting memory abuse).
MAX_BODY_BYTES = 16 * 1024 * 1024

#: Cap on ``?wait=`` long-poll durations.
MAX_WAIT_SECONDS = 600.0

#: Deadline for reading one whole request: request line, headers and body.
REQUEST_TIMEOUT_SECONDS = 30.0


class _HttpError(Exception):
    """An error response short-circuiting the handler."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status
        self.message = message


_REASONS = {
    200: "OK",
    202: "Accepted",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    409: "Conflict",
    413: "Payload Too Large",
    500: "Internal Server Error",
    503: "Service Unavailable",
}


class JobServer:
    """Bind a :class:`~repro.service.jobs.JobService` to a TCP port."""

    def __init__(
        self,
        service: JobService,
        host: str = "127.0.0.1",
        port: int = 8787,
        on_shutdown: Optional[Callable[[], None]] = None,
    ) -> None:
        self.service = service
        self.host = host
        self.port = port
        self.on_shutdown = on_shutdown
        self._server: Optional[asyncio.base_events.Server] = None

    async def start(self) -> None:
        """Start listening; ``self.port`` reflects the bound port (port 0)."""
        self._server = await asyncio.start_server(self._handle, self.host, self.port)
        self.port = self._server.sockets[0].getsockname()[1]

    async def close(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None

    # ------------------------------------------------------------------ #
    # Connection handling
    # ------------------------------------------------------------------ #
    async def _handle(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            try:
                method, path, query, body = await self._read_request(reader)
            except _HttpError as exc:
                await self._send_json(
                    writer, exc.status, {"error": exc.message}
                )
                return
            try:
                await self._dispatch(writer, method, path, query, body)
            except _HttpError as exc:
                await self._send_json(writer, exc.status, {"error": exc.message})
            except Exception as exc:  # pragma: no cover - defensive
                await self._send_json(
                    writer, 500, {"error": f"{type(exc).__name__}: {exc}"}
                )
        except (ConnectionError, asyncio.IncompleteReadError):
            pass  # client went away mid-exchange
        finally:
            with contextlib.suppress(Exception):
                writer.close()
                await writer.wait_closed()

    async def _read_request(
        self, reader: asyncio.StreamReader
    ) -> Tuple[str, str, Dict[str, Any], bytes]:
        """Read one request under a single deadline (a stalled client gets a
        400, never an open connection held forever)."""
        try:
            return await asyncio.wait_for(
                self._read_request_parts(reader), REQUEST_TIMEOUT_SECONDS
            )
        except asyncio.TimeoutError as exc:
            raise _HttpError(400, "request timeout") from exc

    async def _read_request_parts(
        self, reader: asyncio.StreamReader
    ) -> Tuple[str, str, Dict[str, Any], bytes]:
        request_line = await self._read_line(reader)
        parts = request_line.decode("latin-1").split()
        if len(parts) != 3:
            raise _HttpError(400, "malformed request line")
        method, target, _ = parts
        split = urlsplit(target)
        query = {
            key: values[-1] for key, values in parse_qs(split.query).items()
        }
        content_length = 0
        while True:
            line = await self._read_line(reader)
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.decode("latin-1").partition(":")
            if name.strip().lower() == "content-length":
                value = value.strip()
                # Digits only: int() would also take a sign, "_" separators
                # and non-ASCII digits.
                if not (value.isascii() and value.isdigit()):
                    raise _HttpError(400, "bad Content-Length")
                content_length = int(value)
        if content_length > MAX_BODY_BYTES:
            raise _HttpError(413, "request body too large")
        body = await reader.readexactly(content_length) if content_length else b""
        return method.upper(), split.path, query, body

    @staticmethod
    async def _read_line(reader: asyncio.StreamReader) -> bytes:
        try:
            return await reader.readline()
        except ValueError as exc:  # longer than the stream's buffer limit
            raise _HttpError(400, "request line or header too long") from exc

    async def _send_json(
        self, writer: asyncio.StreamWriter, status: int, payload: Any
    ) -> None:
        await self._send_text(writer, status, json.dumps(payload))

    async def _send_text(self, writer: asyncio.StreamWriter, status: int, text: str) -> None:
        """Send ``text``, already JSON, as the response body."""
        body = (text + "\n").encode("utf-8")
        writer.write(self._headers(status, "application/json", len(body)))
        writer.write(body)
        await writer.drain()

    @staticmethod
    def _headers(
        status: int, content_type: str, content_length: Optional[int]
    ) -> bytes:
        lines = [
            f"HTTP/1.1 {status} {_REASONS.get(status, 'Unknown')}",
            f"Content-Type: {content_type}",
            "Connection: close",
        ]
        if content_length is not None:
            lines.append(f"Content-Length: {content_length}")
        return ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1")

    # ------------------------------------------------------------------ #
    # Routing
    # ------------------------------------------------------------------ #
    async def _dispatch(
        self,
        writer: asyncio.StreamWriter,
        method: str,
        path: str,
        query: Dict[str, Any],
        body: bytes,
    ) -> None:
        if path == "/healthz":
            self._expect(method, "GET")
            await self._send_json(
                writer, 200, {"status": "ok", "closed": self.service.closed}
            )
        elif path == "/statsz":
            self._expect(method, "GET")
            await self._send_json(writer, 200, self.service.stats())
        elif path == "/jobs":
            if method == "POST":
                await self._submit(writer, query, body)
            elif method == "GET":
                await self._send_json(
                    writer,
                    200,
                    {"jobs": [job.to_dict() for job in self.service.jobs()]},
                )
            else:
                raise _HttpError(405, f"method {method} not allowed on {path}")
        elif path.startswith("/jobs/"):
            await self._job_routes(writer, method, path, query)
        elif path == "/shutdown":
            self._expect(method, "POST")
            await self._send_json(writer, 200, {"status": "shutting down"})
            if self.on_shutdown is not None:
                self.on_shutdown()
        else:
            raise _HttpError(404, f"unknown path {path}")

    @staticmethod
    def _expect(method: str, expected: str) -> None:
        if method != expected:
            raise _HttpError(405, f"method {method} not allowed")

    @staticmethod
    def _wait_seconds(query: Dict[str, Any]) -> Optional[float]:
        raw = query.get("wait")
        if raw is None:
            return None
        try:
            seconds = float(raw)
        except ValueError as exc:
            raise _HttpError(400, f"bad wait value {raw!r}") from exc
        return max(0.0, min(seconds, MAX_WAIT_SECONDS))

    async def _submit(
        self, writer: asyncio.StreamWriter, query: Dict[str, Any], body: bytes
    ) -> None:
        try:
            spec_dict = json.loads(body.decode("utf-8"))
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise _HttpError(400, f"request body is not JSON: {exc}") from exc
        try:
            job, disposition = self.service.submit(spec_dict)
        except SchemaError as exc:
            raise _HttpError(400, f"invalid pipeline spec: {exc}") from exc
        except ServiceClosed as exc:
            raise _HttpError(503, str(exc)) from exc
        wait = self._wait_seconds(query)
        if wait and not job.terminal:
            await job.wait_done(wait)
        status = 200 if job.terminal else 202
        # The artifact is spliced in as the job's JSON text, never re-encoded.
        await self._send_text(
            writer,
            status,
            f'{{"disposition": {json.dumps(disposition)}, '
            f'"job": {job.to_json(with_artifact=job.terminal)}}}',
        )

    async def _job_routes(
        self,
        writer: asyncio.StreamWriter,
        method: str,
        path: str,
        query: Dict[str, Any],
    ) -> None:
        self._expect(method, "GET")
        parts = path[len("/jobs/") :].split("/")
        job = self.service.job(parts[0])
        if job is None:
            raise _HttpError(404, f"unknown job {parts[0]!r}")
        if len(parts) == 1:
            wait = self._wait_seconds(query)
            if wait and not job.terminal:
                await job.wait_done(wait)
            await self._send_json(writer, 200, {"job": job.to_dict()})
        elif parts[1:] == ["artifact"]:
            if not job.terminal:
                raise _HttpError(409, f"job {job.spec_hash} is {job.status}")
            if job.artifact_json is None:
                raise _HttpError(409, f"job {job.spec_hash} failed: {job.error}")
            await self._send_text(writer, 200, job.artifact_json)
        elif parts[1:] == ["events"]:
            await self._stream_events(writer, job)
        else:
            raise _HttpError(404, f"unknown path {path}")

    async def _stream_events(self, writer: asyncio.StreamWriter, job) -> None:
        """Newline-delimited JSON snapshots until the job is terminal."""
        writer.write(self._headers(200, "application/x-ndjson", None))
        seen = -1
        while True:
            snapshot = job.to_dict()
            writer.write((json.dumps(snapshot) + "\n").encode("utf-8"))
            await writer.drain()
            if job.terminal:
                return
            seen = job.version
            await job.wait_change(seen)


async def serve(
    host: str = "127.0.0.1",
    port: int = 8787,
    store: Optional[Any] = None,
    parallelism: int = 1,
    use_processes: Optional[bool] = None,
    grace: float = 10.0,
    ready: Optional[Callable[["JobServer"], None]] = None,
) -> None:
    """Run the job service until SIGINT/SIGTERM or ``POST /shutdown``.

    ``ready`` is called once the socket is bound (tests grab the port from
    it); the CLI prints the listening address instead.  Shutdown is
    graceful: the listener closes, running jobs get ``grace`` seconds, then
    stragglers are cancelled.
    """
    service = JobService(store=store, parallelism=parallelism, use_processes=use_processes)
    stop = asyncio.Event()
    server = JobServer(service, host=host, port=port, on_shutdown=stop.set)
    await server.start()
    if ready is not None:
        ready(server)
    else:
        print(f"repro service listening on http://{server.host}:{server.port}", flush=True)

    loop = asyncio.get_running_loop()
    registered = []
    for signum in (signal.SIGINT, signal.SIGTERM):
        try:
            loop.add_signal_handler(signum, stop.set)
            registered.append(signum)
        except (NotImplementedError, RuntimeError):  # pragma: no cover
            pass  # platforms/loops without signal support
    try:
        await stop.wait()
    finally:
        for signum in registered:
            loop.remove_signal_handler(signum)
        await server.close()
        await service.shutdown(grace)
