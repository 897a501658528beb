"""The asyncio sweep service: HTTP front end + dispatcher.

Stdlib-only (``asyncio.start_server`` with a small HTTP/1.1 layer — no new
dependencies).  The service owns a persistent :class:`JobQueue` and one
:class:`LocalBackend`; dispatcher tasks claim jobs in priority/FIFO order
and run them on the backend via ``asyncio.to_thread``, so the event loop
keeps serving requests while sweeps execute.

Routes::

    POST /jobs             submit a JSON job spec    → 202 {job}
                           queue full                → 429 + Retry-After
                           invalid spec              → 400 {error}
                           body over the size cap    → 413 {error}
    GET  /jobs[?state=s]   list jobs, newest first
    GET  /jobs/{id}        one job's state/result
    GET  /jobs/{id}/events SSE progress stream (trace events + lifecycle)
    GET  /healthz          liveness + queue depth
    GET  /metrics          the service node's metrics registry

Service metrics (see docs/observability.md): ``service.jobs.submitted`` /
``.completed`` / ``.failed`` / ``.rejected`` counters, a
``service.queue.depth`` gauge, and a ``service.job.seconds`` histogram.

Restart safety: on startup the service calls :meth:`JobQueue.recover`,
flipping jobs orphaned in ``running`` back to ``pending`` — a killed
service resumes its backlog when relaunched on the same queue file.
"""

from __future__ import annotations

import asyncio
import json
import threading
import time
from typing import Any, Dict, List, Optional
from urllib.parse import parse_qs, urlsplit

from ..errors import QueueFullError, ServiceError
from ..obs import MetricsRegistry
from .backends import LocalBackend
from .queue import Job, JobQueue
from .spec import JobSpec

#: Events kept per job for SSE replay; older events are dropped oldest-first.
MAX_BUFFERED_EVENTS = 4096

#: Largest request body accepted.  A job spec is a few hundred bytes; the
#: cap bounds what one client can make the server buffer.
MAX_REQUEST_BYTES = 1024 * 1024


class _Rejected(Exception):
    """A request refused before routing; carries its HTTP status."""

    def __init__(self, status: int, message: str):
        super().__init__(message)
        self.status = status


class _JobFeed:
    """One job's live event buffer, shared by dispatcher and SSE readers."""

    def __init__(self) -> None:
        self.events: List[Dict[str, Any]] = []
        self.dropped = 0
        self.finished = False
        self.changed = asyncio.Event()

    def push(self, event: Dict[str, Any]) -> None:
        self.events.append(event)
        if len(self.events) > MAX_BUFFERED_EVENTS:
            del self.events[0]
            self.dropped += 1
        self.changed.set()

    def finish(self) -> None:
        self.finished = True
        self.changed.set()


class SweepService:
    """Queue + backend + HTTP front end, wired onto one event loop."""

    def __init__(
        self,
        queue: JobQueue,
        backend: LocalBackend,
        workers: int = 1,
        registry: Optional[MetricsRegistry] = None,
    ):
        if workers < 0:
            raise ServiceError(f"workers must be >= 0, got {workers}")
        self.queue = queue
        self.backend = backend
        self.workers = workers
        self.registry = registry if registry is not None else MetricsRegistry()
        self.host: Optional[str] = None
        self.port: Optional[int] = None
        self._feeds: Dict[int, _JobFeed] = {}
        self._wake = asyncio.Event()
        self._server: Optional[asyncio.AbstractServer] = None
        self._dispatchers: List[asyncio.Task] = []
        self._stopping = False

    # -- lifecycle ---------------------------------------------------------

    async def start(self, host: str = "127.0.0.1", port: int = 0) -> None:
        """Bind the listener, recover orphaned jobs, start dispatchers."""
        recovered = self.queue.recover()
        if recovered:
            self.registry.counter("service.jobs.recovered").inc(recovered)
        self._server = await asyncio.start_server(self._handle, host, port)
        sock = self._server.sockets[0]
        self.host, self.port = sock.getsockname()[:2]
        self._update_depth()
        self._dispatchers = [
            asyncio.create_task(self._dispatch_loop(i))
            for i in range(self.workers)
        ]
        self._wake.set()

    async def stop(self) -> None:
        self._stopping = True
        self._wake.set()
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        for task in self._dispatchers:
            task.cancel()
        for task in self._dispatchers:
            try:
                await task
            except (asyncio.CancelledError, Exception):
                pass
        await asyncio.to_thread(self.backend.close)

    async def serve_forever(self) -> None:
        assert self._server is not None, "call start() first"
        async with self._server:
            await self._server.serve_forever()

    # -- dispatch ----------------------------------------------------------

    def _update_depth(self) -> None:
        self.registry.gauge("service.queue.depth").set(self.queue.depth())

    async def _dispatch_loop(self, index: int) -> None:
        while not self._stopping:
            job = await asyncio.to_thread(self.queue.claim)
            if job is None:
                self._wake.clear()
                try:
                    await asyncio.wait_for(self._wake.wait(), timeout=1.0)
                except asyncio.TimeoutError:
                    pass  # re-poll: the queue file may be shared externally
                continue
            await self._run_job(job)

    async def _run_job(self, job: Job) -> None:
        loop = asyncio.get_running_loop()
        feed = self._feeds.setdefault(job.id, _JobFeed())
        feed.push({
            "name": "service.job.started",
            "t": time.time(),
            "job": job.id,
            "attempt": job.attempts,
        })
        self._update_depth()

        def sink(event: Dict[str, Any]) -> None:
            # Called from the backend's worker thread.
            loop.call_soon_threadsafe(feed.push, event)

        started = time.monotonic()
        try:
            result = await asyncio.to_thread(self.backend.run_job, job.spec, sink)
        except Exception as error:
            message = f"{type(error).__name__}: {error}"
            await asyncio.to_thread(self.queue.fail, job.id, message)
            self.registry.counter("service.jobs.failed").inc()
            feed.push({
                "name": "service.job.failed",
                "t": time.time(),
                "job": job.id,
                "error": message,
            })
        else:
            await asyncio.to_thread(self.queue.finish, job.id, result)
            self.registry.counter("service.jobs.completed").inc()
            feed.push({
                "name": "service.job.done",
                "t": time.time(),
                "job": job.id,
                "result": result,
            })
        finally:
            self.registry.histogram("service.job.seconds").observe(
                time.monotonic() - started
            )
            feed.finish()
            self._update_depth()

    # -- HTTP --------------------------------------------------------------

    async def _handle(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            try:
                request = await self._read_request(reader)
            except _Rejected as rejected:
                self.registry.counter("service.jobs.rejected").inc()
                await self._send_json(
                    writer, rejected.status, {"error": str(rejected)}
                )
                return
            if request is None:
                return
            method, target, body = request
            await self._route(method, target, body, writer)
        except ConnectionError:
            pass
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except Exception:
                pass

    @staticmethod
    async def _read_request(reader: asyncio.StreamReader):
        """``(method, target, body)``, or None for a request to drop unanswered.

        Raises :class:`_Rejected` for a malformed or oversized body length.
        """
        headers: Dict[str, str] = {}
        try:
            parts = (await reader.readline()).decode("latin-1").split()
            if len(parts) != 3:
                return None
            method, target, _version = parts
            while True:
                line = await reader.readline()
                if line in (b"\r\n", b"\n", b""):
                    break
                name, _, value = line.decode("latin-1").partition(":")
                headers[name.strip().lower()] = value.strip()
        except ValueError:  # a line longer than the reader's limit
            return None
        text = headers.get("content-length", "0")
        if not (text.isascii() and text.isdigit()):
            raise _Rejected(400, f"malformed Content-Length {text[:32]!r}")
        # Count digits before converting: int() refuses very long strings.
        digits = text.lstrip("0") or "0"
        if (len(digits) > len(str(MAX_REQUEST_BYTES))
                or int(digits) > MAX_REQUEST_BYTES):
            raise _Rejected(
                413, f"body exceeds the {MAX_REQUEST_BYTES}-byte cap"
            )
        length = int(digits)
        try:
            body = await reader.readexactly(length)
        except asyncio.IncompleteReadError:
            return None  # the client hung up mid-body
        return method, target, body

    async def _route(
        self,
        method: str,
        target: str,
        body: bytes,
        writer: asyncio.StreamWriter,
    ) -> None:
        split = urlsplit(target)
        path = split.path.rstrip("/") or "/"
        query = parse_qs(split.query)

        if method == "POST" and path == "/jobs":
            await self._post_job(body, writer)
        elif method == "GET" and path == "/jobs":
            state = query.get("state", [None])[0]
            try:
                jobs = await asyncio.to_thread(self.queue.jobs, state)
            except ServiceError as error:
                await self._send_json(writer, 400, {"error": str(error)})
                return
            await self._send_json(
                writer, 200, {"jobs": [job.to_dict() for job in jobs]}
            )
        elif method == "GET" and path == "/healthz":
            await self._send_json(writer, 200, {
                "ok": True,
                "backend": self.backend.name,
                "workers": self.workers,
                "depth": await asyncio.to_thread(self.queue.depth),
            })
        elif method == "GET" and path == "/metrics":
            await self._send_json(writer, 200, self.registry.as_dict())
        elif method == "GET" and path.startswith("/jobs/"):
            tail = path[len("/jobs/"):]
            if tail.endswith("/events"):
                await self._stream_events(tail[: -len("/events")].rstrip("/"), writer)
            else:
                await self._get_job(tail, writer)
        else:
            await self._send_json(
                writer, 404, {"error": f"no route for {method} {path}"}
            )

    async def _post_job(self, body: bytes, writer: asyncio.StreamWriter) -> None:
        try:
            spec = JobSpec.from_json(body.decode("utf-8"))
        except (ServiceError, UnicodeDecodeError) as error:
            self.registry.counter("service.jobs.rejected").inc()
            await self._send_json(writer, 400, {"error": str(error)})
            return
        try:
            job = await asyncio.to_thread(self.queue.submit, spec)
        except QueueFullError as error:
            self.registry.counter("service.jobs.rejected").inc()
            await self._send_json(
                writer, 429, {"error": str(error)},
                extra_headers={"Retry-After": f"{error.retry_after:g}"},
            )
            return
        self.registry.counter("service.jobs.submitted").inc()
        self._update_depth()
        self._feeds.setdefault(job.id, _JobFeed())
        self._wake.set()
        await self._send_json(writer, 202, {"job": job.to_dict()})

    async def _get_job(self, tail: str, writer: asyncio.StreamWriter) -> None:
        job_id = self._parse_id(tail)
        if job_id is None:
            await self._send_json(writer, 400, {"error": f"bad job id {tail!r}"})
            return
        job = await asyncio.to_thread(self.queue.job, job_id)
        if job is None:
            await self._send_json(writer, 404, {"error": f"no job {job_id}"})
            return
        await self._send_json(writer, 200, {"job": job.to_dict()})

    async def _stream_events(self, tail: str, writer: asyncio.StreamWriter) -> None:
        job_id = self._parse_id(tail)
        if job_id is None:
            await self._send_json(writer, 400, {"error": f"bad job id {tail!r}"})
            return
        job = await asyncio.to_thread(self.queue.job, job_id)
        if job is None:
            await self._send_json(writer, 404, {"error": f"no job {job_id}"})
            return
        feed = self._feeds.get(job_id)
        writer.write(
            b"HTTP/1.1 200 OK\r\n"
            b"Content-Type: text/event-stream\r\n"
            b"Cache-Control: no-cache\r\n"
            b"Connection: close\r\n"
            b"\r\n"
        )
        await writer.drain()

        if feed is None:
            # Job predates this process (restarted service): emit what the
            # queue knows, then end the stream.
            payload = json.dumps(job.to_dict(), sort_keys=True)
            writer.write(f"event: job\ndata: {payload}\n\n".encode("utf-8"))
            await writer.drain()
            return

        sent = 0
        while True:
            while sent < len(feed.events) + feed.dropped:
                index = sent - feed.dropped
                if index < 0:  # buffer overflowed past this reader
                    sent = feed.dropped
                    continue
                event = feed.events[index]
                payload = json.dumps(event, sort_keys=True)
                name = event.get("name", "event")
                writer.write(
                    f"event: {name}\ndata: {payload}\n\n".encode("utf-8")
                )
                sent += 1
            await writer.drain()
            if feed.finished and sent >= len(feed.events) + feed.dropped:
                return
            feed.changed.clear()
            try:
                await asyncio.wait_for(feed.changed.wait(), timeout=15.0)
            except asyncio.TimeoutError:
                writer.write(b": keep-alive\n\n")
                await writer.drain()

    @staticmethod
    def _parse_id(text: str) -> Optional[int]:
        try:
            return int(text)
        except ValueError:
            return None

    _STATUS = {
        200: "OK",
        202: "Accepted",
        400: "Bad Request",
        404: "Not Found",
        413: "Payload Too Large",
        429: "Too Many Requests",
        500: "Internal Server Error",
    }

    async def _send_json(
        self,
        writer: asyncio.StreamWriter,
        status: int,
        payload: Dict[str, Any],
        extra_headers: Optional[Dict[str, str]] = None,
    ) -> None:
        body = json.dumps(payload, sort_keys=True).encode("utf-8")
        lines = [
            f"HTTP/1.1 {status} {self._STATUS.get(status, 'Unknown')}",
            "Content-Type: application/json",
            f"Content-Length: {len(body)}",
            "Connection: close",
        ]
        for name, value in (extra_headers or {}).items():
            lines.append(f"{name}: {value}")
        writer.write(("\r\n".join(lines) + "\r\n\r\n").encode("latin-1") + body)
        await writer.drain()


async def run_service(
    queue: JobQueue,
    backend: LocalBackend,
    host: str = "127.0.0.1",
    port: int = 8766,
    workers: int = 1,
    registry: Optional[MetricsRegistry] = None,
    ready: Optional[Any] = None,
) -> None:
    """Start a service and serve until cancelled (the ``repro serve`` body)."""
    service = SweepService(queue, backend, workers=workers, registry=registry)
    await service.start(host, port)
    if ready is not None:
        ready(service)
    try:
        await service.serve_forever()
    finally:
        await service.stop()


class ServiceThread:
    """A service on a background thread — tests, benchmarks, embedding.

    Binds an ephemeral port by default; ``host``/``port`` report the bound
    address once the constructor returns.  ``stop()`` shuts the loop down
    and joins the thread.
    """

    def __init__(
        self,
        queue: JobQueue,
        backend: LocalBackend,
        host: str = "127.0.0.1",
        port: int = 0,
        workers: int = 1,
        registry: Optional[MetricsRegistry] = None,
    ):
        self.service: Optional[SweepService] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._started = threading.Event()
        self._thread = threading.Thread(
            target=self._run,
            args=(queue, backend, host, port, workers, registry),
            daemon=True,
        )
        self._thread.start()
        if not self._started.wait(timeout=30):
            raise ServiceError("service thread failed to start within 30s")

    def _run(self, queue, backend, host, port, workers, registry) -> None:
        async def body():
            self._loop = asyncio.get_running_loop()
            service = SweepService(
                queue, backend, workers=workers, registry=registry
            )
            await service.start(host, port)
            self.service = service
            self._started.set()
            try:
                await service.serve_forever()
            except asyncio.CancelledError:
                pass
            finally:
                await service.stop()

        try:
            asyncio.run(body())
        finally:
            self._started.set()  # unblock the constructor on startup failure

    @property
    def host(self) -> str:
        assert self.service is not None
        return self.service.host

    @property
    def port(self) -> int:
        assert self.service is not None
        return self.service.port

    def stop(self) -> None:
        if self._loop is not None and self._loop.is_running():
            def _cancel():
                for task in asyncio.all_tasks(self._loop):
                    task.cancel()

            self._loop.call_soon_threadsafe(_cancel)
        self._thread.join(timeout=30)
