"""Asyncio HTTP server for the simulation service (stdlib only).

A deliberately small HTTP/1.1 implementation over ``asyncio`` streams -
no framework dependency, one connection per request (``Connection:
close``), JSON in and out.  The API surface:

=============================  =========================================
``POST /v1/jobs``              submit a job (``simulate`` / ``matrix`` /
                               ``stacks``); 202 accepted (``Location``
                               header), 200 on a result-store hit, 400
                               invalid, 429 shed with ``Retry-After``,
                               503 while draining
``GET /v1/jobs/<id>``          job status; includes the result payload
                               once the job is ``done``
``DELETE /v1/jobs/<id>``       cancel: queued jobs are removed, running
                               jobs stop at the next cell boundary
``GET /healthz``               liveness + state counts
``GET /metrics``               Prometheus text format, fed from the
                               scheduler's ObsRegistry
=============================  =========================================

When the scheduler's backend is a fleet coordinator's ring
(:class:`repro.fleet.coordinator.FleetCoordinator`), the same front
adds the fleet routes, the holding ``node`` to job records and a
``fleet`` section to ``/healthz``:

=============================  =========================================
``POST /v1/fleet/register``    a worker announces itself
                               (``{"url": "http://host:port"}``);
                               idempotent, revives a dead node
``GET /v1/fleet``              fleet topology: per-worker liveness,
                               outstanding jobs, completions
=============================  =========================================

The client id used for quota accounting comes from the ``X-Client``
header (falling back to a ``client`` field in the body, then
``anonymous``).

:func:`serve` is the blocking ``wsrs serve`` entry point: it installs
SIGINT/SIGTERM handlers that stop the listener and *drain* the
scheduler - running jobs finish, the backlog is cancelled, the worker
pool is reaped - before the process exits; ``wsrs fleet
serve-coordinator`` runs it over a ring-backed scheduler.
:class:`EmbeddedServer` runs the same stack on a background thread with
an OS-assigned port, which is how the load tester, the local fleet
harness and the test-suite spin up a live server in-process.
"""

from __future__ import annotations

import asyncio
import json
import signal
import threading
from typing import Callable, Dict, Optional, Tuple

from repro.service.jobs import Job
from repro.service.scheduler import (
    Admission,
    Backend,
    Scheduler,
    SchedulerConfig,
    prometheus_text,
)
from repro.service.store import DEFAULT_TTL_SECONDS, ResultStore

#: Largest accepted request body (a job request is tiny; anything bigger
#: is abuse).
MAX_BODY_BYTES = 64 * 1024

_STATUS_REASONS = {
    200: "OK", 202: "Accepted", 400: "Bad Request", 404: "Not Found",
    405: "Method Not Allowed", 409: "Conflict", 413: "Payload Too Large",
    429: "Too Many Requests", 500: "Internal Server Error",
    503: "Service Unavailable",
}


class _BadRequest(Exception):
    """An HTTP request that could not be parsed at all."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status
        self.message = message


async def _read_request(reader: asyncio.StreamReader
                        ) -> Tuple[str, str, Dict[str, str], bytes]:
    """Parse one HTTP/1.1 request into (method, target, headers, body).

    Raises :class:`_BadRequest` on malformed or oversized input.
    """
    try:
        request_line = await asyncio.wait_for(reader.readline(),
                                              timeout=10.0)
        parts = request_line.decode("latin-1").split()
        if len(parts) != 3:
            raise _BadRequest(400, "malformed request line")
        method, target, _version = parts
        headers: Dict[str, str] = {}
        while True:
            line = await asyncio.wait_for(reader.readline(),
                                          timeout=10.0)
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        length = int(headers.get("content-length", "0") or "0")
        if length > MAX_BODY_BYTES:
            raise _BadRequest(413, "request body too large")
        body = await reader.readexactly(length) if length else b""
    except (asyncio.TimeoutError, asyncio.IncompleteReadError,
            UnicodeDecodeError, ValueError):
        raise _BadRequest(400, "malformed request") from None
    return method.upper(), target, headers, body


class ServiceServer:
    """One listening socket routing requests into a :class:`Scheduler`."""

    def __init__(self, scheduler: Scheduler, host: str = "127.0.0.1",
                 port: int = 0) -> None:
        self.scheduler = scheduler
        self.host = host
        self.port = port
        self._server: Optional[asyncio.AbstractServer] = None

    async def start(self) -> None:
        self._server = await asyncio.start_server(
            self._handle, self.host, self.port)
        self.port = self._server.sockets[0].getsockname()[1]

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    async def stop(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None

    # -- request plumbing ------------------------------------------------

    async def _handle(self, reader: asyncio.StreamReader,
                      writer: asyncio.StreamWriter) -> None:
        try:
            status, payload, extra = await self._respond(reader)
        except Exception as exc:  # defensive: a handler bug must not
            # take the server down with the connection
            status, payload, extra = 500, {"error": f"internal error: "
                                                    f"{type(exc).__name__}"}, {}
        try:
            writer.write(_render_response(status, payload, extra))
            await writer.drain()
        except (ConnectionError, OSError):
            pass  # client went away mid-reply
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _respond(self, reader: asyncio.StreamReader
                       ) -> Tuple[int, object, Dict[str, str]]:
        try:
            method, target, headers, body = await _read_request(reader)
        except _BadRequest as bad:
            return bad.status, {"error": bad.message}, {}
        return self.route(method, target, headers, body)

    # -- routing ---------------------------------------------------------

    def route(self, method: str, target: str, headers: Dict[str, str],
              body: bytes) -> Tuple[int, object, Dict[str, str]]:
        path = target.split("?", 1)[0]
        fleet = self.scheduler.backend.fleet
        if path == "/healthz":
            if method != "GET":
                return 405, {"error": "healthz is GET-only"}, {}
            return 200, self._healthz(), {}
        if path == "/metrics":
            if method != "GET":
                return 405, {"error": "metrics is GET-only"}, {}
            return 200, prometheus_text(self.scheduler), \
                {"Content-Type": "text/plain; version=0.0.4"}
        if fleet and path == "/v1/fleet":
            if method != "GET":
                return 405, {"error": "fleet topology is GET-only"}, {}
            return 200, self.scheduler.backend.fleet_summary(), {}
        if fleet and path == "/v1/fleet/register":
            if method != "POST":
                return 405, {"error": "register workers with POST"}, {}
            return self._register(body)
        if path == "/v1/jobs":
            if method != "POST":
                return 405, {"error": "submit jobs with POST"}, {}
            return self._submit(headers, body)
        if path.startswith("/v1/jobs/"):
            job_id = path[len("/v1/jobs/"):]
            if method == "GET":
                return self._status(job_id)
            if method == "DELETE":
                return self._cancel(job_id)
            return 405, {"error": "job resources accept GET/DELETE"}, {}
        return 404, {"error": f"no route for {path!r}"}, {}

    def _healthz(self) -> Dict:
        scheduler = self.scheduler
        record = {
            "status": "ok" if scheduler.accepting else "draining",
            "queued": scheduler.queued,
            "running": scheduler.running,
            "jobs": scheduler.counts(),
            "store": (scheduler.store.stats()
                      if scheduler.store is not None else None),
        }
        if scheduler.backend.fleet:
            record["fleet"] = scheduler.backend.fleet_summary()
        return record

    def _register(self, body: bytes
                  ) -> Tuple[int, object, Dict[str, str]]:
        try:
            payload = json.loads(body.decode("utf-8")) if body else {}
        except (UnicodeDecodeError, ValueError):
            return 400, {"error": "request body is not valid JSON"}, {}
        url = payload.get("url") if isinstance(payload, dict) else None
        if not isinstance(url, str) or not url.startswith("http"):
            return 400, {"error": "register payload needs a worker "
                                  "'url'"}, {}
        backend = self.scheduler.backend
        node = backend.add_worker(url)
        return 200, {"registered": node.url,
                     "workers": backend.alive_workers}, {}

    def _submit(self, headers: Dict[str, str], body: bytes
                ) -> Tuple[int, object, Dict[str, str]]:
        try:
            payload = json.loads(body.decode("utf-8")) if body else {}
        except (UnicodeDecodeError, ValueError):
            return 400, {"error": "request body is not valid JSON"}, {}
        client = headers.get("x-client") or (
            payload.get("client") if isinstance(payload, dict) else None
        ) or "anonymous"
        admission = self.scheduler.submit(payload, client=client)
        return self._admission_response(admission)

    @staticmethod
    def _admission_response(admission: Admission
                            ) -> Tuple[int, object, Dict[str, str]]:
        if not admission.accepted:
            record: Dict[str, object] = {"error": admission.error}
            extra: Dict[str, str] = {}
            if admission.retry_after is not None:
                record["retry_after"] = admission.retry_after
                extra["Retry-After"] = str(admission.retry_after)
            return admission.status, record, extra
        job = admission.job
        record = job.as_dict()
        record["deduped_submission"] = admission.deduped
        return admission.status, record, {
            "Location": f"/v1/jobs/{job.id}"}

    def _status(self, job_id: str) -> Tuple[int, object, Dict[str, str]]:
        job: Optional[Job] = self.scheduler.get(job_id)
        if job is None:
            return 404, {"error": f"no job {job_id!r}"}, {}
        record = job.as_dict()
        if self.scheduler.backend.fleet:
            record["node"] = self.scheduler.backend.node_of(job_id)
        return 200, record, {}

    def _cancel(self, job_id: str) -> Tuple[int, object, Dict[str, str]]:
        outcome = self.scheduler.cancel(job_id)
        if outcome is None:
            return 404, {"error": f"no job {job_id!r}"}, {}
        job = self.scheduler.get(job_id)
        return 200, {"id": job_id, "cancelled": outcome,
                     "state": job.state if job else None}, {}


def _render_response(status: int, payload: object,
                     extra: Dict[str, str]) -> bytes:
    headers = {"Content-Type": "application/json"}
    headers.update(extra)
    if isinstance(payload, str):
        body = payload.encode("utf-8")
    else:
        body = (json.dumps(payload) + "\n").encode("utf-8")
    reason = _STATUS_REASONS.get(status, "Unknown")
    head = [f"HTTP/1.1 {status} {reason}",
            f"Content-Length: {len(body)}",
            "Connection: close"]
    head.extend(f"{name}: {value}" for name, value in headers.items())
    return ("\r\n".join(head) + "\r\n\r\n").encode("latin-1") + body


# -- blocking entry point (wsrs serve) -----------------------------------


def build_scheduler(workers: int = 2, backlog: int = 64, quota: int = 16,
                    job_timeout: float = 600.0, retry_budget: int = 2,
                    drain_timeout: float = 30.0,
                    store_dir: Optional[str] = None,
                    ttl_seconds: Optional[float] = DEFAULT_TTL_SECONDS,
                    cell_runner: Optional[Callable] = None,
                    backend: Optional[Backend] = None) -> Scheduler:
    """Assemble a scheduler from flat deployment knobs.

    ``backend`` replaces the process pool (``workers``, ``cell_runner``)
    - a :class:`repro.fleet.coordinator.FleetCoordinator` makes the
    scheduler a fleet coordinator.
    """
    config = SchedulerConfig(workers=workers, max_backlog=backlog,
                             per_client_quota=quota,
                             job_timeout=job_timeout,
                             retry_budget=retry_budget,
                             drain_timeout=drain_timeout)
    store = (ResultStore(store_dir, ttl_seconds=ttl_seconds)
             if store_dir else None)
    kwargs = {} if cell_runner is None else {"cell_runner": cell_runner}
    return Scheduler(config=config, store=store, backend=backend,
                     **kwargs)


async def _amain(scheduler: Scheduler, host: str, port: int,
                 ready: Optional[Callable[[ServiceServer], None]] = None,
                 stop_event: Optional[asyncio.Event] = None,
                 announce: Callable[[str], None] = print) -> None:
    await scheduler.start()
    server = ServiceServer(scheduler, host=host, port=port)
    await server.start()
    stop = stop_event or asyncio.Event()
    loop = asyncio.get_running_loop()
    for signum in (signal.SIGINT, signal.SIGTERM):
        try:
            loop.add_signal_handler(signum, stop.set)
        except (NotImplementedError, RuntimeError, ValueError):
            pass  # non-main thread or unsupported platform
    role = "fleet coordinator" if scheduler.backend.fleet else "service"
    announce(f"wsrs {role} listening on {server.url}")
    if ready is not None:
        ready(server)
    try:
        await stop.wait()
    finally:
        announce(f"wsrs {role} draining (in-flight jobs finishing)...")
        await server.stop()
        await scheduler.shutdown(drain=True)
        announce(f"wsrs {role} stopped")


def serve(host: str = "127.0.0.1", port: int = 8787,
          scheduler: Optional[Scheduler] = None,
          announce: Callable[[str], None] = print) -> int:
    """Run the service until SIGINT/SIGTERM; returns a process exit code."""
    scheduler = scheduler or build_scheduler()
    try:
        asyncio.run(_amain(scheduler, host, port, announce=announce))
    except KeyboardInterrupt:
        pass  # drain already ran via the signal handler where possible
    return 0


class EmbeddedServer:
    """The full service stack on a daemon thread (tests, load tester,
    and the local fleet harness's coordinator).

    ``start()`` blocks until the listener is bound and returns the base
    URL (an OS-assigned port by default); ``stop()`` performs the same
    graceful drain as the signal path and joins the thread.
    """

    def __init__(self, scheduler: Optional[Scheduler] = None,
                 host: str = "127.0.0.1", port: int = 0) -> None:
        self.scheduler = scheduler or build_scheduler()
        self.host = host
        self.port = port
        self.url: Optional[str] = None
        self._ready = threading.Event()
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._stop_event: Optional[asyncio.Event] = None
        self._thread: Optional[threading.Thread] = None
        self._startup_error: Optional[BaseException] = None

    def start(self, timeout: float = 10.0) -> str:
        self._thread = threading.Thread(target=self._run, daemon=True,
                                        name="wsrs-embedded-server")
        self._thread.start()
        if not self._ready.wait(timeout):
            raise RuntimeError("embedded service failed to start in time")
        if self._startup_error is not None:
            raise RuntimeError("embedded service failed to start") \
                from self._startup_error
        assert self.url is not None
        return self.url

    def _run(self) -> None:
        async def main() -> None:
            self._loop = asyncio.get_running_loop()
            self._stop_event = asyncio.Event()

            def ready(server: ServiceServer) -> None:
                self.url = server.url
                self.port = server.port
                self._ready.set()

            await _amain(self.scheduler, self.host, self.port,
                         ready=ready, stop_event=self._stop_event,
                         announce=lambda _message: None)

        try:
            asyncio.run(main())
        except BaseException as exc:  # surfaced to start()'s caller
            self._startup_error = exc
            self._ready.set()

    def stop(self, timeout: float = 30.0) -> None:
        if self._loop is not None and self._stop_event is not None:
            self._loop.call_soon_threadsafe(self._stop_event.set)
        if self._thread is not None:
            self._thread.join(timeout)

    def __enter__(self) -> "EmbeddedServer":
        self.start()
        return self

    def __exit__(self, *_exc_info) -> None:
        self.stop()
