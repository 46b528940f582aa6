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
``GET /v1/jobs/<id>?wait=S``   the same reply, held until the job is
                               terminal or ``S`` seconds pass (capped
                               at :data:`MAX_WAIT_S`); 400 on a bad
                               ``S``, 404 at once on an unknown id
``DELETE /v1/jobs/<id>``       cancel: queued jobs are removed, running
                               jobs stop at the next cell boundary
``GET /healthz``               liveness + state counts
``GET /metrics``               Prometheus text format, fed from the
                               scheduler's ObsRegistry
=============================  =========================================

When the scheduler's backend is a fleet coordinator
(:class:`repro.fleet.coordinator.FleetCoordinator`), the same front
adds the fleet routes, the holding ``node`` to job records and a
``fleet`` section to ``/healthz``:

=================================  =====================================
``POST /v1/fleet/lease``           a worker's held lease exchange
                                   (``{"node", "free", "running"}``);
                                   replies ``{"jobs", "revoked"}``
``POST /v1/fleet/leases/<id>``     a worker reports a leased job's
                                   terminal record (``{"node",
                                   "record"}``); 409 from a node that
                                   does not hold the lease
``GET /v1/fleet``                  fleet topology: per-worker liveness,
                                   leases held, completions
=================================  =====================================

The client id used for quota accounting comes from the ``X-Client``
header (falling back to a ``client`` field in the body, then
``anonymous``).

A held ``GET`` is how callers learn a job finished (``wsrs submit``
waits for its job this way, through
:meth:`repro.service.client.ServiceClient.wait`): the scheduler's
:meth:`~repro.service.scheduler.Scheduler.wait` wakes it on the job's
terminal transition, and the reply comes from the job object the hold
already has.  A scheduler with a result store retires finished
records to ``<store>/records/<id>.json``; ``GET`` and ``DELETE`` of a
retired id answer from there exactly as for a finished job.
:meth:`ServiceServer.stop` releases every held reply before it waits
for connections to close, so a hold never stalls a drain.

:func:`serve` is the blocking ``wsrs serve`` entry point: it installs
SIGINT/SIGTERM handlers that stop the listener and *drain* the
scheduler - running jobs finish, the backlog is cancelled, the worker
pool is reaped - before the process exits; ``wsrs fleet
serve-coordinator`` runs it over a lease-backed scheduler, whose drain
runs before the listener closes because leased jobs finish through
worker reports.
:class:`EmbeddedServer` runs the same stack on a background thread with
an OS-assigned port, which is how the load tester, the local fleet
harness and the test-suite spin up a live server in-process.
"""

from __future__ import annotations

import asyncio
import json
import math
import signal
import threading
from typing import Awaitable, Callable, Dict, Optional, Set, Tuple
from urllib.parse import parse_qs

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
#: Largest accepted fleet report: it carries a finished job's whole
#: result, as large as a worker would ever answer a GET with.
MAX_REPORT_BYTES = 16 * 1024 * 1024

#: Longest hold of one ``GET /v1/jobs/<id>?wait=`` (seconds): below the
#: client's default 30 s socket timeout.
MAX_WAIT_S = 20.0

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


async def _read_request(reader: asyncio.StreamReader, fleet: bool
                        ) -> Tuple[str, str, Dict[str, str], bytes]:
    """Parse one HTTP/1.1 request into (method, target, headers, body);
    ``fleet`` admits the large bodies of worker reports.

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
        report = fleet and target.startswith("/v1/fleet/leases/")
        if length > (MAX_REPORT_BYTES if report else MAX_BODY_BYTES):
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
        self._connections: Set["asyncio.Task"] = set()
        self._holds: Set["asyncio.Task"] = set()
        self._stopping = False

    async def start(self) -> None:
        self._server = await asyncio.start_server(
            self._handle, self.host, self.port)
        self.port = self._server.sockets[0].getsockname()[1]

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    async def stop(self) -> None:
        """Close the listener, answer every held GET with the record as
        it stands, then wait for the connections to close."""
        if self._server is not None:
            self._stopping = True
            self._server.close()
            # Let connections accepted just before the close start
            # their handlers, so the wait below covers them too.
            await asyncio.sleep(0)
            for hold in self._holds:
                hold.cancel()
            if self._connections:
                await asyncio.wait(self._connections)
            await self._server.wait_closed()
            self._server = None

    # -- request plumbing ------------------------------------------------

    async def _handle(self, reader: asyncio.StreamReader,
                      writer: asyncio.StreamWriter) -> None:
        connection = asyncio.current_task()
        self._connections.add(connection)
        try:
            await self._reply(reader, writer)
        finally:
            self._connections.discard(connection)

    async def _reply(self, reader: asyncio.StreamReader,
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
            method, target, headers, body = await _read_request(
                reader, self.scheduler.backend.fleet)
        except _BadRequest as bad:
            return bad.status, {"error": bad.message}, {}
        return await self.route(method, target, headers, body)

    # -- routing ---------------------------------------------------------

    async def route(self, method: str, target: str,
                    headers: Dict[str, str], body: bytes
                    ) -> Tuple[int, object, Dict[str, str]]:
        path, _, query = target.partition("?")
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
        if fleet and path.startswith("/v1/fleet/lease"):
            if method != "POST":
                return 405, {"error": "lease exchanges are POST-only"}, {}
            return await self._lease(path, body)
        if path == "/v1/jobs":
            if method != "POST":
                return 405, {"error": "submit jobs with POST"}, {}
            return self._submit(headers, body)
        if path.startswith("/v1/jobs/"):
            job_id = path[len("/v1/jobs/"):]
            if method == "GET":
                return await self._status(job_id, query)
            if method == "DELETE":
                return await self._cancel(job_id)
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

    async def _lease(self, path: str, body: bytes
                     ) -> Tuple[int, object, Dict[str, str]]:
        """A lease exchange (``/v1/fleet/lease``) or a report
        (``/v1/fleet/leases/<id>``)."""
        payload = _json_object(body)
        node = payload.get("node") if isinstance(payload, dict) else None
        if not isinstance(node, str) or not node:
            return 400, {"error": "a lease request names its 'node'"}, {}
        backend = self.scheduler.backend
        if path.startswith("/v1/fleet/leases/"):
            status, reply = await backend.report(
                node, path[len("/v1/fleet/leases/"):],
                payload.get("record"))
            return status, reply, {}
        if path != "/v1/fleet/lease":
            return 404, {"error": f"no route for {path!r}"}, {}
        free, running = payload.get("free"), payload.get("running")
        if (not isinstance(free, int) or free < 0
                or not isinstance(running, list)
                or not all(isinstance(item, str) for item in running)):
            return 400, {"error": "a lease request needs 'free' >= 0 "
                                  "and a 'running' id list"}, {}
        reply = await backend.lease(node, free, running)
        if reply is None:
            return 503, {"error": "coordinator is stopping"}, {}
        return 200, reply, {}

    def _submit(self, headers: Dict[str, str], body: bytes
                ) -> Tuple[int, object, Dict[str, str]]:
        payload = _json_object(body)
        if payload is None:
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

    async def _status(self, job_id: str, query: str
                      ) -> Tuple[int, object, Dict[str, str]]:
        try:
            wait = _wait_seconds(query)
        except ValueError as exc:
            return 400, {"error": str(exc)}, {}
        job: Optional[Job] = self.scheduler.get(job_id)
        if job is None:
            record = await self._retired(job_id)
            if record is None:
                return 404, {"error": f"no job {job_id!r}"}, {}
        else:
            if wait and not job.terminal and not self._stopping:
                await self._hold(job, wait)
            record = job.as_dict()
        if self.scheduler.backend.fleet:
            record["node"] = self.scheduler.backend.node_of(job_id)
        return 200, record, {}

    async def _hold(self, job: Job, seconds: float) -> None:
        """Wait for ``job`` to finish, for ``seconds`` at most, or until
        :meth:`stop` releases the hold."""
        hold = asyncio.get_running_loop().create_task(
            self.scheduler.wait(job, seconds))
        self._holds.add(hold)
        try:
            await asyncio.wait((hold,))
        finally:
            self._holds.discard(hold)
            hold.cancel()

    async def _retired(self, job_id: str) -> Optional[Dict]:
        return await asyncio.get_running_loop().run_in_executor(
            None, self.scheduler.retired, job_id)

    async def _cancel(self, job_id: str
                      ) -> Tuple[int, object, Dict[str, str]]:
        outcome = self.scheduler.cancel(job_id)
        if outcome is None:
            record = await self._retired(job_id)
            if record is None:
                return 404, {"error": f"no job {job_id!r}"}, {}
            return 200, {"id": job_id, "cancelled": False,
                         "state": record["state"]}, {}
        job = self.scheduler.get(job_id)
        return 200, {"id": job_id, "cancelled": outcome,
                     "state": job.state if job else None}, {}


def _json_object(body: bytes) -> Optional[object]:
    """The parsed JSON body ({} when empty), or None when malformed."""
    try:
        return json.loads(body.decode("utf-8")) if body else {}
    except (UnicodeDecodeError, ValueError):
        return None


def _wait_seconds(query: str) -> float:
    """The hold a ``?wait=S`` query asks for, clamped to
    :data:`MAX_WAIT_S`; 0 without one.  ValueError when malformed."""
    values = parse_qs(query, keep_blank_values=True).get("wait")
    if not values:
        return 0.0
    try:
        seconds = float(values[-1])
    except ValueError:
        raise ValueError(f"wait must be a number of seconds, got "
                         f"{values[-1]!r}") from None
    if not math.isfinite(seconds) or seconds < 0:
        raise ValueError(f"wait must be a non-negative number of "
                         f"seconds, got {values[-1]!r}")
    return min(seconds, MAX_WAIT_S)


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


#: A task run beside the server: called with the server's URL and the
#: stop event, it returns once the stop is set and its work is handed
#: back (a fleet worker's lease loop).
Companion = Callable[[str, asyncio.Event], Awaitable[None]]


async def _amain(scheduler: Scheduler, host: str, port: int,
                 ready: Optional[Callable[[ServiceServer], None]] = None,
                 stop_event: Optional[asyncio.Event] = None,
                 announce: Callable[[str], None] = print,
                 companion: Optional[Companion] = None) -> None:
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
    beside = (loop.create_task(companion(server.url, stop))
              if companion is not None else None)
    try:
        await stop.wait()
    finally:
        stop.set()
        announce(f"wsrs {role} draining (in-flight jobs finishing)...")
        if beside is not None:
            await beside
        if scheduler.backend.fleet:
            # Leased jobs finish through worker reports to this
            # listener, so it stays open while the scheduler drains.
            await scheduler.shutdown(drain=True)
            await server.stop()
        else:
            await server.stop()
            await scheduler.shutdown(drain=True)
        announce(f"wsrs {role} stopped")


def serve(host: str = "127.0.0.1", port: int = 8787,
          scheduler: Optional[Scheduler] = None,
          announce: Callable[[str], None] = print,
          companion: Optional[Companion] = None) -> int:
    """Run the service until SIGINT/SIGTERM; returns a process exit code."""
    scheduler = scheduler or build_scheduler()
    try:
        asyncio.run(_amain(scheduler, host, port, announce=announce,
                           companion=companion))
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
