"""Fleet worker: a single-host service stack plus self-registration.

A worker node *is* the PR-5 service - scheduler, process pool,
worker-local result store, the full ``/v1/jobs`` + ``/healthz`` +
``/metrics`` surface - started on a fixed port by
:func:`repro.service.server.serve` and announced to the coordinator via
``POST /v1/fleet/register``.  There is no other
worker-side fleet logic: liveness is the coordinator's pull-model
heartbeat against the worker's existing ``/healthz``, and "leaving the
fleet" is simply dying or draining (a draining worker answers
``status: "draining"``, which the coordinator counts as a heartbeat
miss).  Deliberately, a SIGTERM'd worker does **not** deregister: a
real node loss sends no goodbye either, so the graceful and crash
paths exercise the same coordinator-side detection machinery.

:func:`worker_main` is the module-level (hence picklable) target the
local fleet harness hands to ``multiprocessing`` spawn contexts.
"""

from __future__ import annotations

import functools
import http.client
import json
import time
from typing import Callable, Optional
from urllib.parse import urlsplit

from repro.experiments.runner import RunResult, RunSpec, execute
from repro.service.scheduler import Scheduler
from repro.service.server import build_scheduler, serve


def delayed_execute(delay_seconds: float, spec: RunSpec) -> RunResult:
    """Run one cell after a fixed service-time floor.

    The scaling bench uses this to model per-node service time (the
    Carroll & Lin queuing view: a node is a service station with a
    known rate): on a host with fewer cores than nodes, raw CPU-bound
    cells cannot exhibit wall-clock scaling no matter how well the
    fleet shards, so the bench adds a floor that *waits* instead of
    computing.  Results are untouched - the real simulator still runs,
    so bit-identity against the direct matrix still verifies
    correctness.  Module-level (and used via ``functools.partial``) so
    it pickles into pool workers.
    """
    if delay_seconds > 0:
        time.sleep(delay_seconds)
    return execute(spec)


def register_with_coordinator(coordinator_url: str, worker_url: str,
                              attempts: int = 20,
                              pause: float = 0.25) -> bool:
    """Announce a worker to the coordinator, retrying while it boots.

    Synchronous on purpose: registration happens before the worker's
    event loop exists.  Returns True on success, False once the retry
    budget is spent (the worker still serves; a static ``--worker``
    listing or a later re-register can adopt it).
    """
    split = urlsplit(coordinator_url)
    host = split.hostname or "127.0.0.1"
    port = split.port or 80
    body = json.dumps({"url": worker_url})
    for attempt in range(attempts):
        connection = http.client.HTTPConnection(host, port, timeout=5.0)
        try:
            connection.request(
                "POST", "/v1/fleet/register", body=body,
                headers={"Content-Type": "application/json"})
            response = connection.getresponse()
            response.read()
            if response.status == 200:
                return True
        except (ConnectionError, OSError, http.client.HTTPException):
            pass
        finally:
            connection.close()
        if attempt + 1 < attempts:
            time.sleep(pause)
    return False


def delay_runner(cell_delay_ms: float) -> Optional[Callable]:
    """The cell runner for a per-cell service-time floor (None = the
    plain simulator); see :func:`delayed_execute`."""
    if cell_delay_ms <= 0:
        return None
    return functools.partial(delayed_execute, cell_delay_ms / 1000.0)


def serve_worker(scheduler: Scheduler, host: str = "127.0.0.1",
                 port: int = 0, coordinator_url: Optional[str] = None,
                 announce: Callable[[str], None] = print) -> int:
    """Run one worker node - :func:`repro.service.server.serve` plus
    registration - until SIGINT/SIGTERM.

    With ``coordinator_url`` set, the worker registers itself before
    serving; ``port`` must then be a real port (the coordinator needs a
    stable address to route and probe).
    """
    if coordinator_url is not None:
        if port == 0:
            raise ValueError(
                "a fleet worker needs an explicit --port to register "
                "(the coordinator must know where to reach it)")
        worker_url = f"http://{host}:{port}"
        if register_with_coordinator(coordinator_url, worker_url):
            announce(f"wsrs fleet worker registered at {worker_url} "
                     f"with {coordinator_url}")
        else:
            announce(f"wsrs fleet worker could not register with "
                     f"{coordinator_url}; serving unregistered")
    return serve(host=host, port=port, scheduler=scheduler,
                 announce=announce)


def worker_main(host: str, port: int, coordinator_url: Optional[str],
                workers: int, store_dir: Optional[str],
                drain_timeout: float = 30.0,
                cell_delay_ms: float = 0.0) -> int:
    """Picklable spawn target for local fleet worker processes."""
    scheduler = build_scheduler(workers=workers, store_dir=store_dir,
                                drain_timeout=drain_timeout,
                                cell_runner=delay_runner(cell_delay_ms))
    return serve_worker(scheduler, host=host, port=port,
                        coordinator_url=coordinator_url,
                        announce=lambda _message: None)
