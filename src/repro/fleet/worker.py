"""Fleet worker: a single-host service stack that leases its work.

A worker node *is* the single-host service - scheduler, process pool,
worker-local result store, the full ``/v1/jobs`` + ``/healthz`` +
``/metrics`` surface - started on a fixed port by
:func:`repro.service.server.serve`, plus one :func:`lease_loop` task.
The loop holds a lease exchange open on the coordinator (its URL is the
node's name on the ring), submits every job it is handed to the local
scheduler, and posts each terminal record back.  It asks for no more
jobs than its pool has free slots, so fleet work never queues here.

SIGTERM drains the node: the loop stops asking for work, keeps its
leases renewed while the jobs it holds finish, reports them, and only
then does the service stack stop.  A crash sends nothing; the
coordinator requeues the node's jobs when its leases expire.

:func:`worker_main` is the module-level (hence picklable) target the
local fleet harness hands to ``multiprocessing`` spawn contexts.
"""

from __future__ import annotations

import asyncio
import functools
import os
import time
from typing import Callable, Dict, Optional, Set

from repro.experiments.runner import RunResult, RunSpec, execute
from repro.fleet.coordinator import LEASE_HOLD_S
from repro.fleet.netio import TransportError, request_json
from repro.service.jobs import Job
from repro.service.scheduler import Scheduler
from repro.service.server import build_scheduler, serve

#: Pause before asking an unreachable coordinator again (seconds).
RETRY_PAUSE_S = 0.25
#: Per-request timeout for reports, and on top of the hold for lease
#: exchanges (seconds).
REQUEST_TIMEOUT_S = 10.0


def delayed_execute(delay_seconds: float, spec: RunSpec) -> RunResult:
    """Run one cell after a fixed service-time floor.

    The scaling bench uses this to model per-node service time (the
    Carroll & Lin queuing view: a node is a service station with a
    known rate): on a host with fewer cores than nodes, raw CPU-bound
    cells cannot exhibit wall-clock scaling no matter how well the
    fleet shares work, so the bench adds a floor that *waits* instead of
    computing.  Results are untouched - the real simulator still runs,
    so bit-identity against the direct matrix still verifies
    correctness.  Module-level (and used via ``functools.partial``) so
    it pickles into pool workers.
    """
    if delay_seconds > 0:
        time.sleep(delay_seconds)
    return execute(spec)


def delay_runner(cell_delay_ms: float) -> Optional[Callable]:
    """The cell runner for a per-cell service-time floor (None = the
    plain simulator); see :func:`delayed_execute`."""
    if cell_delay_ms <= 0:
        return None
    return functools.partial(delayed_execute, cell_delay_ms / 1000.0)


async def lease_loop(scheduler: Scheduler, coordinator: str, node: str,
                     stopping: asyncio.Event) -> None:
    """Lease jobs from ``coordinator`` as ``node`` and run them on
    ``scheduler`` until ``stopping`` is set and every held job has been
    reported, or the drain timeout passed."""
    loop = asyncio.get_running_loop()
    held: Dict[str, Job] = {}  # coordinator job id -> local job
    reports: Set["asyncio.Task"] = set()
    give_up: Optional[float] = None
    while True:
        if stopping.is_set():
            if give_up is None:
                give_up = loop.time() + scheduler.config.drain_timeout
            if not held or loop.time() >= give_up:
                break
            free = 0
        else:
            free = max(0, scheduler.config.workers - scheduler.running
                       - scheduler.queued)
        try:
            status, _headers, reply = await request_json(
                coordinator, "POST", "/v1/fleet/lease",
                payload={"node": node, "free": free,
                         "running": sorted(held)},
                timeout=LEASE_HOLD_S + REQUEST_TIMEOUT_S)
        except TransportError:
            status, reply = 0, None
        if status != 200 or not isinstance(reply, dict):
            await asyncio.sleep(RETRY_PAUSE_S)
            continue
        for job_id in reply["revoked"]:
            if job_id in held:
                scheduler.cancel(held[job_id].id)
        for grant in reply["jobs"]:
            admission = scheduler.submit(
                grant["request"], client=f"fleet:{grant['client']}")
            if admission.job is None:
                continue  # left unlisted, so the coordinator requeues it
            held[grant["id"]] = admission.job
            task = loop.create_task(_report(
                scheduler, coordinator, node, grant["id"], held))
            reports.add(task)
            task.add_done_callback(reports.discard)
    for task in list(reports):
        task.cancel()


async def _report(scheduler: Scheduler, coordinator: str, node: str,
                  job_id: str, held: Dict[str, Job]) -> None:
    """Wait for a leased job to finish here, then post its record; the
    job stays listed as running until the coordinator has it."""
    job = held[job_id]
    while not job.terminal:
        await scheduler.wait(job, 60.0)
    payload = {"node": node, "record": job.as_dict()}
    while True:
        try:
            await request_json(coordinator, "POST",
                               f"/v1/fleet/leases/{job_id}",
                               payload=payload, timeout=REQUEST_TIMEOUT_S)
            # Answered: 200, or 409 when the lease is no longer ours.
            # Any other answer leaves the job unlisted, so the
            # coordinator requeues it.
            break
        except TransportError:
            await asyncio.sleep(RETRY_PAUSE_S)
    held.pop(job_id, None)


def serve_worker(scheduler: Scheduler, host: str = "127.0.0.1",
                 port: int = 0, coordinator_url: Optional[str] = None,
                 announce: Callable[[str], None] = print) -> int:
    """Run one worker node - :func:`repro.service.server.serve` plus
    the lease loop against ``coordinator_url`` - until SIGINT/SIGTERM."""
    companion = None
    if coordinator_url is not None:
        announce(f"wsrs fleet worker leasing from {coordinator_url}")
        companion = functools.partial(lease_loop, scheduler,
                                      coordinator_url)
    return serve(host=host, port=port, scheduler=scheduler,
                 announce=announce, companion=companion)


def worker_main(host: str, port: int, coordinator_url: Optional[str],
                workers: int, store_dir: Optional[str],
                drain_timeout: float = 30.0,
                cell_delay_ms: float = 0.0) -> int:
    """Picklable spawn target for local fleet worker processes.  The
    worker leads its own process group, so its pool processes die with
    it when the harness kills the group."""
    os.setsid()
    scheduler = build_scheduler(workers=workers, store_dir=store_dir,
                                drain_timeout=drain_timeout,
                                cell_runner=delay_runner(cell_delay_ms))
    return serve_worker(scheduler, host=host, port=port,
                        coordinator_url=coordinator_url,
                        announce=lambda _message: None)
