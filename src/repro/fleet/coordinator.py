"""The fleet coordinator: the lease backend of the job scheduler.

One coordinator feeds N worker nodes, each a full single-host service
stack (:mod:`repro.service`).  The coordinator is the service's own
:class:`~repro.service.scheduler.Scheduler` - the same admission core,
job table, drain and HTTP front - with :class:`FleetCoordinator` as its
backend in place of the process pool.  It runs no simulations and makes
no outbound requests: admitted jobs wait in one backlog, and workers
pull them.

* **Leases.**  A worker holds one ``POST /v1/fleet/lease`` exchange
  open at a time, saying how many pool slots it has free and which
  leased jobs it is running.  The exchange registers the worker, renews
  its leases, and is answered as soon as there is a job for it, one of
  its jobs was cancelled, or :data:`LEASE_HOLD_S` passes.  A worker asks
  for at most its free slots, so it never queues fleet work.
* **Affinity as a preference.**  A worker is handed the oldest queued
  job whose consistent-hash owner (:class:`repro.fleet.ring.HashRing`,
  keyed by the job's idempotency key) it is, failing that the oldest
  queued job.  A newly admitted job goes straight to its owner when the
  owner is waiting, so another node only takes a job whose owner is
  busy, and repeat work lands where its cached result lives.
* **Reports.**  The worker posts each terminal record to
  ``POST /v1/fleet/leases/<id>``.  A report from a node that does not
  hold the lease (it expired, or the coordinator restarted) is a 409
  and is dropped.
* **Expiry and requeue.**  A node silent for longer than
  :data:`LEASE_TIMEOUT_S` leaves the ring, and its jobs are requeued by
  the core's :meth:`~repro.service.scheduler.Scheduler._requeue` - the
  same bounded ``retry_budget`` the pool backend applies to
  worker-process crashes.  So is a leased job its worker no longer
  lists as running.  The same reaper fails jobs past ``job_timeout``.
* **Cancel is revocation.**  Cancelling a leased job wakes its holder's
  exchange, whose reply names the job; the worker cancels it locally
  and reports the cancelled record.
* **The authoritative result store.**  Every completed payload is
  written to the coordinator's own :class:`repro.service.store
  .ResultStore` before the job finishes, so a coordinator restart
  *replays* completed work from disk, and a worker restart loses only
  cache locality, never results.

Admission is the single-node scheduler's own - result-store
short-circuit, in-flight dedup, per-client quota, bounded backlog with
``Retry-After`` sheds - so :class:`repro.service.client.ServiceClient`
cannot tell a coordinator from a plain service.

Every piece of coordinator state is touched only from the event-loop
thread; disk I/O goes through ``run_in_executor`` (the repo-wide
ASYNC-BLOCKING-CALL discipline).
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.fleet.ring import HashRing
from repro.service import jobs as jobmodel
from repro.service.jobs import Job
from repro.service.scheduler import Backend

#: Default coordinator port (one above the service's 8787).
DEFAULT_COORDINATOR_PORT = 8788
#: Coordinator admission bounds: the backlog and per-client quota of a
#: front door over many nodes, four and two times one node's defaults.
COORDINATOR_BACKLOG = 256
COORDINATOR_QUOTA = 32
#: Longest hold of one lease exchange (seconds).  A worker renews its
#: leases at least this often.
LEASE_HOLD_S = 0.5
#: A node silent for longer than this loses its leases and leaves the
#: ring (seconds): three missed exchanges.
LEASE_TIMEOUT_S = 1.5


class _Exchange:
    """One held lease exchange: the slots it asked for and the jobs
    handed to it so far."""

    def __init__(self, free: int) -> None:
        self.free = free
        self.granted: List[Job] = []
        self.woken = asyncio.get_running_loop().create_future()


@dataclass
class WorkerNode:
    """Coordinator-side view of one worker."""

    url: str
    alive: bool = True
    jobs_done: int = 0
    #: Job id -> job, for every job this node holds a lease on.
    leases: Dict[str, Job] = field(default_factory=dict)
    #: Monotonic time of the node's last exchange or report.
    seen: float = field(default_factory=time.monotonic)
    #: The node's open exchange, while one is held.
    exchange: Optional[_Exchange] = None

    def as_dict(self) -> Dict:
        return {"url": self.url, "alive": self.alive,
                "leases": len(self.leases), "jobs_done": self.jobs_done}


class FleetCoordinator(Backend):
    """One backlog, leased out to the worker nodes that ask for work."""

    prefix = "fleet_"
    store_hit_counter = "fleet_store_hits_total"
    fleet = True

    def __init__(self) -> None:
        self.nodes: Dict[str, WorkerNode] = {}
        self.ring = HashRing()
        #: Queued jobs, oldest first (cancelled ones until skipped).
        self._backlog: List[Job] = []
        self._reaper: Optional["asyncio.Task"] = None
        self._stopped = False

    # -- membership ------------------------------------------------------

    def _join(self, url: str) -> WorkerNode:
        """The node behind an exchange or report, registered or revived
        as needed, seen now."""
        node = self.nodes.get(url)
        if node is None:
            node = self.nodes[url] = WorkerNode(url=url)
            self.ring.add(url)
            self.registry.count("fleet_nodes_registered_total")
        elif not node.alive:
            node.alive = True
            self.ring.add(url)
            self.registry.count("fleet_node_revivals_total")
        node.seen = time.monotonic()
        return node

    def _expire(self, node: WorkerNode) -> None:
        node.alive = False
        self.ring.remove(node.url)
        self.registry.count("fleet_node_deaths_total")
        for job in list(node.leases.values()):
            self._lose(job, node, "lease expired")

    @property
    def alive_workers(self) -> List[str]:
        return [url for url, node in sorted(self.nodes.items())
                if node.alive]

    @property
    def slots(self) -> int:
        return max(1, len(self.alive_workers))

    # -- backend lifecycle -----------------------------------------------

    async def start(self) -> None:
        if self._reaper is None:
            self._reaper = asyncio.get_running_loop().create_task(
                self._reap_loop(), name="wsrs-fleet-reaper")

    def dispatch(self, job: Job) -> None:
        self._backlog.append(job)
        self._offer(job)

    def cancel(self, job: Job) -> None:
        """Wake the holder's exchange so its reply revokes the job."""
        for node in self.nodes.values():
            if job.id in node.leases:
                self._wake(node)

    async def stop(self) -> None:
        self._stopped = True
        for node in self.nodes.values():
            self._wake(node)
            for job in list(node.leases.values()):
                self.core._finish(job, jobmodel.FAILED,
                                  error="aborted by coordinator shutdown")
            node.leases.clear()
        if self._reaper is not None:
            self._reaper.cancel()
            await asyncio.gather(self._reaper, return_exceptions=True)
            self._reaper = None

    # -- queries ---------------------------------------------------------

    def node_of(self, job_id: str) -> Optional[str]:
        for node in self.nodes.values():
            if job_id in node.leases:
                return node.url
        return None

    def fleet_summary(self) -> Dict:
        return {
            "workers": [node.as_dict()
                        for _, node in sorted(self.nodes.items())],
            "alive": len(self.alive_workers),
        }

    def gauges(self) -> Dict[str, float]:
        return {"wsrs_fleet_workers_total": len(self.nodes),
                "wsrs_fleet_workers_alive": len(self.alive_workers)}

    # -- leases ----------------------------------------------------------

    async def lease(self, url: str, free: int,
                    running: Sequence[str]) -> Optional[Dict]:
        """One lease exchange from the worker at ``url``: ``free`` pool
        slots, ``running`` the ids of the leased jobs it still runs.
        Returns the jobs handed out and the ids it must cancel, or None
        once the backend has stopped."""
        if self._stopped:
            return None
        node = self._join(url)
        self._wake(node)  # a worker asks once at a time
        listed = set(running)
        for job in [job for job_id, job in node.leases.items()
                    if job_id not in listed]:
            self._lose(job, node, "not running on its node")
        exchange = _Exchange(free)
        while len(exchange.granted) < free and self._open():
            job = self._take(node)
            if job is None:
                break
            self._grant(job, node, exchange)
        if not exchange.granted and not self._revoked(node, listed):
            node.exchange = exchange
            try:
                await asyncio.wait_for(exchange.woken, LEASE_HOLD_S)
            except asyncio.TimeoutError:
                pass
            finally:
                if node.exchange is exchange:
                    node.exchange = None
            node.seen = time.monotonic()
        return {"jobs": [{"id": job.id, "client": job.client,
                          "request": jobmodel.request_payload(job.request)}
                         for job in exchange.granted],
                "revoked": self._revoked(node, listed)}

    async def report(self, url: str, job_id: str,
                     record: object) -> Tuple[int, Dict]:
        """A worker's terminal record for a leased job; returns the HTTP
        status and body of the reply."""
        if (not isinstance(record, dict)
                or record.get("state") not in jobmodel.TERMINAL_STATES):
            return 400, {"error": "a report needs a terminal job record"}
        node = self.nodes.get(url)
        job = node.leases.pop(job_id, None) if node is not None else None
        if job is None:
            self.registry.count("fleet_stale_reports_total")
            return 409, {"error": f"{url} holds no lease on {job_id}"}
        node.seen = time.monotonic()
        result = record.get("result")
        if (record["state"] == jobmodel.DONE and isinstance(result, dict)
                and self.core.store is not None):
            # Stored before the finish, which retires the job's record
            # without its result.
            await asyncio.get_running_loop().run_in_executor(
                None, self.core.store.put, job.key, result)
        self._fold(job, record, node)
        self._wake(node)  # its next exchange asks for the freed slot
        return 200, {"id": job_id, "state": job.state}

    def _open(self) -> bool:
        return not (self._stopped or self.core.draining)

    def _revoked(self, node: WorkerNode, listed: Set[str]) -> List[str]:
        """Listed jobs the node must stop: cancelled, or no longer its
        lease (expired, timed out, or unknown to this coordinator)."""
        return sorted(job_id for job_id in listed
                      if job_id not in node.leases
                      or node.leases[job_id].cancel_requested)

    def _take(self, node: WorkerNode) -> Optional[Job]:
        """The oldest queued job ``node`` owns, else the oldest one."""
        self._backlog = [job for job in self._backlog
                         if job.state == jobmodel.QUEUED]
        for job in self._backlog:
            if self.ring.node_for(job.key) == node.url:
                return job
        return self._backlog[0] if self._backlog else None

    def _offer(self, job: Job) -> None:
        """Hand a newly queued job to a held exchange: its owner's when
        the owner is waiting, else any waiting node's."""
        waiting = [node for node in self.nodes.values()
                   if node.exchange is not None and node.exchange.free > 0]
        if not waiting or not self._open():
            return
        owner = self.nodes.get(self.ring.node_for(job.key) or "")
        node = owner if owner in waiting else waiting[0]
        self._grant(job, node, node.exchange)
        self._wake(node)

    def _grant(self, job: Job, node: WorkerNode,
               exchange: _Exchange) -> None:
        self._backlog.remove(job)
        self.core._begin(job)
        job.attempts += 1
        if job.started_at is None:
            job.started_at = time.time()
        node.leases[job.id] = job
        exchange.granted.append(job)
        self.registry.count("fleet_leases_total")
        if self.ring.node_for(job.key) != node.url:
            self.registry.count("fleet_steals_total")

    def _wake(self, node: WorkerNode) -> None:
        """Answer the node's held exchange now."""
        exchange, node.exchange = node.exchange, None
        if exchange is not None and not exchange.woken.done():
            exchange.woken.set_result(None)

    # -- expiry, deadlines, requeue ---------------------------------------

    async def _reap_loop(self) -> None:
        while True:
            await asyncio.sleep(LEASE_TIMEOUT_S / 3.0)
            self.reap()

    def reap(self) -> None:
        """Expire nodes silent past :data:`LEASE_TIMEOUT_S` and fail
        jobs past their ``job_timeout`` (counted from admission)."""
        now = time.monotonic()
        for node in self.nodes.values():
            if (node.alive and node.exchange is None
                    and now - node.seen > LEASE_TIMEOUT_S):
                self._expire(node)
        timeout = self.core.config.job_timeout
        cutoff = time.time() - timeout
        error = f"timeout after {timeout:.0f}s"
        for job in self._backlog:
            if job.state == jobmodel.QUEUED and job.submitted_at < cutoff:
                self.core._finish(job, jobmodel.FAILED, queued=True,
                                  error=error if self.ring.nodes else
                                  f"{error} with no live worker nodes")
        for node in self.nodes.values():
            for job in [job for job in node.leases.values()
                        if job.submitted_at < cutoff]:
                del node.leases[job.id]
                self.core._finish(job, jobmodel.FAILED, error=error)

    def _lose(self, job: Job, node: WorkerNode, reason: str) -> None:
        """A lease ended without a report: requeue the job within the
        core's retry budget (or finish a cancelled one)."""
        node.leases.pop(job.id, None)
        self.registry.count("fleet_leases_lost_total")
        if job.cancel_requested:
            self.core._finish(job, jobmodel.CANCELLED,
                              error="cancelled by client")
        elif self.core._requeue(job, f"lease lost on {node.url} "
                                     f"({reason})",
                                f"lost its lease on {node.url}"):
            self.registry.count("fleet_requeues_total")
            self._backlog.insert(0, job)
            self._offer(job)

    def _fold(self, job: Job, record: Dict, node: WorkerNode) -> None:
        """Adopt a worker's terminal record as the fleet job's outcome."""
        state = record.get("state")
        if state == jobmodel.DONE:
            result = record.get("result")
            if not isinstance(result, dict):
                self.core._finish(job, jobmodel.FAILED,
                                  error=f"{node.url} reported done "
                                        f"without a result payload")
                return
            if record.get("cached"):
                # The node answered from its local cache: the win
                # owner-first leasing exists to produce.
                self.registry.count("fleet_worker_cache_hits_total")
            node.jobs_done += 1
            self.core._finish(job, jobmodel.DONE, result=result)
            self.registry.sample(
                "fleet_job_latency_ms",
                max(1, round((job.finished_at - job.submitted_at)
                             * 1000.0)))
            return
        if state == jobmodel.CANCELLED:
            if not job.cancel_requested:
                # Cancelled on the node without a revocation: the node
                # lost the job, the client did not give it up.
                self._lose(job, node, "cancelled on its node")
                return
            self.core._finish(job, jobmodel.CANCELLED,
                              error=record.get("error") or "cancelled")
            return
        self.core._finish(job, jobmodel.FAILED,
                          error=record.get("error")
                          or f"failed on {node.url}")
