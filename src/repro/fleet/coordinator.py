"""The fleet coordinator: the ring dispatch backend of the job scheduler.

One coordinator fronts N worker nodes, each a full single-host service
stack (:mod:`repro.service`).  The coordinator is the service's own
:class:`~repro.service.scheduler.Scheduler` - the same admission core,
job table, drain and HTTP front - with :class:`FleetCoordinator` as its
backend in place of the process pool.  It runs no simulations; the
backend owns exactly four things:

* **Routing.**  Jobs shard over workers by consistent hash of the
  existing idempotency key (:class:`repro.fleet.ring.HashRing`), so a
  repeat submission lands on the node already holding the cached result
  and a membership change only remaps the key ranges adjacent to the
  changed node.  When the primary owner is clearly busier than the
  secondary (outstanding-job delta >= ``spill_threshold``), the job
  spills to the secondary - bounded load balancing that sacrifices
  cache affinity only under real skew.
* **Liveness.**  A heartbeat task probes every registered worker's
  ``/healthz`` on a fixed interval; ``heartbeat_misses`` consecutive
  misses (unreachable, or answering but *draining*) declare the node
  dead and drop it from the ring.  A dead node that answers again
  rejoins (revival), reclaiming exactly its old key ranges.
* **Requeue.**  A job in flight on a node that dies - transport failure
  mid-poll, or a worker-side cancellation the client never asked for -
  is requeued through the ring (excluding the lost node) by the core's
  :meth:`~repro.service.scheduler.Scheduler._requeue`, the same bounded
  ``retry_budget`` the pool backend applies to worker-process crashes:
  ``attempts > retry_budget`` fails the job with a diagnosable error
  instead of retrying forever.
* **The authoritative result store.**  Every completed payload is
  written to the coordinator's own :class:`repro.service.store
  .ResultStore` (atomic publication, TTL + corrupt-record sweep), on
  top of each worker's local cache.  A coordinator restart therefore
  *replays* completed work from disk, and a worker restart loses only
  cache locality, never results.

Admission is the single-node scheduler's own - result-store
short-circuit, in-flight dedup, per-client quota, bounded backlog with
``Retry-After`` sheds - so :class:`repro.service.client.ServiceClient`
cannot tell a coordinator from a plain service.

Every piece of coordinator state is touched only from the event-loop
thread; disk I/O goes through ``run_in_executor`` (the repo-wide
ASYNC-BLOCKING-CALL discipline) and worker HTTP through the async
:mod:`repro.fleet.netio` client.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.fleet.netio import TransportError, request_json
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


@dataclass(frozen=True)
class FleetConfig:
    """Ring knobs of one coordinator.  Admission knobs (backlog, quota,
    job timeout, retry budget, drain, Retry-After bounds, eviction) are
    the core's :class:`~repro.service.scheduler.SchedulerConfig`."""

    #: Seconds between heartbeat probe rounds.
    heartbeat_interval: float = 0.5
    #: Consecutive missed heartbeats before a node is declared dead.
    heartbeat_misses: int = 3
    #: Per-HTTP-request timeout when talking to workers (seconds).
    forward_timeout: float = 10.0
    #: How often the coordinator polls a worker for job progress.
    poll_interval: float = 0.05
    #: Route to the secondary owner when the primary holds at least
    #: this many more outstanding jobs (0 disables spilling).
    spill_threshold: int = 4
    #: Virtual nodes per worker on the hash ring.
    vnodes: int = 64


@dataclass
class WorkerNode:
    """Coordinator-side view of one worker."""

    url: str
    alive: bool = True
    #: Consecutive heartbeat misses (reset on any success).
    missed: int = 0
    #: Fleet jobs currently forwarded to this node.
    outstanding: int = 0
    jobs_done: int = 0
    registered_at: float = field(default_factory=time.time)

    def as_dict(self) -> Dict:
        return {"url": self.url, "alive": self.alive,
                "missed": self.missed, "outstanding": self.outstanding,
                "jobs_done": self.jobs_done}


class NodeLost(Exception):
    """The node in charge of a job died (or drained) under it."""


class FleetCoordinator(Backend):
    """Routing + liveness + forwarding over a set of worker nodes."""

    prefix = "fleet_"
    store_hit_counter = "fleet_store_hits_total"
    fleet = True

    def __init__(self, config: Optional[FleetConfig] = None,
                 workers: Sequence[str] = ()) -> None:
        self.config = config or FleetConfig()
        self.nodes: Dict[str, WorkerNode] = {}
        self.ring = HashRing(vnodes=self.config.vnodes)
        self._static_workers = list(workers)
        self._node_of: Dict[str, str] = {}   # job id -> worker url
        self._tasks: List["asyncio.Task"] = []
        self._heartbeat_task: Optional["asyncio.Task"] = None

    def bind(self, core) -> None:
        super().bind(core)
        # Static workers register once the registry exists, so they are
        # counted like self-registered ones.
        for url in self._static_workers:
            self.add_worker(url)

    # -- membership ------------------------------------------------------

    def add_worker(self, url: str) -> WorkerNode:
        """Register a worker (idempotent; a re-register revives it)."""
        url = url.rstrip("/")
        node = self.nodes.get(url)
        if node is None:
            node = WorkerNode(url=url)
            self.nodes[url] = node
            self.registry.count("fleet_nodes_registered_total")
        if not node.alive:
            self._revive(node)
        if node.alive and url not in self.ring:
            self.ring.add(url)
        return node

    def _mark_dead(self, node: WorkerNode) -> None:
        if not node.alive:
            return
        node.alive = False
        self.ring.remove(node.url)
        self.registry.count("fleet_node_deaths_total")
        # In-flight jobs on this node notice on their next poll (the
        # transport fails, or the worker reports a drain-cancel) and
        # requeue themselves through the ring, which no longer contains
        # this node.

    def _revive(self, node: WorkerNode) -> None:
        node.alive = True
        node.missed = 0
        self.ring.add(node.url)
        self.registry.count("fleet_node_revivals_total")

    @property
    def alive_workers(self) -> List[str]:
        return [url for url, node in sorted(self.nodes.items())
                if node.alive]

    @property
    def slots(self) -> int:
        return max(1, len(self.alive_workers))

    # -- backend lifecycle -----------------------------------------------

    async def start(self) -> None:
        if self._heartbeat_task is None:
            self._heartbeat_task = asyncio.get_running_loop().create_task(
                self._heartbeat_loop(), name="wsrs-fleet-heartbeat")

    def dispatch(self, job: Job) -> None:
        task = asyncio.get_running_loop().create_task(
            self._dispatch(job), name=f"wsrs-fleet-dispatch-{job.id}")
        self._tasks.append(task)
        if len(self._tasks) > 64:
            self._tasks = [item for item in self._tasks
                           if not item.done()]

    async def stop(self) -> None:
        pending = [task for task in self._tasks if not task.done()]
        if self._heartbeat_task is not None:
            pending.append(self._heartbeat_task)
            self._heartbeat_task = None
        for task in pending:
            task.cancel()
        if pending:
            await asyncio.gather(*pending, return_exceptions=True)
        self._tasks = []

    # -- queries ---------------------------------------------------------

    def node_of(self, job_id: str) -> Optional[str]:
        return self._node_of.get(job_id)

    def fleet_summary(self) -> Dict:
        return {
            "workers": [node.as_dict()
                        for _, node in sorted(self.nodes.items())],
            "alive": len(self.alive_workers),
        }

    def gauges(self) -> Dict[str, float]:
        return {"wsrs_fleet_workers_total": len(self.nodes),
                "wsrs_fleet_workers_alive": len(self.alive_workers)}

    # -- routing ---------------------------------------------------------

    def route(self, key: str, avoid: Optional[List[str]] = None
              ) -> Optional[str]:
        """The node a key should run on: its ring owner, spilled to the
        secondary owner under clear load skew."""
        owners = self.ring.owners(key, 2, exclude=avoid or [])
        if not owners:
            return None
        primary = self.nodes[owners[0]]
        if (len(owners) > 1 and self.config.spill_threshold > 0):
            secondary = self.nodes[owners[1]]
            if (primary.outstanding - secondary.outstanding
                    >= self.config.spill_threshold):
                self.registry.count("fleet_spills_total")
                return secondary.url
        return primary.url

    # -- heartbeats ------------------------------------------------------

    async def _heartbeat_loop(self) -> None:
        while True:
            await asyncio.sleep(self.config.heartbeat_interval)
            nodes = list(self.nodes.values())
            if nodes:
                await asyncio.gather(
                    *(self._probe(node) for node in nodes))

    async def _probe(self, node: WorkerNode) -> None:
        self.registry.count("fleet_heartbeats_total")
        timeout = max(0.25, min(self.config.heartbeat_interval * 2.0,
                                self.config.forward_timeout))
        healthy = False
        try:
            status, _headers, data = await request_json(
                node.url, "GET", "/healthz", timeout=timeout)
            healthy = (status == 200 and isinstance(data, dict)
                       and data.get("status") == "ok")
        except TransportError:
            healthy = False
        if healthy:
            node.missed = 0
            if not node.alive:
                self._revive(node)
            return
        self.registry.count("fleet_heartbeat_misses_total")
        node.missed += 1
        if node.alive and node.missed >= self.config.heartbeat_misses:
            self._mark_dead(node)

    # -- dispatch --------------------------------------------------------

    async def _dispatch(self, job: Job) -> None:
        """Drive one job to a terminal state, requeueing on node loss."""
        core = self.core
        deadline = time.monotonic() + core.config.job_timeout
        avoid: List[str] = []
        try:
            while True:
                if job.terminal:
                    return  # cancelled while queued
                if core.draining:
                    core._finish(job, jobmodel.CANCELLED,
                                 error="server shutting down",
                                 queued=True)
                    return
                node_url = self.route(job.key, avoid=avoid)
                if node_url is None and avoid:
                    # Every non-avoided node is gone too; the avoided
                    # one is dead anyway, so retry the full ring.
                    avoid = []
                    node_url = self.route(job.key)
                if node_url is None:
                    core._finish(job, jobmodel.FAILED,
                                 error="no live worker nodes",
                                 queued=True)
                    return
                job.attempts += 1
                try:
                    record = await self._forward_and_wait(
                        job, self.nodes[node_url], deadline)
                except NodeLost as exc:
                    if not self._requeue(job, node_url, str(exc)):
                        return
                    avoid = [node_url]
                    continue
                except asyncio.TimeoutError:
                    core._finish(job, jobmodel.FAILED,
                                 error=f"timeout after "
                                       f"{core.config.job_timeout:.0f}s")
                    return
                self._fold(job, record)
                if job.state == jobmodel.DONE and core.store is not None:
                    await asyncio.get_running_loop().run_in_executor(
                        None, core.store.put, job.key, job.result)
                return
        except asyncio.CancelledError:
            if not job.terminal:
                core._finish(job, jobmodel.FAILED,
                             error="aborted by coordinator shutdown",
                             queued=job.state == jobmodel.QUEUED)
            raise
        except Exception as exc:  # defensive: a dispatch bug must not
            # leave the job spinning forever
            if not job.terminal:
                core._finish(job, jobmodel.FAILED,
                             error=f"{type(exc).__name__}: {exc}",
                             queued=job.state == jobmodel.QUEUED)
        finally:
            self._node_of.pop(job.id, None)

    async def _forward_and_wait(self, job: Job, node: WorkerNode,
                                deadline: float) -> Dict:
        """Submit to one worker and poll until the job is terminal there.

        Raises :class:`NodeLost` when the node stops being a usable home
        for the job, :class:`asyncio.TimeoutError` past the deadline.
        """
        config = self.config
        headers = {"X-Client": f"fleet:{job.client}"}
        node.outstanding += 1
        self._node_of[job.id] = node.url
        self.core._begin(job)
        if job.started_at is None:
            job.started_at = time.time()
        try:
            record = await self._forward(job, node, headers, deadline)
            self.registry.count("fleet_forwarded_total")
            remote_id = record["id"]
            cancel_sent = False
            while record.get("state") not in jobmodel.TERMINAL_STATES:
                if time.monotonic() >= deadline:
                    await self._try_cancel_remote(node, remote_id,
                                                  headers)
                    raise asyncio.TimeoutError
                if job.cancel_requested and not cancel_sent:
                    await self._try_cancel_remote(node, remote_id,
                                                  headers)
                    cancel_sent = True
                await asyncio.sleep(config.poll_interval)
                try:
                    status, _h, data = await request_json(
                        node.url, "GET", f"/v1/jobs/{remote_id}",
                        headers=headers,
                        timeout=config.forward_timeout)
                except TransportError as exc:
                    raise NodeLost(f"{node.url} unreachable mid-poll: "
                                   f"{exc}") from exc
                if status != 200 or not isinstance(data, dict):
                    raise NodeLost(f"{node.url} lost track of forwarded "
                                   f"job {remote_id} (HTTP {status})")
                record = data
            if (record.get("state") == jobmodel.CANCELLED
                    and not job.cancel_requested):
                # The worker cancelled work the client never asked to
                # cancel: it is draining out from under us.  Node loss.
                raise NodeLost(f"{node.url} drained while holding the "
                               f"job ({record.get('error')})")
            return record
        finally:
            node.outstanding -= 1
            # Leave _node_of as the last node that held the job; the
            # next forward overwrites it and _dispatch clears it.

    async def _forward(self, job: Job, node: WorkerNode,
                       headers: Dict[str, str],
                       deadline: float) -> Dict:
        """POST the job to a worker, riding out transient sheds."""
        payload = jobmodel.request_payload(job.request)
        config = self.config
        while True:
            if time.monotonic() >= deadline:
                raise asyncio.TimeoutError
            try:
                status, reply_headers, data = await request_json(
                    node.url, "POST", "/v1/jobs", payload=payload,
                    headers=headers, timeout=config.forward_timeout)
            except TransportError as exc:
                raise NodeLost(
                    f"{node.url} unreachable on submit: {exc}") from exc
            if status in (200, 202) and isinstance(data, dict):
                if status == 200 and data.get("cached"):
                    # The node served its local cache: the routing win
                    # consistent hashing exists to produce.
                    self.registry.count("fleet_worker_cache_hits_total")
                return data
            if status == 429 and isinstance(data, dict):
                # Worker backlog full: transient back-pressure, not node
                # loss.  Honour its hint, bounded, then re-offer.
                hint = data.get("retry_after")
                pause = min(float(hint) if isinstance(
                    hint, (int, float)) else 1.0,
                    float(self.core.config.max_retry_after))
                await asyncio.sleep(max(0.05, pause))
                if job.cancel_requested or self.core.draining:
                    raise NodeLost("gave up re-offering during "
                                   "cancel/drain")
                if not node.alive:
                    raise NodeLost(f"{node.url} died while shedding")
                continue
            if status == 503:
                raise NodeLost(f"{node.url} is draining")
            detail = data.get("error") if isinstance(data, dict) else data
            raise RuntimeError(
                f"worker {node.url} rejected the job ({status}): "
                f"{detail}")

    async def _try_cancel_remote(self, node: WorkerNode, remote_id: str,
                                 headers: Dict[str, str]) -> None:
        try:
            await request_json(node.url, "DELETE",
                               f"/v1/jobs/{remote_id}", headers=headers,
                               timeout=self.config.forward_timeout)
        except TransportError:
            pass  # the poll loop will classify the node's fate

    def _requeue(self, job: Job, node_url: str, reason: str) -> bool:
        """Fold a node loss into the core's retry budget.  True to
        retry."""
        self.registry.count("fleet_node_losses_total")
        if job.cancel_requested:
            self.core._finish(job, jobmodel.CANCELLED,
                              error="cancelled by client")
            return False
        if not self.core._requeue(job, f"node lost ({reason})",
                                  f"lost node {node_url}"):
            return False
        self.registry.count("fleet_requeues_total")
        return True

    def _fold(self, job: Job, record: Dict) -> None:
        """Adopt a worker's terminal record as the fleet job's outcome."""
        state = record.get("state")
        node_url = self._node_of.get(job.id)
        if state == jobmodel.DONE:
            result = record.get("result")
            if not isinstance(result, dict):
                self.core._finish(job, jobmodel.FAILED,
                                  error=f"{node_url} reported done "
                                        f"without a result payload")
                return
            if node_url in self.nodes:
                self.nodes[node_url].jobs_done += 1
            self.core._finish(job, jobmodel.DONE, result=result)
            self.registry.sample(
                "fleet_job_latency_ms",
                max(1, round((job.finished_at - job.submitted_at)
                             * 1000.0)))
            return
        if state == jobmodel.CANCELLED:
            self.core._finish(job, jobmodel.CANCELLED,
                              error=record.get("error") or "cancelled")
            return
        self.core._finish(job, jobmodel.FAILED,
                          error=record.get("error")
                          or f"failed on {node_url}")
