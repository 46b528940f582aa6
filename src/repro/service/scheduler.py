"""Async job scheduler: one admission core over two dispatch backends.

The scheduler is the brain of both the single-host service and the
fleet coordinator.  :class:`Scheduler` owns every admission decision
and the job table; a :class:`Backend` owns only how an admitted job
runs:

* **Admission control** - requests are validated, then checked against
  the *result store* (a completed identical job short-circuits without
  touching a backend), *in-flight dedup* (an identical queued/running
  job absorbs the submission), the *per-client quota* and the *bounded
  backlog*.  Quota/backlog rejections are load sheds: HTTP 429 with a
  ``Retry-After`` estimated from the observed job-latency histogram,
  current backlog and the backend's slot count - the client backoff
  honours it, turning overload into queueing delay instead of collapse
  (cf. Carroll & Lin's queuing model of service stations: a finite
  buffer plus calibrated retry is what keeps the station stable past
  saturation).
* **Execution** - :class:`PoolBackend` runs one asyncio worker task per
  pool slot; each pulls the lowest-``(priority, seq)`` job and runs its
  cells through a ``ProcessPoolExecutor`` (the same engine
  :func:`repro.experiments.runner.execute_many` fans matrices over),
  checking the job deadline and cancellation flag between cells and
  simulating each distinct :attr:`~repro.experiments.runner.RunSpec.key`
  once, as ``execute_many`` does.  The
  fleet's lease backend (:class:`repro.fleet.coordinator
  .FleetCoordinator`) keeps admitted jobs in one backlog that worker
  nodes lease from instead.
* **Failure containment** - a lost attempt (a pool-process crash
  surfacing as ``BrokenProcessPool``, or a fleet node dying under the
  job) is requeued through :meth:`Scheduler._requeue` within a bounded
  retry budget.  Per-job timeouts fail the job (an already-running
  cell cannot be interrupted mid-simulation; its slot frees when the
  cell finishes, which the timeout bounds indirectly).
* **Completion** - :meth:`Scheduler._finish` makes every terminal
  transition exactly once, for both backends, and wakes whoever
  awaits :meth:`Scheduler.wait` on that job: the HTTP front's held
  ``GET /v1/jobs/<id>?wait=`` and the drain.  With a result store the
  finished record then retires to ``records/<id>.json`` and leaves the
  in-memory job table, which so holds only live jobs; without one the
  table keeps the :data:`FINISHED_JOBS_KEPT` most recent finished jobs.
* **Graceful drain** - :meth:`Scheduler.shutdown` stops admission,
  waits up to ``drain_timeout`` for the running jobs to finish,
  cancels the backlog, then stops the backend; the pool backend tears
  its pool down with the same
  :func:`~repro.experiments.runner.shutdown_pool` helper the CLI's
  Ctrl-C path uses, so no worker process is ever orphaned.

All counters and histograms live in a PR-4
:class:`~repro.obs.registry.ObsRegistry`; :func:`prometheus_text`
renders them (plus live gauges) in Prometheus text format for the
``/metrics`` endpoint.
"""

from __future__ import annotations

import asyncio
import collections
import math
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from repro.experiments.runner import (
    RunResult,
    RunSpec,
    execute,
    shutdown_pool,
    twin_result,
)
from repro.obs.registry import ObsRegistry
from repro.service import jobs as jobmodel
from repro.service.jobs import Job, JobValidationError
from repro.service.store import ResultStore

#: Finished jobs a scheduler without a result store keeps answering
#: for (about 3.4 KB each); older ones are forgotten, oldest first.
FINISHED_JOBS_KEPT = 1024
#: Floor of the Retry-After hint handed to shed clients (seconds).
MIN_RETRY_AFTER = 1
#: Ceiling of the Retry-After hint (seconds).
MAX_RETRY_AFTER = 60


@dataclass(frozen=True)
class SchedulerConfig:
    """Deployment knobs of one scheduler instance."""

    #: Pool worker processes == concurrently running jobs (pool backend).
    workers: int = 2
    #: Queued (not yet running) jobs admitted before load shedding.
    max_backlog: int = 64
    #: Queued+running jobs one client may hold before shedding.
    per_client_quota: int = 16
    #: Wall-clock budget of one job, cells included (seconds).
    job_timeout: float = 600.0
    #: Requeues granted after worker-process crashes before failing.
    retry_budget: int = 2
    #: How long shutdown waits for running jobs to finish (seconds).
    drain_timeout: float = 30.0
    #: Run the store's bulk eviction every N submissions (0 = never).
    evict_every: int = 64


@dataclass
class Admission:
    """Outcome of one submission attempt (maps onto the HTTP reply)."""

    status: int                     # 200 cached, 202 accepted, 4xx/503
    job: Optional[Job] = None
    error: Optional[str] = None
    retry_after: Optional[int] = None
    deduped: bool = False
    cached: bool = False

    @property
    def accepted(self) -> bool:
        return self.job is not None


class Backend:
    """How admitted jobs run; everything else belongs to the core.

    The core calls :meth:`dispatch` once per admitted job; a backend
    that requeues a lost attempt (through :meth:`Scheduler._requeue`)
    re-dispatches it itself.  Backends move jobs from queued to running
    with :meth:`Scheduler._begin` and to a terminal state with
    :meth:`Scheduler._finish`, so the core's counters stay the single
    source of truth.
    """

    #: Prefix of the job metrics the core records for this backend
    #: (``jobs_*_total``, ``job_latency_ms``, ``queue_depth`` ...).
    prefix = ""
    #: Counter bumped when the result store short-circuits a submission.
    store_hit_counter = "result_cache_hits_total"
    #: Fronts worker nodes: the HTTP front mounts the ``/v1/fleet``
    #: routes and adds the holding node to job records.
    fleet = False

    def bind(self, core: "Scheduler") -> None:
        self.core = core
        self.registry = core.registry

    @property
    def slots(self) -> int:
        """Jobs that can run at once: the Retry-After wave width."""
        raise NotImplementedError

    async def start(self) -> None:
        """Start the backend's long-lived tasks."""

    def dispatch(self, job: Job) -> None:
        raise NotImplementedError

    def cancel(self, job: Job) -> None:
        """A running job was flagged to stop; the pool backend reads
        the flag between cells, so only the fleet backend acts."""

    async def stop(self) -> None:
        """Reap every task and resource (drain already ran)."""

    def gauges(self) -> Dict[str, float]:
        """Backend-specific live gauges for ``/metrics``."""
        return {}


class Scheduler:
    """Admission control + job table over one dispatch backend."""

    def __init__(self, config: Optional[SchedulerConfig] = None,
                 store: Optional[ResultStore] = None,
                 registry: Optional[ObsRegistry] = None,
                 cell_runner: Callable[[RunSpec], RunResult] = execute,
                 backend: Optional[Backend] = None) -> None:
        self.config = config or SchedulerConfig()
        if self.config.workers < 1:
            raise ValueError("SchedulerConfig.workers must be >= 1")
        self.store = store
        self.registry = registry or ObsRegistry()
        #: Live jobs, plus the most recent finished ones when there is
        #: no store to retire them to (ids in ``_finished``).
        self.jobs: Dict[str, Job] = {}
        self._finished: "collections.deque[str]" = collections.deque()
        self._completions: Dict[str, asyncio.Event] = {}
        self._by_key: Dict[str, Job] = {}
        self._client_active: Dict[str, int] = {}
        self._queued = 0
        self._running = 0
        self._submissions = 0
        self._sweep: Optional["asyncio.Future"] = None
        self._accepting = True
        self._draining = False
        self.started_at = time.time()
        self.backend = (backend if backend is not None
                        else PoolBackend(cell_runner))
        self.backend.bind(self)

    # -- lifecycle -------------------------------------------------------

    async def start(self) -> None:
        await self.backend.start()

    async def shutdown(self, drain: bool = True) -> None:
        """Stop admission, drain in-flight jobs, stop the backend."""
        self._accepting = False
        self._draining = True
        if drain:
            # Nothing starts once draining is set, so waiting on the
            # jobs running now covers every job the drain owes a finish.
            await asyncio.gather(*(
                self.wait(job, self.config.drain_timeout)
                for job in list(self.jobs.values())
                if job.state == jobmodel.RUNNING))
        for job in list(self.jobs.values()):
            if job.state == jobmodel.QUEUED:
                self._finish(job, jobmodel.CANCELLED,
                             error="server shutting down", queued=True)
        await self.backend.stop()
        if self.store is not None:
            # Disk-backed eviction scans the store directory; keep the
            # event loop responsive by pushing it to a worker thread.
            await asyncio.get_running_loop().run_in_executor(
                None, self.store.evict_expired)

    # -- admission -------------------------------------------------------

    def submit(self, payload: object, client: str = "anonymous"
               ) -> Admission:
        """Admit (or shed) one job submission.  Synchronous: every
        decision is made from in-memory state plus one store lookup."""
        self._submissions += 1
        if (self.store is not None and self.config.evict_every
                and self._submissions % self.config.evict_every == 0):
            self._sweep_store()
        if not self._accepting:
            self.registry.count("admission_shed_total")
            return Admission(status=503, error="server is draining",
                             retry_after=MAX_RETRY_AFTER)
        try:
            request = jobmodel.parse_request(payload)
        except JobValidationError as exc:
            self.registry.count("jobs_rejected_total")
            return Admission(status=400, error=str(exc))
        key = jobmodel.job_key(request)
        prefix = self.backend.prefix

        # Completed-result short circuit: identical work already done
        # (on a coordinator, possibly anywhere in the fleet and before
        # a restart).
        if self.store is not None:
            stored = self.store.get(key)
            if stored is not None:
                self.registry.count(self.backend.store_hit_counter)
                job = self._attach(request, key, client)
                job.cached = True
                job.started_at = job.submitted_at
                self._finish(job, jobmodel.DONE, result=stored,
                             queued=False, account_client=False)
                return Admission(status=200, job=job, cached=True)

        # In-flight dedup: fold into the identical queued/running job.
        existing = self._by_key.get(key)
        if (existing is not None and not existing.terminal
                and not existing.cancel_requested):
            existing.deduped += 1
            self.registry.count("dedup_hits_total")
            return Admission(status=202, job=existing, deduped=True)

        # Load shedding: per-client quota, then global backlog bound.
        active = self._client_active.get(client, 0)
        if active >= self.config.per_client_quota:
            self.registry.count("admission_shed_total")
            self.registry.count("quota_shed_total")
            return Admission(
                status=429,
                error=f"client {client!r} already has {active} active "
                      f"job(s) (quota {self.config.per_client_quota})",
                retry_after=self.retry_after_hint())
        if self._queued >= self.config.max_backlog:
            self.registry.count("admission_shed_total")
            self.registry.count("backlog_shed_total")
            return Admission(
                status=429,
                error=f"backlog full ({self._queued} job(s) queued, "
                      f"bound {self.config.max_backlog})",
                retry_after=self.retry_after_hint())

        job = self._attach(request, key, client)
        self._by_key[key] = job
        self._client_active[client] = active + 1
        self._queued += 1
        self.registry.count(f"{prefix}jobs_submitted_total")
        self.registry.sample(f"{prefix}queue_depth", self._queued)
        self.registry.sample(f"{prefix}cells_per_job", request.num_cells)
        self.backend.dispatch(job)
        return Admission(status=202, job=job)

    def _sweep_store(self) -> None:
        """Start the store's bulk eviction on a worker thread, at most
        one sweep at a time: it reads every record file, and ``submit``
        runs on the event loop that answers every other request."""
        if self._sweep is not None and not self._sweep.done():
            return
        self._sweep = asyncio.get_running_loop().run_in_executor(
            None, self.store.evict_expired)

    def _attach(self, request: jobmodel.JobRequest, key: str,
                client: str) -> Job:
        job = Job(id=jobmodel.new_job_id(), key=key, request=request,
                  client=client, submitted_at=time.time())
        self.jobs[job.id] = job
        return job

    def retry_after_hint(self) -> int:
        """Seconds a shed client should wait: the estimated time for the
        backlog to drain one slot, from the observed latency mean."""
        latency = self.registry.histograms.get(
            f"{self.backend.prefix}job_latency_ms")
        mean_ms = latency.mean if latency is not None else 0.0
        if mean_ms <= 0:
            return MIN_RETRY_AFTER
        waves = math.ceil((self._queued + 1) / self.backend.slots)
        estimate = math.ceil(waves * mean_ms / 1000.0)
        return max(MIN_RETRY_AFTER, min(MAX_RETRY_AFTER, estimate))

    # -- queries ---------------------------------------------------------

    def get(self, job_id: str) -> Optional[Job]:
        """A live job, or a finished one not (yet) retired."""
        return self.jobs.get(job_id)

    def retired(self, job_id: str) -> Optional[Dict]:
        """The record of a job retired to the store, or None.  A done
        record reads its result back from the store under its key, and
        answers without one once that result expired.  Disk I/O: call
        it off the event loop."""
        if self.store is None:
            return None
        try:
            record = self.store.get_record(job_id)
        except ValueError:
            return None  # not a job id, so never a retired job
        if record is not None and record["state"] == jobmodel.DONE:
            result = self.store.peek(record["key"])
            if result is not None:
                record["result"] = result
        return record

    async def wait(self, job: Job, timeout: float) -> None:
        """Return once ``job`` is terminal or ``timeout`` seconds
        passed, whichever comes first."""
        if job.terminal or timeout <= 0:
            return
        completion = self._completions.get(job.id)
        if completion is None:
            completion = self._completions[job.id] = asyncio.Event()
        try:
            await asyncio.wait_for(completion.wait(), timeout)
        except asyncio.TimeoutError:
            pass

    def cancel(self, job_id: str) -> Optional[bool]:
        """Cancel a live job.  True if the cancel took hold (queued job
        removed, or running job flagged to stop at the next cell
        boundary or forwarded to its node), False if already terminal,
        None if not in the job table (unknown or retired)."""
        job = self.jobs.get(job_id)
        if job is None:
            return None
        if job.state == jobmodel.QUEUED:
            self._finish(job, jobmodel.CANCELLED, error="cancelled by "
                         "client", queued=True)
            return True
        if job.state == jobmodel.RUNNING:
            job.cancel_requested = True
            self.backend.cancel(job)
            return True
        return False

    @property
    def queued(self) -> int:
        return self._queued

    @property
    def running(self) -> int:
        return self._running

    @property
    def accepting(self) -> bool:
        return self._accepting

    @property
    def draining(self) -> bool:
        return self._draining

    def counts(self) -> Dict[str, int]:
        """Jobs per state; finished ones from the terminal counters, so
        retired jobs still count."""
        counters = self.registry.counters
        states = {jobmodel.QUEUED: self._queued,
                  jobmodel.RUNNING: self._running}
        for state in (jobmodel.DONE, jobmodel.FAILED, jobmodel.CANCELLED):
            states[state] = counters.get(
                f"{self.backend.prefix}jobs_{state}_total", 0)
        return states

    # -- job state transitions (called by backends) ----------------------

    def _begin(self, job: Job) -> None:
        """A queued job takes a run slot."""
        self._queued -= 1
        self._running += 1
        job.state = jobmodel.RUNNING

    def _requeue(self, job: Job, cause: str, lost: str) -> bool:
        """Fold a lost attempt into the retry budget.  True when the job
        is queued again (the backend re-dispatches it), False when the
        budget is spent and the job failed with ``cause``."""
        if job.attempts > self.config.retry_budget:
            self._finish(job, jobmodel.FAILED,
                         error=f"{cause}; retry budget "
                               f"({self.config.retry_budget}) exhausted "
                               f"after {job.attempts} attempt(s)")
            return False
        job.notes.append(f"attempt {job.attempts} {lost}; requeued")
        job.state = jobmodel.QUEUED
        self._running -= 1
        self._queued += 1
        return True

    def _finish(self, job: Job, state: str, result: Optional[Dict] = None,
                error: Optional[str] = None, queued: bool = False,
                account_client: bool = True) -> None:
        """Move a job to a terminal state exactly once, releasing its
        queue slot (``queued=True``), run slot, quota share and dedup
        key, waking its waiters and retiring it to the store."""
        if job.terminal:
            return
        was_running = job.state == jobmodel.RUNNING
        job.state = state
        job.result = result
        job.error = error
        job.finished_at = time.time()
        if job.started_at is not None:
            job.latency_ms = (job.finished_at - job.submitted_at) * 1000.0
        if queued:
            self._queued -= 1
        elif was_running:
            self._running -= 1
        if self._by_key.get(job.key) is job:
            del self._by_key[job.key]
        if account_client and (queued or was_running):
            active = self._client_active.get(job.client, 0)
            if active <= 1:
                self._client_active.pop(job.client, None)
            else:
                self._client_active[job.client] = active - 1
        self.registry.count(f"{self.backend.prefix}jobs_{state}_total")
        completion = self._completions.pop(job.id, None)
        if completion is not None:
            completion.set()
        if self.store is not None:
            self._retire(job)
            return
        self._finished.append(job.id)
        if len(self._finished) > FINISHED_JOBS_KEPT:
            self.jobs.pop(self._finished.popleft(), None)

    def _retire(self, job: Job) -> None:
        """Write the finished record, less its result (the store holds
        that under the job's key already), to the store on a worker
        thread, then drop the table entry; until the write lands the job
        is still answered from memory."""
        try:
            loop = asyncio.get_running_loop()
        except RuntimeError:
            return  # driven without an event loop: keep it in memory
        landed = loop.run_in_executor(None, self.store.put_record,
                                      job.id,
                                      job.as_dict(include_result=False))

        def drop(future: "asyncio.Future") -> None:
            # A failed write keeps the job where GET still finds it.
            if not future.cancelled() and future.exception() is None:
                self.jobs.pop(job.id, None)

        landed.add_done_callback(drop)


class PoolBackend(Backend):
    """Run admitted jobs cell by cell on a local process pool."""

    def __init__(self, cell_runner: Callable[[RunSpec], RunResult] = execute
                 ) -> None:
        self._cell_runner = cell_runner
        self._queue: "asyncio.PriorityQueue" = asyncio.PriorityQueue()
        self._seq = 0
        self._pool: Optional[ProcessPoolExecutor] = None
        self._workers: List["asyncio.Task"] = []

    @property
    def slots(self) -> int:
        return self.core.config.workers

    async def start(self) -> None:
        """Create the pool and the per-slot worker tasks."""
        if self._pool is None:
            self._pool = self._make_pool()
        if not self._workers:
            self._workers = [
                asyncio.get_running_loop().create_task(
                    self._worker_loop(), name=f"wsrs-job-worker-{index}")
                for index in range(self.slots)]

    def _make_pool(self) -> ProcessPoolExecutor:
        return ProcessPoolExecutor(max_workers=self.slots)

    def dispatch(self, job: Job) -> None:
        self._seq += 1
        self._queue.put_nowait((job.priority, self._seq, job))

    async def stop(self) -> None:
        for task in self._workers:
            task.cancel()
        if self._workers:
            await asyncio.gather(*self._workers, return_exceptions=True)
        self._workers = []
        if self._pool is not None:
            # Same orderly teardown the CLI's Ctrl-C path uses: queued
            # cells cancelled, running workers joined, nothing orphaned.
            shutdown_pool(self._pool)
            self._pool = None

    async def _worker_loop(self) -> None:
        while True:
            _, _, job = await self._queue.get()
            if job.state != jobmodel.QUEUED:
                continue  # tombstone of a cancelled queued job
            if self.core.draining:
                self.core._finish(job, jobmodel.CANCELLED,
                                  error="server shutting down",
                                  queued=True)
                continue
            await self._run_job(job)

    async def _run_job(self, job: Job) -> None:
        core = self.core
        loop = asyncio.get_running_loop()
        core._begin(job)
        job.started_at = time.time()
        job.attempts += 1
        started = time.monotonic()
        deadline = started + core.config.job_timeout
        try:
            results: List[RunResult] = []
            runs: Dict[tuple, RunResult] = {}  # one run per distinct key
            for spec in jobmodel.cell_specs(job.request):
                if job.cancel_requested:
                    core._finish(job, jobmodel.CANCELLED,
                                 error="cancelled mid-run")
                    return
                if spec.key in runs:
                    results.append(twin_result(runs[spec.key], spec))
                    continue
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    raise asyncio.TimeoutError
                future = loop.run_in_executor(
                    self._pool, self._cell_runner, spec)
                runs[spec.key] = await asyncio.wait_for(future,
                                                        timeout=remaining)
                results.append(runs[spec.key])
            if job.cancel_requested:
                core._finish(job, jobmodel.CANCELLED,
                             error="cancelled mid-run")
                return
            payload = jobmodel.job_payload(job.request, results)
            if job.request.kind == "explore":
                from repro.explore.explorer import count_explore

                count_explore(self.registry, payload)
            if core.store is not None:
                # put() is an atomic disk write; a worker thread keeps
                # the event loop free while it lands.
                await loop.run_in_executor(
                    None, core.store.put, job.key, payload)
            core._finish(job, jobmodel.DONE, result=payload)
            self.registry.sample(
                "job_latency_ms",
                max(1, round((time.monotonic() - started) * 1000.0)))
        except asyncio.CancelledError:
            # Drain timeout expired with this job still running: record
            # the truth and let the teardown proceed.
            core._finish(job, jobmodel.FAILED,
                         error="aborted by server shutdown")
            raise
        except asyncio.TimeoutError:
            core._finish(job, jobmodel.FAILED,
                         error=f"timeout after "
                               f"{core.config.job_timeout:.0f}s")
            self.registry.count("jobs_timeout_total")
        except BrokenProcessPool:
            self._handle_crash(job)
        except Exception as exc:  # simulator raised: config/trace defect
            core._finish(job, jobmodel.FAILED,
                         error=f"{type(exc).__name__}: {exc}")

    def _handle_crash(self, job: Job) -> None:
        """A pool process died under this job: rebuild, then requeue
        within the retry budget."""
        self.registry.count("worker_crashes_total")
        broken, self._pool = self._pool, self._make_pool()
        if broken is not None:
            broken.shutdown(wait=False)
        if self.core._requeue(job, "worker process crashed",
                              "crashed a worker"):
            self.registry.count("worker_crash_requeues_total")
            self.dispatch(job)


# -- Prometheus rendering ------------------------------------------------

_QUANTILES = (0.5, 0.95, 0.99)


def _histogram_quantile(bins: Dict[int, int], q: float) -> int:
    total = sum(bins.values())
    if not total:
        return 0
    threshold = q * total
    seen = 0
    value = 0
    for value in sorted(bins):
        seen += bins[value]
        if seen >= threshold:
            return value
    return value


def prometheus_text(scheduler: Scheduler) -> str:
    """The scheduler's ``/metrics`` body: its ObsRegistry plus live
    gauges, in Prometheus text format.

    Counters become ``wsrs_<name>`` counters; histograms become
    quantile-labelled gauges with ``_count``/``_sum`` companions - the
    conventional scrape shape for precomputed summaries.  A fleet
    coordinator's job metrics carry the ``fleet_`` prefix, so they
    render as ``wsrs_fleet_*``.
    """
    prefix = scheduler.backend.prefix
    gauges: Dict[str, float] = {
        f"wsrs_{prefix}queue_depth": scheduler.queued,
        f"wsrs_{prefix}jobs_running": scheduler.running,
        "wsrs_accepting": int(scheduler.accepting),
        "wsrs_uptime_seconds": round(time.time() - scheduler.started_at, 3),
    }
    gauges.update(scheduler.backend.gauges())
    if scheduler.store is not None:
        gauges["wsrs_result_store_entries"] = len(scheduler.store)
        gauges["wsrs_result_store_evictions_total"] = \
            scheduler.store.evictions
    registry = scheduler.registry
    lines: List[str] = []
    for name in sorted(registry.counters):
        metric = f"wsrs_{name}"
        lines.append(f"# TYPE {metric} counter")
        lines.append(f"{metric} {registry.counters[name]}")
    for metric in sorted(gauges):
        lines.append(f"# TYPE {metric} gauge")
        lines.append(f"{metric} {gauges[metric]}")
    for name in sorted(registry.histograms):
        histogram = registry.histograms[name]
        metric = f"wsrs_{name}"
        lines.append(f"# TYPE {metric} summary")
        for q in _QUANTILES:
            value = _histogram_quantile(histogram.bins, q)
            lines.append(f'{metric}{{quantile="{q}"}} {value}')
        lines.append(f"{metric}_count {histogram.total_weight}")
        total = sum(value * weight
                    for value, weight in histogram.bins.items())
        lines.append(f"{metric}_sum {total}")
    return "\n".join(lines) + "\n"
