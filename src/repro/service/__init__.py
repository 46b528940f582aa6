"""Simulation-as-a-service: the async job layer over the experiment engine.

The paper's evaluation is hundreds of (configuration, benchmark) cells;
the ROADMAP's north star is a system serving that fan-out to many
concurrent clients.  This package turns the one-shot CLI entry points
into a long-lived, stdlib-only service - and, with the lease backend of
:mod:`repro.fleet.coordinator` in place of the process pool, into the
fleet coordinator:

=================  ====================================================
:mod:`jobs`        job model: request validation, idempotency keys
                   derived from the trace-cache key scheme, state
                   machine, result payload shaping
:mod:`store`       disk-backed result store - atomic writes
                   (:mod:`repro.atomicio`) and TTL eviction
:mod:`scheduler`   the one admission core: admission control,
                   per-client quotas, bounded backlog with load
                   shedding, dedup of identical in-flight requests,
                   lost-attempt requeue, graceful drain - over a
                   dispatch backend; the pool backend bridges jobs
                   onto the experiment engine's ``ProcessPoolExecutor``
                   with per-job timeout/cancellation
:mod:`server`      asyncio HTTP server: ``POST/GET/DELETE /v1/jobs``,
                   ``/healthz``, Prometheus-style ``/metrics`` fed from
                   the :class:`~repro.obs.registry.ObsRegistry`,
                   plus ``/v1/fleet`` routes over a lease backend
:mod:`client`      retrying HTTP client - exponential backoff with
                   jitter, ``Retry-After`` honoured on load shedding
:mod:`loadtest`    multi-client load harness: throughput/latency
                   percentiles, bit-identical cross-check against
                   direct :func:`~repro.experiments.runner.run_matrix`
                   execution, ``BENCH_service.json``; ``--fleet``
                   drives local fleets into ``BENCH_fleet.json``
=================  ====================================================

CLI entry points: ``wsrs serve``, ``wsrs submit``, ``wsrs loadtest``,
``wsrs fleet serve-coordinator``.
"""

from repro.service.jobs import (  # noqa: F401
    Job,
    JobRequest,
    JobValidationError,
    job_key,
    parse_request,
)
from repro.service.scheduler import Scheduler, SchedulerConfig  # noqa: F401
from repro.service.store import ResultStore  # noqa: F401
