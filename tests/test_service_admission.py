"""One admission contract, two dispatch backends.

Every admission decision lives in the scheduler core, so the local
process-pool backend and the fleet's lease backend must answer the same
submissions the same way: the happy path, in-flight dedup, the
result-store short circuit, 400 on invalid payloads, quota and backlog
sheds with a ``Retry-After`` hint, and drain.  The fleet backend runs
with one in-process fake worker node calling its ``lease`` and
``report`` entry points, as ``tests/test_fleet_coordinator.py`` does.

Also here: the HTTP front mounts the fleet routes only over a lease
backend, and the store's bulk eviction sweep never blocks the event
loop.
"""

import asyncio
import threading
import time

import pytest

import repro.fleet.coordinator as coordinator_module
from repro.experiments.runner import execute
from repro.fleet.coordinator import FleetCoordinator
from repro.fleet.netio import request_json
from repro.service import jobs as jobmodel
from repro.service.client import ServiceClient, ServiceError
from repro.service.scheduler import Scheduler, SchedulerConfig
from repro.service.server import EmbeddedServer, ServiceServer
from repro.service.store import ResultStore

#: Per-backend metric names the admission core records.
METRICS = {
    "pool": {"store_hits": "result_cache_hits_total",
             "submitted": "jobs_submitted_total"},
    "lease": {"store_hits": "fleet_store_hits_total",
              "submitted": "fleet_jobs_submitted_total"},
}


def payload(seed=1):
    return {"kind": "simulate", "benchmark": "gzip", "config": "RR 256",
            "measure": 300, "warmup": 0, "seed": seed}


def slow_runner(spec):
    time.sleep(0.3)
    return execute(spec)


def _pool(store, **config):
    return Scheduler(SchedulerConfig(workers=1, **config), store=store,
                     cell_runner=slow_runner)


def _lease(store, **config):
    # One fake one-slot worker node, started with the backend: it leases
    # each job, "runs" it for 0.3 s and reports it done.
    backend = FleetCoordinator()
    scheduler = Scheduler(SchedulerConfig(**config), store=store,
                          backend=backend)
    node = "http://127.0.0.1:9"
    running = []

    async def run(grant):
        await asyncio.sleep(0.3)
        key = jobmodel.job_key(jobmodel.parse_request(grant["request"]))
        await backend.report(node, grant["id"], {
            "state": jobmodel.DONE, "result": {"cells": [{"key": key}]}})
        running.remove(grant["id"])

    async def worker():
        while not backend._stopped:
            reply = await backend.lease(node, 1 - len(running),
                                        list(running))
            for grant in reply["jobs"]:
                running.append(grant["id"])
                asyncio.ensure_future(run(grant))

    start = backend.start

    async def start_with_worker():
        await start()
        asyncio.ensure_future(worker())

    backend.start = start_with_worker
    return scheduler


@pytest.fixture(params=["pool", "lease"])
def backend(request):
    return request.param


def build(backend, store=None, **config):
    return (_pool if backend == "pool" else _lease)(store, **config)


async def wait_state(job, states, timeout=30.0):
    deadline = time.monotonic() + timeout
    while job.state not in states:
        assert time.monotonic() < deadline, f"job stuck in {job.state!r}"
        await asyncio.sleep(0.01)
    return job


async def wait_terminal(job):
    return await wait_state(job, jobmodel.TERMINAL_STATES)


def run_started(scheduler, scenario):
    async def main():
        await scheduler.start()
        try:
            await scenario()
        finally:
            await scheduler.shutdown()

    asyncio.run(main())


class TestAdmissionContract:
    def test_happy_path(self, backend):
        scheduler = build(backend)

        async def scenario():
            admission = scheduler.submit(payload(), client="a")
            assert admission.status == 202
            job = await wait_terminal(admission.job)
            assert job.state == jobmodel.DONE
            assert job.result["cells"]
            assert scheduler.registry.counters[
                METRICS[backend]["submitted"]] == 1
            assert scheduler.queued == scheduler.running == 0

        run_started(scheduler, scenario)

    def test_inflight_dedup(self, backend):
        scheduler = build(backend)

        async def scenario():
            first = scheduler.submit(payload(), client="a")
            second = scheduler.submit(payload(), client="b")
            assert second.status == 202 and second.deduped
            assert second.job is first.job
            assert scheduler.registry.counters["dedup_hits_total"] == 1
            await wait_terminal(first.job)

        run_started(scheduler, scenario)

    def test_store_short_circuit(self, backend, tmp_path):
        store = ResultStore(str(tmp_path), ttl_seconds=None)
        key = jobmodel.job_key(jobmodel.parse_request(payload()))
        store.put(key, {"cells": ["stored"]})
        scheduler = build(backend, store=store)

        async def scenario():
            admission = scheduler.submit(payload(), client="a")
            assert admission.status == 200 and admission.cached
            assert admission.job.state == jobmodel.DONE
            assert admission.job.result == {"cells": ["stored"]}
            assert scheduler.registry.counters[
                METRICS[backend]["store_hits"]] == 1

        run_started(scheduler, scenario)

    def test_invalid_payload_is_400(self, backend):
        scheduler = build(backend)

        async def scenario():
            admission = scheduler.submit({"kind": "nope"}, client="a")
            assert admission.status == 400
            assert admission.retry_after is None
            assert scheduler.registry.counters["jobs_rejected_total"] == 1

        run_started(scheduler, scenario)

    def test_quota_and_backlog_sheds_carry_retry_after(self, backend):
        scheduler = build(backend, per_client_quota=1, max_backlog=1)

        async def scenario():
            # No await between the submissions: the first job is still
            # queued on either backend, filling the backlog of one.
            first = scheduler.submit(payload(seed=1), client="a")
            assert first.status == 202
            quota = scheduler.submit(payload(seed=2), client="a")
            backlog = scheduler.submit(payload(seed=3), client="b")
            for shed, reason in ((quota, "quota"), (backlog, "backlog")):
                assert shed.status == 429 and shed.job is None
                assert reason in shed.error
                assert shed.retry_after >= 1
            counters = scheduler.registry.counters
            assert counters["quota_shed_total"] == 1
            assert counters["backlog_shed_total"] == 1
            assert counters["admission_shed_total"] == 2
            await wait_terminal(first.job)

        run_started(scheduler, scenario)

    def test_drain_finishes_running_and_cancels_queued(self, backend):
        scheduler = build(backend, max_backlog=4, drain_timeout=30.0)

        async def main():
            await scheduler.start()
            running = scheduler.submit(payload(seed=1), client="a")
            await wait_state(running.job, (jobmodel.RUNNING,))
            queued = scheduler.submit(payload(seed=2), client="a")
            assert queued.job.state == jobmodel.QUEUED
            await scheduler.shutdown(drain=True)
            assert running.job.state == jobmodel.DONE
            assert queued.job.state == jobmodel.CANCELLED
            late = scheduler.submit(payload(seed=3), client="a")
            assert late.status == 503
            assert not scheduler.accepting
            assert scheduler.queued == scheduler.running == 0

        asyncio.run(main())


class TestFleetRoutes:
    @pytest.mark.parametrize("method,path", [
        ("GET", "/v1/fleet"), ("POST", "/v1/fleet/lease")])
    def test_plain_service_has_no_fleet_routes(self, method, path):
        server = ServiceServer(Scheduler(SchedulerConfig(workers=1)))
        status, _record, _headers = asyncio.run(server.route(
            method, path, {},
            b'{"node": "http://127.0.0.1:9", "free": 0, "running": []}'))
        assert status == 404

    def test_lease_front_serves_fleet_routes(self, monkeypatch):
        monkeypatch.setattr(coordinator_module, "LEASE_HOLD_S", 0.01)
        server = ServiceServer(_lease(None))

        def route(method, path, body=b""):
            return asyncio.run(server.route(method, path, {}, body))

        status, record, _headers = route(
            "POST", "/v1/fleet/lease",
            b'{"node": "http://127.0.0.1:10", "free": 1, "running": []}')
        assert status == 200
        assert record == {"jobs": [], "revoked": []}
        status, record, _headers = route("GET", "/v1/fleet")
        assert status == 200 and record["alive"] == 1
        assert record["workers"][0]["url"] == "http://127.0.0.1:10"
        for body in (b'{"free": 1, "running": []}',
                     b'{"node": "n", "free": -1, "running": []}',
                     b'{"node": "n", "free": 1, "running": [3]}',
                     b"[]", b"{"):
            assert route("POST", "/v1/fleet/lease", body)[0] == 400
        status, record, _headers = route(
            "POST", "/v1/fleet/leases/j000000000000",
            b'{"node": "http://127.0.0.1:10", '
            b'"record": {"state": "done", "result": {}}}')
        assert status == 409
        assert route("GET", "/v1/fleet/lease")[0] == 405

    def test_a_report_may_carry_a_large_result(self):
        async def main():
            server = ServiceServer(_lease(None))
            await server.start()
            try:
                record = {"state": "done",
                          "result": {"cells": ["x" * 200_000]}}
                return await request_json(
                    server.url, "POST", "/v1/fleet/leases/j000000000000",
                    payload={"node": "http://127.0.0.1:10",
                             "record": record})
            finally:
                await server.stop()

        status, _headers, _reply = asyncio.run(main())
        assert status == 409  # read whole, and refused: no such lease


class _BlockingStore(ResultStore):
    """A store whose bulk sweep blocks until the test releases it."""

    def __init__(self, directory):
        super().__init__(directory, ttl_seconds=None)
        self.release = threading.Event()
        self.sweeps = 0

    def evict_expired(self):
        self.sweeps += 1
        self.release.wait(30.0)
        return 0


def test_eviction_sweep_does_not_block_the_event_loop(tmp_path):
    store = _BlockingStore(str(tmp_path))
    scheduler = Scheduler(SchedulerConfig(workers=1, evict_every=1),
                          store=store)
    server = EmbeddedServer(scheduler)
    url = server.start()
    try:
        client = ServiceClient(url, client_id="sweeper", timeout=5.0,
                               max_attempts=1)
        # Each submission is an eviction tick; an invalid payload keeps
        # the pool idle.  Both replies, and a health check, must arrive
        # while the first sweep is still blocked.
        for _ in range(2):
            with pytest.raises(ServiceError, match="400"):
                client.submit({"kind": "nope"})
        assert client.healthz()["status"] == "ok"
        assert store.sweeps == 1   # at most one sweep in flight
    finally:
        store.release.set()
        server.stop()
