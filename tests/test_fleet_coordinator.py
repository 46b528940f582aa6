"""Coordinator failure modes, socket-free (repro.fleet.coordinator).

The dispatch loop and heartbeat prober are exercised directly on an
event loop with the worker I/O stubbed out: node loss mid-job requeues
through the ring away from the lost node, the crash-requeue budget
exhausts into a clean FAILED, heartbeat misses (including a worker
answering "draining") kill and revive membership, and a restarted
coordinator replays completed work from the authoritative store
without any worker at all.
"""

import asyncio
import re
import time

import pytest

import repro.fleet.coordinator as coordinator_module
from repro.fleet.coordinator import (
    FleetConfig,
    FleetCoordinator,
    NodeLost,
)
from repro.fleet.netio import TransportError
from repro.service import jobs as jobmodel
from repro.service.scheduler import (
    Scheduler,
    SchedulerConfig,
    prometheus_text,
)
from repro.service.store import ResultStore

PAYLOAD = {"kind": "simulate", "benchmarks": ["gzip"],
           "configs": ["RR 256"], "measure": 100, "warmup": 0, "seed": 7}
WORKERS = ("http://n0:1", "http://n1:2")


def _coordinator(workers=WORKERS, store=None, retry_budget=2, **knobs):
    config = FleetConfig(heartbeat_interval=0.01, poll_interval=0.001,
                         **knobs)
    return Scheduler(SchedulerConfig(retry_budget=retry_budget),
                     store=store,
                     backend=FleetCoordinator(config, workers=workers))


def _stub_forward(coordinator, outcomes, visited):
    """Script _forward_and_wait: each outcome is either an exception to
    raise or a terminal worker record to return.  Keeps the real
    method's queued/running bookkeeping so _requeue/_finish accounting
    stays honest."""

    async def fake(job, node, deadline):
        visited.append(node.url)
        if job.state == jobmodel.QUEUED:
            coordinator._queued -= 1
            coordinator._running += 1
        job.state = jobmodel.RUNNING
        outcome = outcomes.pop(0)
        if isinstance(outcome, Exception):
            raise outcome
        return outcome

    coordinator.backend._forward_and_wait = fake


def _run_one(coordinator, payload=PAYLOAD, client="tester"):
    """Submit one job on a fresh loop and drive it to a terminal state."""

    async def drive():
        admission = coordinator.submit(payload, client=client)
        assert admission.status == 202
        await asyncio.gather(*coordinator.backend._tasks)
        return admission.job

    return asyncio.run(drive())


class TestNodeLossRequeue:
    def test_requeue_lands_on_another_node_then_succeeds(self, tmp_path):
        store = ResultStore(str(tmp_path), ttl_seconds=60.0)
        coordinator = _coordinator(store=store)
        visited = []
        _stub_forward(coordinator, [
            NodeLost("unreachable mid-poll"),
            {"id": "r1", "state": jobmodel.DONE,
             "result": {"cells": [1, 2]}},
        ], visited)
        job = _run_one(coordinator)
        assert job.state == jobmodel.DONE
        assert job.attempts == 2
        assert len(visited) == 2
        assert visited[1] != visited[0]  # retry avoided the lost node
        assert any("requeued" in note for note in job.notes)
        counters = coordinator.registry.counters
        assert counters["fleet_node_losses_total"] == 1
        assert counters["fleet_requeues_total"] == 1
        # The completed payload reached the authoritative store.
        assert store.get(job.key) == {"cells": [1, 2]}
        assert coordinator.queued == 0
        assert coordinator.running == 0

    def test_retry_budget_exhaustion_fails_cleanly(self):
        coordinator = _coordinator(retry_budget=1)
        visited = []
        _stub_forward(coordinator, [
            NodeLost("first loss"), NodeLost("second loss"),
        ], visited)
        job = _run_one(coordinator)
        assert job.state == jobmodel.FAILED
        assert "retry budget (1) exhausted" in job.error
        assert "second loss" in job.error
        assert job.attempts == 2
        counters = coordinator.registry.counters
        assert counters["fleet_node_losses_total"] == 2
        assert counters["fleet_requeues_total"] == 1
        # No leaked accounting: quota released, nothing queued/running.
        assert coordinator._client_active == {}
        assert coordinator.queued == 0
        assert coordinator.running == 0

    def test_cancelled_job_is_not_requeued(self):
        coordinator = _coordinator()

        async def fake(job, node, deadline):
            if job.state == jobmodel.QUEUED:
                coordinator._queued -= 1
                coordinator._running += 1
            job.state = jobmodel.RUNNING
            job.cancel_requested = True  # client cancels mid-flight
            raise NodeLost("node drained under the job")

        coordinator.backend._forward_and_wait = fake
        job = _run_one(coordinator)
        assert job.state == jobmodel.CANCELLED
        assert coordinator.registry.counters.get(
            "fleet_requeues_total", 0) == 0

    def test_no_live_workers_fails_the_job(self):
        coordinator = _coordinator(workers=())
        job = _run_one(coordinator)
        assert job.state == jobmodel.FAILED
        assert job.error == "no live worker nodes"


class TestHeartbeats:
    def test_misses_mark_dead_then_success_revives(self, monkeypatch):
        coordinator = _coordinator(workers=("http://n0:1",),
                                   heartbeat_misses=3)
        node = coordinator.backend.nodes["http://n0:1"]

        async def down(*_args, **_kwargs):
            raise TransportError("connection refused")

        async def up(*_args, **_kwargs):
            return 200, {}, {"status": "ok"}

        async def drive():
            monkeypatch.setattr(coordinator_module, "request_json", down)
            await coordinator.backend._probe(node)
            await coordinator.backend._probe(node)
            # Below the threshold the node stays routable.
            assert node.alive
            assert node.missed == 2
            await coordinator.backend._probe(node)
            assert not node.alive
            assert "http://n0:1" not in coordinator.backend.ring
            assert coordinator.backend.alive_workers == []
            # One successful probe revives it with its old key ranges.
            monkeypatch.setattr(coordinator_module, "request_json", up)
            await coordinator.backend._probe(node)
            assert node.alive
            assert node.missed == 0
            assert "http://n0:1" in coordinator.backend.ring

        asyncio.run(drive())
        counters = coordinator.registry.counters
        assert counters["fleet_heartbeat_misses_total"] == 3
        assert counters["fleet_node_deaths_total"] == 1
        assert counters["fleet_node_revivals_total"] == 1

    def test_draining_answer_counts_as_a_miss(self, monkeypatch):
        coordinator = _coordinator(workers=("http://n0:1",),
                                   heartbeat_misses=1)
        node = coordinator.backend.nodes["http://n0:1"]

        async def draining(*_args, **_kwargs):
            return 200, {}, {"status": "draining"}

        monkeypatch.setattr(coordinator_module, "request_json", draining)
        asyncio.run(coordinator.backend._probe(node))
        assert not node.alive

    def test_worker_503_on_submit_is_node_loss(self, monkeypatch):
        coordinator = _coordinator()
        node = coordinator.backend.nodes[WORKERS[0]]
        job = coordinator._attach(
            jobmodel.parse_request(PAYLOAD), "deadbeef", "tester")

        async def shed(*_args, **_kwargs):
            return 503, {}, {"error": "draining"}

        monkeypatch.setattr(coordinator_module, "request_json", shed)

        async def drive():
            with pytest.raises(NodeLost):
                await coordinator.backend._forward(
                    job, node, {}, time.monotonic() + 5.0)

        asyncio.run(drive())


class TestStoreReplay:
    def test_restart_replays_authoritative_store(self, tmp_path):
        request = jobmodel.parse_request(PAYLOAD)
        key = jobmodel.job_key(request)
        ResultStore(str(tmp_path), ttl_seconds=60.0).put(
            key, {"cells": ["replayed"]})
        # A restarted coordinator - fresh object, zero workers - must
        # answer the repeat submission from disk without dispatching.
        coordinator = _coordinator(
            workers=(), store=ResultStore(str(tmp_path), ttl_seconds=60.0))
        admission = coordinator.submit(PAYLOAD, client="tester")
        assert admission.status == 200
        assert admission.cached is True
        assert admission.job.state == jobmodel.DONE
        assert admission.job.result == {"cells": ["replayed"]}
        assert coordinator.registry.counters["fleet_store_hits_total"] == 1


class TestMetrics:
    def test_scrape_carries_heartbeat_and_requeue_counters(
            self, monkeypatch):
        coordinator = _coordinator(retry_budget=1)
        visited = []
        _stub_forward(coordinator, [
            NodeLost("first loss"), NodeLost("second loss"),
        ], visited)
        _run_one(coordinator)

        async def down(*_args, **_kwargs):
            raise TransportError("connection refused")

        monkeypatch.setattr(coordinator_module, "request_json", down)
        backend = coordinator.backend
        asyncio.run(backend._probe(backend.nodes[WORKERS[0]]))

        text = prometheus_text(coordinator)
        assert "# TYPE wsrs_fleet_heartbeats_total counter" in text
        assert "wsrs_fleet_heartbeats_total 1" in text
        assert "wsrs_fleet_heartbeat_misses_total 1" in text
        assert "wsrs_fleet_node_losses_total 2" in text
        assert "wsrs_fleet_requeues_total 1" in text
        assert "wsrs_fleet_jobs_failed_total 1" in text
        assert "wsrs_fleet_workers_alive 2" in text
        # Every sample line obeys the Prometheus text format the
        # service's /metrics tests pin.
        sample = re.compile(
            r'^wsrs_[a-z_]+(\{quantile="0\.\d+"\})? -?\d+(\.\d+)?$')
        for line in text.splitlines():
            assert line.startswith("# TYPE ") or sample.match(line), \
                f"malformed metrics line: {line!r}"
