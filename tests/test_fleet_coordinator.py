"""Coordinator lease paths, socket-free (repro.fleet.coordinator).

The lease backend's entry points - ``lease``, ``report`` and ``reap``
- are called directly on an event loop in place of worker nodes:
oldest-first hand-out, expiry requeue within the retry budget,
revocation, stale reports, deadlines, the "always three rounds"
property of one shared backlog, and a restarted coordinator replaying
completed work from the authoritative store without any worker at all.
"""

import asyncio
import re
import time

import pytest

import repro.fleet.coordinator as coordinator_module
from repro.fleet.coordinator import FleetCoordinator
from repro.service import jobs as jobmodel
from repro.service.scheduler import (
    Scheduler,
    SchedulerConfig,
    prometheus_text,
)
from repro.service.store import ResultStore

PAYLOAD = {"kind": "simulate", "benchmarks": ["gzip"],
           "configs": ["RR 256"], "measure": 100, "warmup": 0, "seed": 7}
N0, N1, N2 = "http://n0:1", "http://n1:2", "http://n2:3"
DONE = {"state": jobmodel.DONE, "result": {"cells": ["remote"]}}


@pytest.fixture(autouse=True)
def short_holds(monkeypatch):
    """Idle exchanges come back after 50 ms instead of 0.5 s."""
    monkeypatch.setattr(coordinator_module, "LEASE_HOLD_S", 0.05)


def _coordinator(store=None, retry_budget=2, **config):
    return Scheduler(SchedulerConfig(retry_budget=retry_budget, **config),
                     store=store, backend=FleetCoordinator())


def _payload(seed):
    return dict(PAYLOAD, seed=seed)


def _silence(backend, node):
    """Make ``node`` look silent past the lease timeout."""
    backend.nodes[node].seen -= 10 * coordinator_module.LEASE_TIMEOUT_S


def _ids(reply):
    return [grant["id"] for grant in reply["jobs"]]


class TestNodeLossRequeue:
    def test_requeue_lands_on_another_node_then_succeeds(self, tmp_path):
        store = ResultStore(str(tmp_path), ttl_seconds=60.0)
        coordinator = _coordinator(store=store)
        backend = coordinator.backend

        async def main():
            job = coordinator.submit(PAYLOAD, client="tester").job
            assert _ids(await backend.lease(N0, 1, [])) == [job.id]
            await backend.lease(N1, 0, [])
            _silence(backend, N0)
            backend.reap()
            assert job.state == jobmodel.QUEUED
            assert _ids(await backend.lease(N1, 1, [])) == [job.id]
            assert await backend.report(N1, job.id, DONE) == (
                200, {"id": job.id, "state": jobmodel.DONE})
            return job

        job = asyncio.run(main())
        assert job.state == jobmodel.DONE
        assert job.attempts == 2
        assert any("requeued" in note for note in job.notes)
        counters = coordinator.registry.counters
        assert counters["fleet_leases_lost_total"] == 1
        assert counters["fleet_requeues_total"] == 1
        assert counters["fleet_node_deaths_total"] == 1
        # The completed payload reached the authoritative store.
        assert store.get(job.key) == {"cells": ["remote"]}
        assert coordinator.queued == 0
        assert coordinator.running == 0

    def test_retry_budget_exhaustion_fails_cleanly(self):
        coordinator = _coordinator(retry_budget=1)
        backend = coordinator.backend

        async def main():
            job = coordinator.submit(PAYLOAD, client="tester").job
            for node in (N0, N1):
                assert _ids(await backend.lease(node, 1, [])) == [job.id]
                _silence(backend, node)
                backend.reap()
            return job

        job = asyncio.run(main())
        assert job.state == jobmodel.FAILED
        assert "retry budget (1) exhausted" in job.error
        assert f"lease lost on {N1} (lease expired)" in job.error
        assert job.attempts == 2
        counters = coordinator.registry.counters
        assert counters["fleet_leases_lost_total"] == 2
        assert counters["fleet_requeues_total"] == 1
        # No leaked accounting: quota released, nothing queued/running.
        assert coordinator._client_active == {}
        assert coordinator.queued == 0
        assert coordinator.running == 0

    def test_cancelled_job_is_not_requeued(self):
        coordinator = _coordinator()
        backend = coordinator.backend

        async def main():
            job = coordinator.submit(PAYLOAD, client="tester").job
            await backend.lease(N0, 1, [])
            assert coordinator.cancel(job.id) is True
            _silence(backend, N0)  # the node dies before it reports
            backend.reap()
            return job

        job = asyncio.run(main())
        assert job.state == jobmodel.CANCELLED
        assert coordinator.registry.counters.get(
            "fleet_requeues_total", 0) == 0

    def test_no_live_workers_fails_the_job(self):
        coordinator = _coordinator(job_timeout=0.05)

        async def main():
            job = coordinator.submit(PAYLOAD, client="tester").job
            await asyncio.sleep(0.1)
            coordinator.backend.reap()
            return job

        job = asyncio.run(main())
        assert job.state == jobmodel.FAILED
        assert job.error == "timeout after 0s with no live worker nodes"
        assert coordinator.queued == 0


class TestLiveness:
    def test_misses_mark_dead_then_a_lease_revives(self):
        coordinator = _coordinator()
        backend = coordinator.backend

        async def main():
            await backend.lease(N0, 0, [])
            # An open exchange keeps a node alive however long ago it
            # was last seen.
            exchange = asyncio.ensure_future(backend.lease(N0, 0, []))
            await asyncio.sleep(0)
            _silence(backend, N0)
            backend.reap()
            assert backend.nodes[N0].alive
            await exchange
            _silence(backend, N0)
            backend.reap()
            assert not backend.nodes[N0].alive
            assert backend.alive_workers == []
            # Its next exchange revives it.
            await backend.lease(N0, 0, [])
            assert backend.nodes[N0].alive
            assert backend.alive_workers == [N0]

        asyncio.run(main())
        counters = coordinator.registry.counters
        assert counters["fleet_nodes_registered_total"] == 1
        assert counters["fleet_node_deaths_total"] == 1
        assert counters["fleet_node_revivals_total"] == 1


class TestHeldForwarding:
    """Jobs, and cancels, reach workers through held lease exchanges."""

    def test_cancel_reaches_the_worker_within_100ms_of_a_hold(
            self, monkeypatch):
        monkeypatch.setattr(coordinator_module, "LEASE_HOLD_S", 10.0)
        coordinator = _coordinator()
        backend = coordinator.backend

        async def main():
            job = coordinator.submit(PAYLOAD, client="tester").job
            await backend.lease(N0, 1, [])
            hold = asyncio.ensure_future(backend.lease(N0, 0, [job.id]))
            await asyncio.sleep(0.2)
            assert not hold.done()
            asked = time.monotonic()
            assert coordinator.cancel(job.id) is True
            reply = await hold
            assert time.monotonic() - asked < 0.1
            assert reply == {"jobs": [], "revoked": [job.id]}
            # Still the node's job until it reports the cancellation.
            assert job.state == jobmodel.RUNNING
            await backend.report(N0, job.id,
                                 {"state": jobmodel.CANCELLED,
                                  "error": "cancelled mid-run"})
            return job

        job = asyncio.run(main())
        assert job.state == jobmodel.CANCELLED
        assert coordinator.running == 0

    def test_a_finished_worker_job_answers_the_hold(self):
        coordinator = _coordinator()
        backend = coordinator.backend

        async def main():
            job = coordinator.submit(PAYLOAD, client="tester").job
            await backend.lease(N0, 1, [])
            # A client holds GET /v1/jobs/<id>?wait= on the coordinator.
            hold = asyncio.ensure_future(coordinator.wait(job, 10.0))
            await asyncio.sleep(0.05)
            reported = time.monotonic()
            await backend.report(N0, job.id, dict(DONE, cached=True))
            await hold
            assert time.monotonic() - reported < 0.1
            return job

        job = asyncio.run(main())
        assert job.state == jobmodel.DONE
        assert job.result == {"cells": ["remote"]}
        counters = coordinator.registry.counters
        assert counters["fleet_worker_cache_hits_total"] == 1
        assert backend.nodes[N0].jobs_done == 1

    def test_deadline_still_fails_the_job(self):
        coordinator = _coordinator(job_timeout=0.2)
        backend = coordinator.backend

        async def main():
            job = coordinator.submit(PAYLOAD, client="tester").job
            await backend.lease(N0, 1, [])
            backend.reap()
            assert job.state == jobmodel.RUNNING
            await asyncio.sleep(0.25)
            backend.reap()
            assert job.state == jobmodel.FAILED
            # The node is told to stop, and its late report is stale.
            reply = await backend.lease(N0, 0, [job.id])
            assert reply["revoked"] == [job.id]
            status, _body = await backend.report(N0, job.id, DONE)
            assert status == 409
            return job

        job = asyncio.run(main())
        assert job.error == "timeout after 0s"
        assert coordinator.running == 0

    def test_dropped_hold_is_node_loss_and_requeues(self):
        coordinator = _coordinator()
        backend = coordinator.backend

        async def main():
            job = coordinator.submit(PAYLOAD, client="tester").job
            # The reply granting the job never reached the node, so its
            # next exchange does not list the job as running.
            await backend.lease(N0, 1, [])
            reply = await backend.lease(N0, 0, [])
            assert reply == {"jobs": [], "revoked": []}
            assert job.state == jobmodel.QUEUED
            assert _ids(await backend.lease(N1, 1, [])) == [job.id]
            await backend.report(N1, job.id, DONE)
            return job

        job = asyncio.run(main())
        assert job.state == jobmodel.DONE
        assert job.attempts == 2
        counters = coordinator.registry.counters
        assert counters["fleet_leases_lost_total"] == 1
        assert counters["fleet_requeues_total"] == 1


class TestLeases:
    def test_oldest_first_to_whichever_node_asks(self):
        coordinator = _coordinator()
        backend = coordinator.backend

        async def main():
            for node in (N0, N1):
                await backend.lease(node, 0, [])
            first, second, third = (coordinator.submit(_payload(seed)).job
                                    for seed in range(3))
            # Whichever node asks gets the oldest queued jobs.
            assert _ids(await backend.lease(N1, 1, [])) == [first.id]
            assert _ids(await backend.lease(N0, 2, [])) \
                == [second.id, third.id]

        asyncio.run(main())
        assert coordinator.registry.counters["fleet_leases_total"] == 3

    def test_a_new_job_goes_to_the_first_waiting_node(self, monkeypatch):
        coordinator = _coordinator()
        backend = coordinator.backend

        async def main():
            # Registration holds only the fixture's short hold.
            for node in (N0, N1):
                await backend.lease(node, 0, [])
            monkeypatch.setattr(coordinator_module, "LEASE_HOLD_S", 10.0)
            holds = {node: asyncio.ensure_future(backend.lease(node, 1, []))
                     for node in (N0, N1)}
            await asyncio.sleep(0.01)
            # Both waiting: a new job answers the first held exchange.
            first = coordinator.submit(_payload(0)).job
            assert _ids(await holds[N0]) == [first.id]
            assert not holds[N1].done()
            # N0's exchange is answered: the next job goes to N1.
            second = coordinator.submit(_payload(1)).job
            assert _ids(await holds[N1]) == [second.id]
            await backend.stop()

        asyncio.run(main())
        assert coordinator.registry.counters["fleet_leases_total"] == 2

    def test_a_stale_report_gets_a_409(self):
        coordinator = _coordinator()
        backend = coordinator.backend

        async def main():
            job = coordinator.submit(PAYLOAD, client="tester").job
            await backend.lease(N0, 1, [])
            _silence(backend, N0)
            backend.reap()
            await backend.lease(N1, 1, [])
            status, body = await backend.report(N0, job.id, DONE)
            assert status == 409
            assert N0 in body["error"]
            assert job.state == jobmodel.RUNNING
            # The stale holder is told to drop the job.
            assert (await backend.lease(N0, 0, [job.id]))["revoked"] \
                == [job.id]
            status, _body = await backend.report(N1, job.id, DONE)
            assert status == 200
            # A record that is not terminal is no report at all.
            status, _body = await backend.report(
                N1, job.id, {"state": jobmodel.RUNNING})
            assert status == 400
            return job

        job = asyncio.run(main())
        assert job.state == jobmodel.DONE
        assert coordinator.registry.counters[
            "fleet_stale_reports_total"] == 1

    def test_three_workers_always_take_three_rounds(self, monkeypatch):
        """8 one-slot jobs on 3 one-slot workers: no node is handed a
        4th job while another node's exchange is waiting for work."""
        coordinator = _coordinator()
        backend = coordinator.backend
        nodes = (N0, N1, N2)
        handed = {node: 0 for node in nodes}
        real_grant = backend._grant

        def grant(job, node, exchange):
            waiting = [other.url for other in backend.nodes.values()
                       if other is not node and other.exchange is not None
                       and other.exchange.free > 0]
            assert not (handed[node.url] >= 3 and waiting), \
                f"4th job to {node.url} while {waiting} waited"
            handed[node.url] += 1
            real_grant(job, node, exchange)

        monkeypatch.setattr(backend, "_grant", grant)

        async def worker(node):
            running = []

            async def run(job_id):
                await asyncio.sleep(0.05)  # the cell
                await backend.report(node, job_id, DONE)
                running.remove(job_id)

            while coordinator.counts()[jobmodel.DONE] < 8:
                reply = await backend.lease(node, 1 - len(running),
                                            list(running))
                for job_id in _ids(reply):
                    running.append(job_id)
                    asyncio.ensure_future(run(job_id))

        async def main():
            # Registration holds only the fixture's short hold.
            for node in nodes:
                await backend.lease(node, 0, [])
            monkeypatch.setattr(coordinator_module, "LEASE_HOLD_S", 10.0)
            began = time.monotonic()
            workers = [asyncio.ensure_future(worker(node))
                       for node in nodes]
            for seed in range(8):
                coordinator.submit(_payload(seed), client=f"c{seed}")
            while coordinator.counts()[jobmodel.DONE] < 8:
                assert time.monotonic() - began < 10.0
                await asyncio.sleep(0.01)
            await backend.stop()  # answers the exchanges still waiting
            await asyncio.gather(*workers)

        asyncio.run(main())
        assert sorted(handed.values()) == [2, 3, 3]
        assert sorted(node.jobs_done
                      for node in backend.nodes.values()) == [2, 3, 3]


class TestStoreReplay:
    def test_restart_replays_authoritative_store(self, tmp_path):
        request = jobmodel.parse_request(PAYLOAD)
        key = jobmodel.job_key(request)
        ResultStore(str(tmp_path), ttl_seconds=60.0).put(
            key, {"cells": ["replayed"]})
        # A restarted coordinator - fresh object, zero workers - must
        # answer the repeat submission from disk without dispatching.
        coordinator = _coordinator(
            store=ResultStore(str(tmp_path), ttl_seconds=60.0))
        admission = coordinator.submit(PAYLOAD, client="tester")
        assert admission.status == 200
        assert admission.cached is True
        assert admission.job.state == jobmodel.DONE
        assert admission.job.result == {"cells": ["replayed"]}
        assert coordinator.registry.counters["fleet_store_hits_total"] == 1


class TestMetrics:
    def test_scrape_carries_lease_and_requeue_counters(self):
        coordinator = _coordinator(retry_budget=1)
        backend = coordinator.backend

        async def main():
            coordinator.submit(PAYLOAD, client="tester")
            for node in (N0, N1):
                await backend.lease(node, 1, [])
                _silence(backend, node)
                backend.reap()
            await backend.lease(N2, 0, [])

        asyncio.run(main())
        text = prometheus_text(coordinator)
        assert "# TYPE wsrs_fleet_leases_total counter" in text
        assert "wsrs_fleet_leases_total 2" in text
        assert "wsrs_fleet_leases_lost_total 2" in text
        assert "wsrs_fleet_requeues_total 1" in text
        assert "wsrs_fleet_node_deaths_total 2" in text
        assert "wsrs_fleet_jobs_failed_total 1" in text
        assert "wsrs_fleet_workers_total 3" in text
        assert "wsrs_fleet_workers_alive 1" in text
        # Every sample line obeys the Prometheus text format the
        # service's /metrics tests pin.
        sample = re.compile(
            r'^wsrs_[a-z_]+(\{quantile="0\.\d+"\})? -?\d+(\.\d+)?$')
        for line in text.splitlines():
            assert line.startswith("# TYPE ") or sample.match(line), \
                f"malformed metrics line: {line!r}"
