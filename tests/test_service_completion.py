"""Push-based completion: held ``GET /v1/jobs/<id>?wait=``, the client's
wait loop, the drain, and finished records retired to the store.

Most scenarios run the real HTTP front on one event loop over a backend
that admits jobs and leaves them queued, so the test decides exactly
when :meth:`Scheduler._finish` fires and can time the reply against it.
"""

import asyncio
import json
import os
import threading
import time

import pytest

import repro.service.server as server_module
from repro.experiments.runner import execute
from repro.fleet.netio import request_json
from repro.service import jobs as jobmodel
from repro.service.client import ServiceClient
from repro.service.scheduler import Backend, Scheduler, SchedulerConfig
from repro.service.server import EmbeddedServer, ServiceServer
from repro.service.store import ResultStore

PAYLOAD = {"kind": "simulate", "benchmarks": ["gzip"],
           "configs": ["RR 256"], "measure": 600, "warmup": 0, "seed": 3}
RESULT = {"cells": ["finished"]}


class IdleBackend(Backend):
    """Admits jobs and never runs them: the test finishes them."""

    slots = 1

    def dispatch(self, job):
        pass


def _scheduler(store=None, **config):
    return Scheduler(SchedulerConfig(**config), store=store,
                     backend=IdleBackend())


def _serve(scenario, store=None, **config):
    """Run ``scenario(scheduler, server)`` against a live front."""
    scheduler = _scheduler(store, **config)

    async def main():
        server = ServiceServer(scheduler)
        await server.start()
        try:
            await scenario(scheduler, server)
        finally:
            await server.stop()
            await scheduler.shutdown(drain=False)

    asyncio.run(main())
    return scheduler


async def _get(server, path, timeout=30.0):
    status, _headers, data = await request_json(server.url, "GET", path,
                                                timeout=timeout)
    return status, data


async def _retired(scheduler, job):
    """Wait until ``job`` left the table for the store."""
    for _ in range(200):
        if job.id not in scheduler.jobs:
            return
        await asyncio.sleep(0.01)
    raise AssertionError(f"{job.id} never retired")


class TestHeldGet:
    def test_reply_follows_finish_within_100ms(self):
        async def scenario(scheduler, server):
            job = scheduler.submit(PAYLOAD).job
            held = asyncio.ensure_future(
                _get(server, f"/v1/jobs/{job.id}?wait=10"))
            await asyncio.sleep(0.3)
            assert not held.done()
            finished = time.monotonic()
            scheduler._finish(job, jobmodel.DONE, result=RESULT,
                              queued=True)
            status, record = await held
            assert time.monotonic() - finished < 0.1
            assert status == 200
            assert record["state"] == "done"
            assert record["result"] == RESULT

        _serve(scenario)

    def test_expired_hold_answers_the_live_record(self):
        async def scenario(scheduler, server):
            job = scheduler.submit(PAYLOAD).job
            began = time.monotonic()
            status, record = await _get(server,
                                        f"/v1/jobs/{job.id}?wait=0.3")
            assert time.monotonic() - began >= 0.3
            assert status == 200
            assert record["state"] == "queued"

        _serve(scenario)

    @pytest.mark.parametrize("value", ["abc", "-1", "nan", "inf", ""])
    def test_malformed_wait_is_400(self, value):
        async def scenario(scheduler, server):
            job = scheduler.submit(PAYLOAD).job
            status, record = await _get(
                server, f"/v1/jobs/{job.id}?wait={value}")
            assert status == 400
            assert "wait" in record["error"]

        _serve(scenario)

    def test_unknown_id_is_404_without_waiting(self):
        async def scenario(_scheduler, server):
            began = time.monotonic()
            status, _record = await _get(server,
                                         "/v1/jobs/j0123456789ab?wait=10")
            assert status == 404
            assert time.monotonic() - began < 1.0

        _serve(scenario)

    def test_wait_is_clamped_to_the_cap(self, monkeypatch):
        assert server_module.MAX_WAIT_S <= 20.0
        assert server_module._wait_seconds("wait=3600") \
            == server_module.MAX_WAIT_S
        monkeypatch.setattr(server_module, "MAX_WAIT_S", 0.2)

        async def scenario(scheduler, server):
            job = scheduler.submit(PAYLOAD).job
            began = time.monotonic()
            status, record = await _get(server,
                                        f"/v1/jobs/{job.id}?wait=60")
            assert time.monotonic() - began < 2.0
            assert (status, record["state"]) == (200, "queued")

        _serve(scenario)

    def test_store_hit_answers_at_once(self, tmp_path):
        store = ResultStore(str(tmp_path), ttl_seconds=None)
        store.put(jobmodel.job_key(jobmodel.parse_request(PAYLOAD)),
                  RESULT)

        async def scenario(scheduler, server):
            admission = scheduler.submit(PAYLOAD)
            assert admission.cached
            began = time.monotonic()
            status, record = await _get(
                server, f"/v1/jobs/{admission.job.id}?wait=10")
            assert time.monotonic() - began < 1.0
            assert (status, record["state"]) == (200, "done")
            assert record["result"] == RESULT

        _serve(scenario, store=store)

    def test_cancelling_a_queued_job_wakes_its_holder(self):
        async def scenario(scheduler, server):
            job = scheduler.submit(PAYLOAD).job
            held = asyncio.ensure_future(
                _get(server, f"/v1/jobs/{job.id}?wait=10"))
            await asyncio.sleep(0.3)
            cancelled = time.monotonic()
            status, _h, reply = await request_json(
                server.url, "DELETE", f"/v1/jobs/{job.id}")
            assert (status, reply["cancelled"]) == (200, True)
            status, record = await held
            assert time.monotonic() - cancelled < 0.1
            assert (status, record["state"]) == (200, "cancelled")

        _serve(scenario)


def test_stop_releases_a_pending_hold():
    scheduler = _scheduler()
    server = EmbeddedServer(scheduler)
    url = server.start()
    replies = []
    client = ServiceClient(url, client_id="holder", max_attempts=1)
    job_id = client.submit(PAYLOAD)["id"]

    def hold():
        replies.append((client.job(job_id, wait=15.0), time.monotonic()))

    holder = threading.Thread(target=hold)
    holder.start()
    time.sleep(0.3)
    began = time.monotonic()
    server.stop()
    stopped = time.monotonic()
    holder.join(5.0)
    assert not holder.is_alive()
    assert stopped - began < 1.0
    (record, answered), = replies
    assert record["state"] == "queued"
    assert answered - began < 1.0


def short_cell(spec):
    time.sleep(0.3)
    return execute(spec)


class CountingClient(ServiceClient):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.waits = []

    def job(self, job_id, wait=None):
        self.waits.append(wait)
        return super().job(job_id, wait=wait)


class TestClientWait:
    def test_a_short_job_costs_at_most_two_gets(self):
        scheduler = server_module.build_scheduler(workers=1,
                                                  cell_runner=short_cell)
        with EmbeddedServer(scheduler) as server:
            client = CountingClient(server.url, client_id="counter",
                                    timeout=4.0)
            record = client.submit_and_wait(PAYLOAD)
        assert record["state"] == "done"
        assert 1 <= len(client.waits) <= 2
        # Every hold stays within half the socket timeout.
        assert all(0 < wait <= 2.0 for wait in client.waits)

    def test_wait_gives_up_at_its_timeout(self):
        scheduler = _scheduler()
        with EmbeddedServer(scheduler) as server:
            client = CountingClient(server.url, client_id="patient",
                                    timeout=30.0)
            job_id = client.submit(PAYLOAD)["id"]
            began = time.monotonic()
            with pytest.raises(Exception, match="still 'queued'"):
                client.wait(job_id, timeout=0.5)
        assert time.monotonic() - began < 5.0
        assert client.waits[0] == pytest.approx(0.5, abs=0.05)


class TestRetiredRecords:
    def test_get_delete_and_healthz_after_retirement(self, tmp_path):
        store = ResultStore(str(tmp_path), ttl_seconds=None)

        async def scenario(scheduler, server):
            job = scheduler.submit(PAYLOAD).job
            # As the backends do: the result lands under its key first.
            store.put(job.key, RESULT)
            scheduler._finish(job, jobmodel.DONE, result=RESULT,
                              queued=True)
            await _retired(scheduler, job)
            with open(tmp_path / "records" / f"{job.id}.json",
                      encoding="utf-8") as handle:
                on_disk = json.load(handle)["payload"]
            # The result is stored once, under the job's key.
            assert on_disk == job.as_dict(include_result=False)
            hits = store.hits
            status, record = await _get(server,
                                        f"/v1/jobs/{job.id}?wait=10")
            assert status == 200
            assert record == {**job.as_dict(), "result": RESULT}
            assert store.hits == hits  # reading it back is no store hit
            status, _h, reply = await request_json(
                server.url, "DELETE", f"/v1/jobs/{job.id}")
            assert status == 200
            assert reply == {"id": job.id, "cancelled": False,
                             "state": "done"}
            status, health = await _get(server, "/healthz")
            assert health["jobs"] == {"queued": 0, "running": 0,
                                      "done": 1, "failed": 0,
                                      "cancelled": 0}
            status, _record = await _get(server, "/v1/jobs/j../escape")
            assert status == 404

        scheduler = _serve(scenario, store=store)
        assert scheduler.jobs == {}

    def test_without_a_store_finished_jobs_stay_in_memory(self):
        async def scenario(scheduler, _server):
            job = scheduler.submit(PAYLOAD).job
            scheduler._finish(job, jobmodel.DONE, result=RESULT,
                              queued=True)
            await asyncio.sleep(0.05)
            assert scheduler.get(job.id) is job

        _serve(scenario)

    def test_without_a_store_only_recent_finished_jobs_are_kept(
            self, monkeypatch):
        import repro.service.scheduler as scheduler_module

        monkeypatch.setattr(scheduler_module, "FINISHED_JOBS_KEPT", 2)

        async def scenario(scheduler, server):
            jobs = [scheduler.submit(dict(PAYLOAD, seed=seed)).job
                    for seed in range(4)]
            live = jobs.pop()
            for job in jobs:
                scheduler._finish(job, jobmodel.DONE, result=RESULT,
                                  queued=True)
            # The oldest finished job is forgotten, the live one never.
            assert [job.id in scheduler.jobs for job in jobs] \
                == [False, True, True]
            assert scheduler.get(live.id) is live
            status, _record = await _get(server, f"/v1/jobs/{jobs[0].id}")
            assert status == 404
            status, record = await _get(server, f"/v1/jobs/{jobs[1].id}")
            assert status == 200 and record["result"] == RESULT

        _serve(scenario)

    def test_ttl_sweep_removes_records(self, tmp_path):
        now = [1000.0]
        store = ResultStore(str(tmp_path), ttl_seconds=60.0,
                            clock=lambda: now[0])
        store.put_record("j0123456789ab", {"state": "done"})
        assert store.get_record("j0123456789ab") == {"state": "done"}
        now[0] += 61.0
        assert store.get_record("j0123456789ab") is None
        assert store.evict_expired() == 1
        assert os.listdir(tmp_path / "records") == []

    def test_done_record_reads_its_result_back_until_it_expires(
            self, tmp_path):
        now = [1000.0]
        store = ResultStore(str(tmp_path), ttl_seconds=60.0,
                            clock=lambda: now[0])
        scheduler = _scheduler(store)
        key = "0123abcd"
        store.put(key, RESULT)
        now[0] += 40.0
        store.put_record("j0123456789ab", {"state": "done", "key": key})
        store.put_record("j0123456789ac", {"state": "failed", "key": key})
        assert scheduler.retired("j0123456789ab") == {
            "state": "done", "key": key, "result": RESULT}
        # Only a done record takes the payload stored under its key.
        assert scheduler.retired("j0123456789ac") == {
            "state": "failed", "key": key}
        now[0] += 30.0  # the result expired, the records did not
        assert scheduler.retired("j0123456789ab") == {
            "state": "done", "key": key}
        assert store.hits == 0 and store.misses == 0

    def test_record_ids_are_validated(self, tmp_path):
        store = ResultStore(str(tmp_path))
        for bad in ("../x", "jXYZ", "j0123456789abc", "k0123456789ab"):
            with pytest.raises(ValueError):
                store.put_record(bad, {})
        assert store.get_record("j0123456789ab") is None
        assert not os.path.exists(tmp_path / "records")


class TestDrain:
    def test_shutdown_returns_when_the_running_job_finishes(self):
        scheduler = _scheduler(drain_timeout=30.0)

        async def main():
            job = scheduler.submit(PAYLOAD).job
            scheduler._begin(job)
            drain = asyncio.ensure_future(scheduler.shutdown())
            await asyncio.sleep(0.2)
            assert not drain.done()
            finished = time.monotonic()
            scheduler._finish(job, jobmodel.DONE, result=RESULT)
            await drain
            assert time.monotonic() - finished < 0.1

        asyncio.run(main())

    def test_shutdown_gives_up_at_the_drain_timeout(self):
        scheduler = _scheduler(drain_timeout=0.3)

        async def main():
            job = scheduler.submit(PAYLOAD).job
            scheduler._begin(job)
            began = time.monotonic()
            await scheduler.shutdown()
            assert 0.3 <= time.monotonic() - began < 2.0
            assert job.state == jobmodel.RUNNING

        asyncio.run(main())
