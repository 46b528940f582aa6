"""Failure-mode tests for the service scheduler (ISSUE 5 satellite).

Covered here, each against a live asyncio scheduler with a real
process pool: submit-while-saturated load shedding with a Retry-After
hint, per-client quotas, in-flight dedup, result-store short-circuiting,
cancel of queued and running jobs, worker-crash requeue exhausting the
retry budget, per-job timeout, and the graceful drain path.
"""

import asyncio
import os
import time

import pytest

from repro.experiments.runner import execute
from repro.service.jobs import CANCELLED, DONE, FAILED
from repro.service.scheduler import (
    Scheduler,
    SchedulerConfig,
    prometheus_text,
)
from repro.service.store import ResultStore


def payload(seed=1, measure=400, **overrides):
    record = {"kind": "simulate", "benchmark": "gzip",
              "config": "RR 256", "measure": measure, "warmup": 0,
              "seed": seed}
    record.update(overrides)
    return record


def slow_runner(spec):
    time.sleep(0.3)
    return execute(spec)


def crashing_runner(spec):
    os._exit(3)  # simulated worker segfault: kills the pool process


def broken_runner(spec):
    raise ValueError("synthetic defect")


async def wait_terminal(job, timeout=30.0):
    deadline = time.monotonic() + timeout
    while not job.terminal:
        assert time.monotonic() < deadline, \
            f"job stuck in state {job.state!r}"
        await asyncio.sleep(0.02)
    return job


async def wait_state(job, state, timeout=30.0):
    deadline = time.monotonic() + timeout
    while job.state != state:
        assert time.monotonic() < deadline, \
            f"job in {job.state!r}, wanted {state!r}"
        await asyncio.sleep(0.01)
    return job


def run(coroutine):
    asyncio.run(coroutine)


class TestAdmission:
    def test_happy_path_job_completes(self):
        async def main():
            scheduler = Scheduler(SchedulerConfig(workers=2))
            await scheduler.start()
            try:
                admission = scheduler.submit(payload(), client="a")
                assert admission.status == 202
                job = await wait_terminal(admission.job)
                assert job.state == DONE
                assert job.result["cells"][0]["summary"]["committed"] \
                    >= 400
            finally:
                await scheduler.shutdown()

        run(main())

    def test_backlog_shed_carries_retry_after(self):
        async def main():
            # Backlog bound 1: the first job fills it (no worker task
            # has run yet), the second submission is shed.
            scheduler = Scheduler(
                SchedulerConfig(workers=1, max_backlog=1))
            await scheduler.start()
            try:
                first = scheduler.submit(payload(seed=1), client="a")
                assert first.status == 202
                shed = scheduler.submit(payload(seed=2), client="a")
                assert shed.status == 429
                assert shed.job is None
                assert shed.retry_after >= 1
                assert "backlog" in shed.error
                assert scheduler.registry.counters[
                    "backlog_shed_total"] == 1
                await wait_terminal(first.job)
            finally:
                await scheduler.shutdown()

        run(main())

    def test_per_client_quota_shed(self):
        async def main():
            scheduler = Scheduler(
                SchedulerConfig(workers=1, per_client_quota=1,
                                max_backlog=8))
            await scheduler.start()
            try:
                first = scheduler.submit(payload(seed=1), client="hog")
                assert first.status == 202
                shed = scheduler.submit(payload(seed=2), client="hog")
                assert shed.status == 429 and "quota" in shed.error
                other = scheduler.submit(payload(seed=3), client="polite")
                assert other.status == 202
                await wait_terminal(first.job)
                await wait_terminal(other.job)
                # Quota released on completion: the hog may submit again.
                again = scheduler.submit(payload(seed=4), client="hog")
                assert again.status == 202
                await wait_terminal(again.job)
            finally:
                await scheduler.shutdown()

        run(main())

    def test_invalid_payload_is_400_not_shed(self):
        async def main():
            scheduler = Scheduler(SchedulerConfig(workers=1))
            await scheduler.start()
            try:
                admission = scheduler.submit({"kind": "nope"}, client="a")
                assert admission.status == 400
                assert admission.retry_after is None
            finally:
                await scheduler.shutdown()

        run(main())

    def test_inflight_dedup_folds_identical_submissions(self):
        async def main():
            scheduler = Scheduler(SchedulerConfig(workers=1),
                                  cell_runner=slow_runner)
            await scheduler.start()
            try:
                first = scheduler.submit(payload(), client="a")
                second = scheduler.submit(payload(), client="b")
                assert second.status == 202 and second.deduped
                assert second.job is first.job
                assert first.job.deduped == 1
                assert scheduler.registry.counters["dedup_hits_total"] \
                    == 1
                await wait_terminal(first.job)
            finally:
                await scheduler.shutdown()

        run(main())

    def test_result_store_short_circuits_repeat_work(self, tmp_path):
        async def main():
            store = ResultStore(str(tmp_path), ttl_seconds=None)
            scheduler = Scheduler(SchedulerConfig(workers=1), store=store)
            await scheduler.start()
            try:
                first = scheduler.submit(payload(), client="a")
                job = await wait_terminal(first.job)
                repeat = scheduler.submit(payload(), client="a")
                assert repeat.status == 200 and repeat.cached
                assert repeat.job.state == DONE
                assert repeat.job.result == job.result
                assert scheduler.registry.counters[
                    "result_cache_hits_total"] == 1
            finally:
                await scheduler.shutdown()

        run(main())


class TestCancellation:
    def test_cancel_queued_job(self):
        async def main():
            scheduler = Scheduler(SchedulerConfig(workers=1, max_backlog=4),
                                  cell_runner=slow_runner)
            await scheduler.start()
            try:
                running = scheduler.submit(payload(seed=1), client="a")
                queued = scheduler.submit(payload(seed=2), client="a")
                assert scheduler.cancel(queued.job.id) is True
                assert queued.job.state == CANCELLED
                done = await wait_terminal(running.job)
                assert done.state == DONE  # the cancel hit only its target
            finally:
                await scheduler.shutdown()

        run(main())

    def test_cancel_mid_run_discards_the_result(self):
        async def main():
            scheduler = Scheduler(SchedulerConfig(workers=1),
                                  cell_runner=slow_runner)
            await scheduler.start()
            try:
                admission = scheduler.submit(payload(), client="a")
                await wait_state(admission.job, "running")
                assert scheduler.cancel(admission.job.id) is True
                job = await wait_terminal(admission.job)
                assert job.state == CANCELLED
                assert job.result is None
                # A repeat submission is NOT deduped onto the corpse.
                fresh = scheduler.submit(payload(), client="a")
                assert fresh.job is not admission.job
                await wait_terminal(fresh.job)
            finally:
                await scheduler.shutdown()

        run(main())

    def test_cancel_is_idempotent_and_safe(self):
        async def main():
            scheduler = Scheduler(SchedulerConfig(workers=1))
            await scheduler.start()
            try:
                assert scheduler.cancel("jdoesnotexist") is None
                admission = scheduler.submit(payload(), client="a")
                await wait_terminal(admission.job)
                assert scheduler.cancel(admission.job.id) is False
            finally:
                await scheduler.shutdown()

        run(main())


class TestFailureContainment:
    def test_worker_crash_requeue_exhausts_the_budget(self):
        async def main():
            scheduler = Scheduler(
                SchedulerConfig(workers=1, retry_budget=1),
                cell_runner=crashing_runner)
            await scheduler.start()
            try:
                admission = scheduler.submit(payload(), client="a")
                job = await wait_terminal(admission.job, timeout=60.0)
                assert job.state == FAILED
                assert "retry budget" in job.error
                assert job.attempts == 2  # initial try + one requeue
                counters = scheduler.registry.counters
                assert counters["worker_crashes_total"] == 2
                assert counters["worker_crash_requeues_total"] == 1
                assert job.notes  # the requeue left a breadcrumb
                # The rebuilt pool still serves new work.
                scheduler.backend._cell_runner = execute
                healthy = scheduler.submit(payload(seed=9), client="a")
                assert (await wait_terminal(healthy.job)).state == DONE
            finally:
                await scheduler.shutdown()

        run(main())

    def test_job_timeout_fails_the_job(self):
        async def main():
            scheduler = Scheduler(
                SchedulerConfig(workers=1, job_timeout=0.05),
                cell_runner=slow_runner)
            await scheduler.start()
            try:
                admission = scheduler.submit(payload(), client="a")
                job = await wait_terminal(admission.job)
                assert job.state == FAILED and "timeout" in job.error
                assert scheduler.registry.counters["jobs_timeout_total"] \
                    == 1
            finally:
                await scheduler.shutdown()

        run(main())

    def test_simulator_error_fails_cleanly(self):
        async def main():
            scheduler = Scheduler(SchedulerConfig(workers=1),
                                  cell_runner=broken_runner)
            await scheduler.start()
            try:
                admission = scheduler.submit(payload(), client="a")
                job = await wait_terminal(admission.job)
                assert job.state == FAILED
                assert "synthetic defect" in job.error
            finally:
                await scheduler.shutdown()

        run(main())


class TestDrain:
    def test_graceful_drain_finishes_running_cancels_queued(self):
        async def main():
            scheduler = Scheduler(
                SchedulerConfig(workers=1, max_backlog=4,
                                drain_timeout=30.0),
                cell_runner=slow_runner)
            await scheduler.start()
            running = scheduler.submit(payload(seed=1), client="a")
            queued = scheduler.submit(payload(seed=2), client="a")
            await wait_state(running.job, "running")
            await scheduler.shutdown(drain=True)
            assert running.job.state == DONE       # drained, not killed
            assert queued.job.state == CANCELLED   # backlog dropped
            late = scheduler.submit(payload(seed=3), client="a")
            assert late.status == 503              # draining -> shed
            assert not scheduler.accepting

        run(main())


class TestMetricsRendering:
    def test_prometheus_text_shape(self):
        import re

        async def main():
            scheduler = Scheduler(SchedulerConfig(workers=1))
            await scheduler.start()
            try:
                admission = scheduler.submit(payload(), client="a")
                await wait_terminal(admission.job)
            finally:
                await scheduler.shutdown()
            text = prometheus_text(scheduler)
            assert text.endswith("\n")
            sample = re.compile(
                r'^wsrs_[a-z_]+(\{quantile="0\.\d+"\})? -?\d+(\.\d+)?$')
            for line in text.splitlines():
                assert line.startswith("# TYPE ") or sample.match(line), \
                    f"malformed metrics line: {line!r}"
            assert "# TYPE wsrs_jobs_submitted_total counter" in text
            assert "# TYPE wsrs_queue_depth gauge" in text
            assert "# TYPE wsrs_job_latency_ms summary" in text
            assert 'wsrs_job_latency_ms{quantile="0.99"}' in text

        run(main())
