"""End-to-end fleet failure modes: real processes, sockets, signals.

One :class:`repro.fleet.local.LocalFleet` (coordinator thread + three
spawn-context worker processes) serves the full failure-mode story in
a single test, since booting the fleet is the expensive part:

1. a worker SIGTERMed while it holds a lease drains: it reports what
   it holds, so nothing is requeued;
2. a worker SIGKILLed while it holds a lease loses it: the job is
   requeued, the matrix still finishes bit-identical to a direct
   :func:`run_matrix` execution, and lease expiry declares the node
   dead;
3. a coordinator restart on the same store and port must replay every
   result from disk (no recompute, ``cached`` records);
4. a restart on a *fresh* store must still answer repeats without
   recompute, from the surviving worker's local cache;
5. once the fleet stops, no process of any worker's group is left.
"""

import glob
import signal
import time

from repro.fleet.local import LocalFleet
from repro.service.client import ServiceClient
from repro.service.loadtest import (
    _direct_cells,
    _job_requests,
    _scrape_counter,
)
from repro.trace.cache import DISK_ENV

BENCHMARKS = ("gzip",)
CONFIGS = ("RR 256", "WSRR 512")
MEASURE, WARMUP = 300, 100
DRAIN_SEED, KILL_SEED = 5, 6


def _cells_of(records):
    return [cell for record in records
            for cell in record["result"]["cells"]]


def _live_members(pgid):
    """Processes of group ``pgid`` that are still running (zombies, a
    reaper's business, aside)."""
    members = []
    for path in glob.glob("/proc/[0-9]*/stat"):
        try:
            with open(path, encoding="utf-8") as handle:
                fields = handle.read().rsplit(")", 1)[1].split()
        except (OSError, IndexError):
            continue
        if int(fields[2]) == pgid and fields[0] != "Z":
            members.append(path)
    return members


def _run_matrix_killing(fleet, client, requests, signum):
    submitted = [client.submit(request) for request in requests]
    victim = fleet.kill_holder(signum)
    finals = [client.wait(record["id"], timeout=180.0)
              for record in submitted]
    assert [record["state"] for record in finals] \
        == ["done"] * len(requests)
    return victim, finals


def test_fleet_survives_node_loss_and_replays_results(
        tmp_path, monkeypatch):
    # Shared on-disk trace cache: the ground-truth runs below generate
    # the traces once; the spawned workers inherit the env and reuse
    # them instead of re-synthesising per process.
    monkeypatch.setenv(DISK_ENV, str(tmp_path / "traces"))
    direct = {seed: _direct_cells(BENCHMARKS, CONFIGS, MEASURE, WARMUP,
                                  seed, None)
              for seed in (DRAIN_SEED, KILL_SEED)}
    requests = {seed: _job_requests(BENCHMARKS, CONFIGS, MEASURE, WARMUP,
                                    seed)
                for seed in (DRAIN_SEED, KILL_SEED)}

    fleet = LocalFleet(workers=3, cell_delay_ms=400.0,
                       worker_drain_timeout=5.0,
                       announce=lambda _message: None)
    with fleet:
        pgids = fleet.worker_pgids
        client = ServiceClient(fleet.url, client_id="fleet-test")
        counters = fleet.coordinator.registry.counters

        # 1. Drain: the SIGTERMed holder finishes and reports its job.
        drained, finals = _run_matrix_killing(
            fleet, client, requests[DRAIN_SEED], signal.SIGTERM)
        assert _cells_of(finals) == direct[DRAIN_SEED]
        assert counters.get("fleet_requeues_total", 0) == 0
        workers = fleet.coordinator.fleet_summary()["workers"]
        assert [node["jobs_done"] for node in workers
                if node["url"] == drained] == [1]

        # 2. Crash: the SIGKILLed holder's lease expires and its job
        # is requeued onto the survivor.
        victim, finals = _run_matrix_killing(
            fleet, client, requests[KILL_SEED], signal.SIGKILL)
        assert _cells_of(finals) == direct[KILL_SEED]
        assert counters.get("fleet_requeues_total", 0) >= 1
        assert counters.get("fleet_leases_lost_total", 0) >= 1
        deadline = time.monotonic() + 30.0
        while time.monotonic() < deadline:
            if fleet.coordinator.fleet_summary()["alive"] == 1:
                break
            time.sleep(0.05)
        assert fleet.coordinator.fleet_summary()["alive"] == 1
        assert victim not in fleet.coordinator.ring
        assert drained not in fleet.coordinator.ring

        # 3. Coordinator restart on the same store: every repeat is
        # answered from disk, terminal on submission, no recompute.
        url = fleet.url
        assert fleet.restart_coordinator(fresh_store=False) == url
        replays = [client.submit(request)
                   for request in requests[KILL_SEED]]
        assert all(record["state"] == "done" for record in replays)
        assert all(record["cached"] for record in replays)
        assert _cells_of(replays) == direct[KILL_SEED]
        assert fleet.coordinator.registry.counters[
            "fleet_store_hits_total"] == len(replays)

        # 4. Restart on a fresh store: the coordinator cannot short-
        # circuit, so the survivor answers from its local cache (it ran
        # or inherited every key of the crash pass).
        fleet.restart_coordinator(fresh_store=True)
        routed = [client.submit_and_wait(request, timeout=180.0)
                  for request in requests[KILL_SEED]]
        assert _cells_of(routed) == direct[KILL_SEED]
        hits = _scrape_counter(client.metrics(),
                               "wsrs_fleet_worker_cache_hits_total")
        assert hits == len(routed)

    # 5. No pool process outlives the fleet.
    for pgid in pgids:
        assert _live_members(pgid) == []
