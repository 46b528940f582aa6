"""Local fleet harness: coordinator + N worker *processes* on one host.

`wsrs loadtest --fleet`, the fleet-smoke CI job and the failure-mode
tests all need a real multi-process fleet - real sockets, real leases,
real node deaths - without any deployment machinery.  This module
provides it:

* the coordinator - the service stack over the lease backend - runs
  in-process on a daemon thread (:class:`repro.service.server
  .EmbeddedServer`), so tests can reach into its state and metrics
  directly;
* each worker is a separate **spawn**-context process running
  :func:`repro.fleet.worker.worker_main` (spawn, not fork: the parent
  holds live asyncio threads, and forking a threaded process is exactly
  the hazard the repo's async lint exists to catch), with its own store
  directory, a fixed, pre-picked port, and its own process group;
* workers start leasing at once, and :meth:`LocalFleet.start` blocks
  until the coordinator reports every node alive;
* :meth:`LocalFleet.kill_holder` kills a worker while the coordinator
  shows it holding a lease: SIGTERM drains it, SIGKILL takes down its
  whole process group, pool processes included, as a host crash would.
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import socket
import tempfile
import time
from typing import Callable, List, Optional

from repro.fleet.coordinator import (
    COORDINATOR_BACKLOG,
    COORDINATOR_QUOTA,
    FleetCoordinator,
)
from repro.fleet.worker import worker_main
from repro.service.client import ServiceClient
from repro.service.server import EmbeddedServer, build_scheduler

#: How long a frozen worker's in-flight reports get to land before the
#: coordinator's view of its leases is trusted (seconds).
SETTLE_S = 0.1


def _free_port(host: str = "127.0.0.1") -> int:
    """An OS-picked free TCP port (small bind race, fine on localhost)."""
    with socket.socket(socket.AF_INET, socket.SOCK_STREAM) as probe:
        probe.bind((host, 0))
        return probe.getsockname()[1]


def _signal_group(pgid: int, signum: int) -> None:
    try:
        os.killpg(pgid, signum)
    except ProcessLookupError:
        pass  # the whole group is gone already


class LocalFleet:
    """Context manager owning one coordinator and N worker processes."""

    def __init__(self, workers: int = 2, server_workers: int = 1,
                 host: str = "127.0.0.1",
                 retry_budget: int = 2,
                 job_timeout: float = 600.0,
                 worker_drain_timeout: float = 10.0,
                 cell_delay_ms: float = 0.0,
                 announce: Callable[[str], None] = print) -> None:
        if workers < 1:
            raise ValueError("a fleet needs at least one worker")
        self.worker_count = workers
        self.server_workers = server_workers
        self.host = host
        self.retry_budget = retry_budget
        self.job_timeout = job_timeout
        self.worker_drain_timeout = worker_drain_timeout
        self.cell_delay_ms = cell_delay_ms
        self.announce = announce
        self.url: Optional[str] = None
        self.worker_urls: List[str] = []
        self._tmp: Optional[tempfile.TemporaryDirectory] = None
        self._embedded: Optional[EmbeddedServer] = None
        self._processes: List[multiprocessing.process.BaseProcess] = []

    # -- lifecycle -------------------------------------------------------

    def _boot_coordinator(self, store_dir: str, port: int = 0) -> None:
        scheduler = build_scheduler(
            backlog=COORDINATOR_BACKLOG, quota=COORDINATOR_QUOTA,
            job_timeout=self.job_timeout, retry_budget=self.retry_budget,
            store_dir=store_dir, backend=FleetCoordinator())
        self._embedded = EmbeddedServer(scheduler, host=self.host,
                                        port=port)
        self.url = self._embedded.start()

    def start(self, timeout: float = 120.0) -> str:
        """Boot coordinator + workers; returns the coordinator URL."""
        self._tmp = tempfile.TemporaryDirectory(prefix="wsrs-fleet-")
        self._boot_coordinator(f"{self._tmp.name}/coordinator")
        context = multiprocessing.get_context("spawn")
        ports = [_free_port(self.host) for _ in range(self.worker_count)]
        self.worker_urls = [f"http://{self.host}:{port}"
                            for port in ports]
        for index, port in enumerate(ports):
            process = context.Process(
                target=worker_main,
                args=(self.host, port, self.url, self.server_workers,
                      f"{self._tmp.name}/worker-{index}",
                      self.worker_drain_timeout, self.cell_delay_ms),
                name=f"wsrs-fleet-worker-{index}", daemon=False)
            process.start()
            self._processes.append(process)
        self._await_alive(self.worker_count, timeout)
        self.announce(f"fleet: coordinator at {self.url}, "
                      f"{self.worker_count} worker(s) alive")
        return self.url

    def _await_alive(self, count: int, timeout: float) -> None:
        health = ServiceClient(self.url, client_id="local-fleet")
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            if health.healthz()["fleet"]["alive"] >= count:
                return
            time.sleep(0.1)
        raise RuntimeError(
            f"fleet did not reach {count} alive worker(s) within "
            f"{timeout:.0f}s")

    @property
    def worker_pgids(self) -> List[int]:
        """The process groups of the workers (each leads its own)."""
        return [process.pid for process in self._processes]

    def kill_holder(self, signum: int = signal.SIGKILL,
                    timeout: float = 60.0) -> str:
        """Kill a worker the coordinator shows holding a lease; returns
        its URL.

        Each candidate's process group is frozen (SIGSTOP) and given
        :data:`SETTLE_S` for reports already sent to land, so the lease
        is still held when the signal arrives.  SIGKILL takes the whole
        group; SIGTERM goes to the worker alone, which drains once it
        is thawed.
        """
        topology = ServiceClient(self.url, client_id="local-fleet")
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            for node in topology.healthz()["fleet"]["workers"]:
                if (not node["leases"]
                        or node["url"] not in self.worker_urls):
                    continue
                index = self.worker_urls.index(node["url"])
                pgid = self._processes[index].pid
                _signal_group(pgid, signal.SIGSTOP)
                time.sleep(SETTLE_S)
                held = any(
                    entry["url"] == node["url"] and entry["leases"]
                    for entry in topology.healthz()["fleet"]["workers"])
                if held:
                    if signum == signal.SIGKILL:
                        _signal_group(pgid, signal.SIGKILL)
                    else:
                        os.kill(pgid, signum)
                _signal_group(pgid, signal.SIGCONT)
                if held:
                    self._processes[index].join(
                        self.worker_drain_timeout + 10.0)
                    self.announce(f"fleet: killed worker {index} "
                                  f"({node['url']}) with "
                                  f"{signal.Signals(signum).name}")
                    return node["url"]
            time.sleep(0.002)
        raise RuntimeError(f"no worker held a lease within "
                           f"{timeout:.0f}s")

    def restart_coordinator(self, fresh_store: bool = False) -> str:
        """Stop and re-create the coordinator on the same port, so the
        workers' next lease exchanges find it.

        ``fresh_store=False`` models a restart that *replays* the
        authoritative store; ``fresh_store=True`` wipes coordinator
        state so repeat submissions must be answered by worker-local
        caches via owner-first leasing (the routing-cache benchmark).
        """
        assert self._tmp is not None and self._embedded is not None
        port = self._embedded.port
        self._embedded.stop()
        store_dir = (f"{self._tmp.name}/coordinator-fresh-"
                     f"{time.monotonic_ns()}"
                     if fresh_store else f"{self._tmp.name}/coordinator")
        self._boot_coordinator(store_dir, port)
        live = sum(1 for process in self._processes if process.is_alive())
        self._await_alive(live, 30.0)
        self.announce(f"fleet: coordinator restarted at {self.url} "
                      f"({'fresh' if fresh_store else 'replayed'} store)")
        return self.url

    @property
    def coordinator(self) -> FleetCoordinator:
        """The live coordinator's lease backend (tests reach into its
        state; its ``registry`` is the coordinator's)."""
        assert self._embedded is not None
        return self._embedded.scheduler.backend

    def stop(self) -> None:
        """Drain every worker, stop the coordinator, and kill whatever
        is left in the workers' process groups."""
        for process in self._processes:
            if process.is_alive():
                process.terminate()
        for process in self._processes:
            process.join(self.worker_drain_timeout + 10.0)
            _signal_group(process.pid, signal.SIGKILL)
            process.join(5.0)
        self._processes = []
        if self._embedded is not None:
            self._embedded.stop()
            self._embedded = None
        if self._tmp is not None:
            self._tmp.cleanup()
            self._tmp = None

    def __enter__(self) -> "LocalFleet":
        self.start()
        return self

    def __exit__(self, *_exc_info) -> None:
        self.stop()
