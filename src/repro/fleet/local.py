"""Local fleet harness: coordinator + N worker *processes* on one host.

`wsrs loadtest --fleet`, the fleet-smoke CI job and the failure-mode
tests all need a real multi-process fleet - real sockets, real
heartbeats, real node deaths - without any deployment machinery.  This
module provides it:

* the coordinator - the service stack over a ring backend - runs
  in-process on a daemon thread (:class:`repro.service.server
  .EmbeddedServer`), so tests can reach into its state and metrics
  directly;
* each worker is a separate **spawn**-context process running
  :func:`repro.fleet.worker.worker_main` (spawn, not fork: the parent
  holds live asyncio threads, and forking a threaded process is exactly
  the hazard the repo's async lint exists to catch), with its own store
  directory and a fixed, pre-picked port;
* workers self-register over HTTP, and :meth:`LocalFleet.start` blocks
  until the coordinator reports every node alive;
* :meth:`LocalFleet.kill_worker` SIGTERMs a worker - the graceful-drain
  path that, by design, does *not* deregister (see
  :mod:`repro.fleet.worker`), so the coordinator discovers the loss the
  same way it would a crash: cancelled-without-consent records and
  failed heartbeats.
"""

from __future__ import annotations

import multiprocessing
import socket
import tempfile
import time
from typing import Callable, List, Optional

from repro.fleet.coordinator import (
    COORDINATOR_BACKLOG,
    COORDINATOR_QUOTA,
    FleetConfig,
    FleetCoordinator,
)
from repro.fleet.worker import worker_main
from repro.service.client import ServiceClient
from repro.service.server import EmbeddedServer, build_scheduler


def _free_port(host: str = "127.0.0.1") -> int:
    """An OS-picked free TCP port (small bind race, fine on localhost)."""
    with socket.socket(socket.AF_INET, socket.SOCK_STREAM) as probe:
        probe.bind((host, 0))
        return probe.getsockname()[1]


class LocalFleet:
    """Context manager owning one coordinator and N worker processes."""

    def __init__(self, workers: int = 2, server_workers: int = 1,
                 host: str = "127.0.0.1",
                 heartbeat_interval: float = 0.25,
                 heartbeat_misses: int = 3,
                 retry_budget: int = 2,
                 spill_threshold: int = 4,
                 job_timeout: float = 600.0,
                 worker_drain_timeout: float = 10.0,
                 cell_delay_ms: float = 0.0,
                 announce: Callable[[str], None] = print) -> None:
        if workers < 1:
            raise ValueError("a fleet needs at least one worker")
        self.worker_count = workers
        self.server_workers = server_workers
        self.host = host
        self.ring_config = FleetConfig(
            heartbeat_interval=heartbeat_interval,
            heartbeat_misses=heartbeat_misses,
            spill_threshold=spill_threshold)
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
        self._ports: List[int] = []

    # -- lifecycle -------------------------------------------------------

    def _boot_coordinator(self, store_dir: str,
                          workers: List[str]) -> None:
        scheduler = build_scheduler(
            backlog=COORDINATOR_BACKLOG, quota=COORDINATOR_QUOTA,
            job_timeout=self.job_timeout, retry_budget=self.retry_budget,
            store_dir=store_dir,
            backend=FleetCoordinator(self.ring_config, workers))
        self._embedded = EmbeddedServer(scheduler, host=self.host)
        self.url = self._embedded.start()

    def start(self, timeout: float = 120.0) -> str:
        """Boot coordinator + workers; returns the coordinator URL."""
        self._tmp = tempfile.TemporaryDirectory(prefix="wsrs-fleet-")
        self._boot_coordinator(f"{self._tmp.name}/coordinator", [])
        context = multiprocessing.get_context("spawn")
        self._ports = [_free_port(self.host)
                       for _ in range(self.worker_count)]
        self.worker_urls = [f"http://{self.host}:{port}"
                            for port in self._ports]
        for index, port in enumerate(self._ports):
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

    def kill_worker(self, index: int = 0) -> str:
        """SIGTERM one worker (drain, no deregistration); returns its
        URL so callers can assert on the requeue path."""
        process = self._processes[index]
        if process.is_alive():
            process.terminate()
            process.join(self.worker_drain_timeout + 10.0)
            if process.is_alive():
                process.kill()
                process.join(5.0)
        self.announce(f"fleet: killed worker {index} "
                      f"({self.worker_urls[index]})")
        return self.worker_urls[index]

    def restart_coordinator(self, fresh_store: bool = False) -> str:
        """Stop and re-create the coordinator against the same workers.

        ``fresh_store=False`` models a restart that *replays* the
        authoritative store; ``fresh_store=True`` wipes coordinator
        state so repeat submissions must be answered by worker-local
        caches via ring affinity (the routing-cache benchmark).
        """
        assert self._tmp is not None
        if self._embedded is not None:
            self._embedded.stop()
        store_dir = (f"{self._tmp.name}/coordinator-fresh-"
                     f"{time.monotonic_ns()}"
                     if fresh_store else f"{self._tmp.name}/coordinator")
        live = [url for url, process
                in zip(self.worker_urls, self._processes)
                if process.is_alive()]
        self._boot_coordinator(store_dir, live)
        self._await_alive(len(live), 30.0)
        self.announce(f"fleet: coordinator restarted at {self.url} "
                      f"({'fresh' if fresh_store else 'replayed'} store)")
        return self.url

    @property
    def coordinator(self) -> FleetCoordinator:
        """The live coordinator's ring backend (tests reach into its
        state; its ``registry`` is the coordinator's)."""
        assert self._embedded is not None
        return self._embedded.scheduler.backend

    def stop(self) -> None:
        for process in self._processes:
            if process.is_alive():
                process.terminate()
        for process in self._processes:
            process.join(self.worker_drain_timeout + 10.0)
            if process.is_alive():
                process.kill()
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
