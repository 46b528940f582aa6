"""Distributed multi-node simulation fleet.

One *coordinator* process shards simulate/matrix/stacks/explore jobs
across N *worker* nodes.  Each worker is a full PR-5 service stack
(scheduler + process pool + worker-local result store).  The
coordinator is the same service stack - admission core, job table,
drain, HTTP front - with the process pool swapped for a ring dispatch
backend (:class:`repro.fleet.coordinator.FleetCoordinator`) that adds
the fleet layer:

* consistent-hash routing on the existing idempotency keys
  (:mod:`repro.fleet.ring`), so a repeat submission lands on the node
  already holding the cached result;
* worker registration plus pull-model liveness: the coordinator probes
  every worker's existing ``/healthz`` endpoint on a heartbeat interval
  (:mod:`repro.fleet.coordinator`);
* a replicated result store - the coordinator keeps the authoritative
  copy (same :class:`repro.service.store.ResultStore` on
  :mod:`repro.atomicio`), each worker keeps a local cache;
* node-loss requeue: jobs routed to a dead worker fold back into the
  same bounded requeue budget the single-node scheduler applies to
  worker-process crashes.

The client API is unchanged - the coordinator is served by
:mod:`repro.service.server` itself, so
:class:`repro.service.client.ServiceClient` talks to a fleet without
knowing it.
"""

from repro.fleet.coordinator import (
    FleetConfig,
    FleetCoordinator,
    WorkerNode,
)
from repro.fleet.local import LocalFleet
from repro.fleet.ring import HashRing
from repro.fleet.worker import serve_worker

__all__ = [
    "FleetConfig",
    "FleetCoordinator",
    "HashRing",
    "LocalFleet",
    "WorkerNode",
    "serve_worker",
]
