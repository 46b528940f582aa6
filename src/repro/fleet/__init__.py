"""Distributed multi-node simulation fleet.

One *coordinator* process spreads simulate/matrix/stacks/explore jobs
over N *worker* nodes.  Each worker is a full single-host service stack
(scheduler + process pool + worker-local result store).  The
coordinator is the same service stack - admission core, job table,
drain, HTTP front - with the process pool swapped for a lease backend
(:class:`repro.fleet.coordinator.FleetCoordinator`) that adds the fleet
layer:

* one backlog that workers *pull* from: each worker holds a lease
  exchange open on the coordinator and is handed work when it has a
  free pool slot, so c nodes behave as c servers fed from one queue;
* owner-first leasing on the existing idempotency keys
  (:mod:`repro.fleet.ring`), so a repeat submission lands on the node
  already holding the cached result whenever that node is free;
* lease expiry as liveness: a node that stops asking loses its leases,
  and its jobs fold back into the same bounded requeue budget the
  single-node scheduler applies to worker-process crashes;
* a replicated result store - the coordinator keeps the authoritative
  copy (same :class:`repro.service.store.ResultStore` on
  :mod:`repro.atomicio`), each worker keeps a local cache.

The client API is unchanged - the coordinator is served by
:mod:`repro.service.server` itself, so
:class:`repro.service.client.ServiceClient` talks to a fleet without
knowing it.
"""

from repro.fleet.coordinator import FleetCoordinator, WorkerNode
from repro.fleet.local import LocalFleet
from repro.fleet.ring import HashRing
from repro.fleet.worker import serve_worker

__all__ = [
    "FleetCoordinator",
    "HashRing",
    "LocalFleet",
    "WorkerNode",
    "serve_worker",
]
