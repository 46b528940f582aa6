"""Statistics fingerprints, the committed goldens, and their regeneration.

Every cell a workload produces is reduced to a digest of its statistics
fingerprint - ``stats.summary()`` plus the per-cluster allocated and
issued histograms, as in ``repro.experiments.profile._fingerprint`` (a
service job returns only the summary, so its digest covers the summary).
An ``explore`` round also digests its whole frontier payload.

The goldens under ``perfbench/golden/`` come from the *reference* gear,
while the workloads run on the default gear; the simulator guarantees
both are bit-identical, so any mismatch is a defect.  An input without
a golden (a custom lattice, a service cell outside the pool) is
cross-checked against the reference gear after the timed part of the
run.

Regenerate the goldens (reference gear, on every core)::

    python3 perfbench/golden.py
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import sys
from typing import Dict, Iterable, List, Sequence

HERE = os.path.dirname(os.path.abspath(__file__))
GOLDEN_DIR = os.path.join(HERE, "golden")

def digest(value: object) -> str:
    """Short stable hash of a JSON-serialisable value."""
    text = json.dumps(value, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:24]


def stats_digest(stats) -> str:
    return digest([stats.summary(), list(stats.cluster_allocated),
                   list(stats.cluster_issued)])


def load(workload: str) -> Dict:
    """The committed golden of one workload (empty if absent)."""
    path = os.path.join(GOLDEN_DIR, f"{workload}.json")
    if not os.path.exists(path):
        return {}
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


def count_mismatches(observed: Dict[str, str],
                     expected: Dict[str, str]) -> List[str]:
    """Ids of observed cells whose digest differs from (or is missing
    in) ``expected``."""
    return sorted(key for key, value in observed.items()
                  if expected.get(key) != value)


# -- reference-gear truth ----------------------------------------------------


def reference_results(specs: Sequence) -> List:
    """Run ``specs`` on the reference gear through the normal engine."""
    from repro.experiments.runner import execute_many

    return execute_many([dataclasses.replace(spec, gear="reference")
                         for spec in specs])


def explore_truth(spec, seed: int) -> Dict[str, str]:
    """Reference digests of one default-knob exploration: every cell
    (``bench/config``) plus the whole payload under ``payload``."""
    from repro.explore.explorer import (
        DEFAULT_BUDGET,
        DEFAULT_MEASURE,
        DEFAULT_WARMUP,
        frontier_payload,
        survivor_specs,
    )

    results = reference_results(survivor_specs(spec, seed=seed))
    truth = {f"{r.spec.benchmark}/{r.spec.config.name}":
             stats_digest(r.stats) for r in results}
    truth["payload"] = digest(frontier_payload(
        spec, DEFAULT_BUDGET, True, "ed2p", DEFAULT_MEASURE,
        DEFAULT_WARMUP, seed, results))
    return truth


def service_truth(cells: Iterable[tuple], measure: int,
                  warmup: int) -> Dict[str, str]:
    """Reference summary digests of one-cell jobs ``(bench, config,
    seed)``, keyed ``bench/config/seed``."""
    from repro.config import config_by_name
    from repro.experiments.runner import RunSpec

    specs = [RunSpec(config=config_by_name(config), benchmark=benchmark,
                     measure=measure, warmup=warmup, seed=seed)
             for benchmark, config, seed in cells]
    return {f"{r.spec.benchmark}/{r.spec.config.name}/{r.spec.seed}":
            digest(r.stats.summary()) for r in reference_results(specs)}


def regenerate() -> None:
    """Recompute and write every golden file from the reference gear."""
    import workloads

    os.makedirs(GOLDEN_DIR, exist_ok=True)
    explore = workloads.Explore(seed=1)
    service = workloads.Service(seed=1, start=False)
    records = {
        "explore": {str(seed): explore_truth(explore.spec, seed)
                    for seed in explore.trace_seeds},
        "service": service_truth(service.pool, service.measure,
                                 service.warmup),
    }
    for name, record in records.items():
        with open(os.path.join(GOLDEN_DIR, f"{name}.json"), "w",
                  encoding="utf-8") as handle:
            json.dump(record, handle, indent=1, sort_keys=True)
            handle.write("\n")
        print(f"wrote golden/{name}.json ({len(record)} entries)")


if __name__ == "__main__":
    sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
    regenerate()
