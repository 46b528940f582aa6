"""One workload process: set up, print ``READY``, measure, verify, report.

``run.py`` starts this script once per set-up trial (``--setup-only``)
and once for the measured run, and times each from process start to
the ``READY`` line.  The last stdout line of a measured run is a JSON
report; everything before ``READY`` counts as set-up.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))


def peak_rss_mb() -> float:
    """Peak RSS of this process plus that of its largest reaped child
    (the pool workers, once their pool has shut down)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--run-dir", required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    import workloads

    if args.trace:
        import spans  # noqa: F401  (its import cost is set-up, not work)
    workload = workloads.make(args.workload, args.seed, args.run_dir)
    print("READY", flush=True)
    try:
        if args.setup_only:
            return 0
        report = workload.run(args.seconds, bool(args.trace))
    finally:
        workload.close()
    report.end_to_end["peak_rss_mb"] = peak_rss_mb()
    workload.verify(report)
    for index, recorder in enumerate(report.recorders):
        recorder.dump(os.path.join(
            args.run_dir, f"spans-{args.workload}-seed{args.seed}"
                          f"-{index}.jsonl"))
    print(json.dumps({
        "end_to_end": report.end_to_end,
        "layers": report.layers,
        "attempted": report.attempted,
        "failed": report.failed,
        "mismatches": report.mismatches[:20],
    }), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
