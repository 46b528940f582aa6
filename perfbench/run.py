"""Repository benchmark: one workload, one seed, one result line.

Usage (from the repository root)::

    python3 perfbench/run.py --workload explore --seed 1 --seconds 45
    python3 perfbench/run.py --workload service --seed 7 --trace 1

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the
per-layer metrics of a traced run (see ``perfbench/README.md``).  The
last stdout line is a JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the same result, with the
host fingerprint, the set-up samples and any mismatching output ids, is
written to ``.perfbench_run/`` in the repository root.

Every workload process is fresh and runs with ``WSRS_TRACE_CACHE`` and
``WSRS_SANITIZE`` removed from its environment; nothing is written
outside ``.perfbench_run/`` (plus Python's bytecode caches).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from typing import Dict, List, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
CHILD = os.path.join(HERE, "child.py")
WORKLOADS = ("explore", "service")

#: Set-up-only processes per run; the measured process is one more
#: set-up sample, and ``setup_s`` is the median.
SETUP_TRIALS = 16
#: The whole run must end within this many seconds.
RUN_LIMIT_S = 170.0
_SCRUBBED_ENV = ("WSRS_TRACE_CACHE", "WSRS_SANITIZE")


def host_fingerprint() -> Dict[str, object]:
    """CPU model, core count, Python version and a calibration time,
    so results from different hosts are never compared."""
    model = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", "r", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    samples = []
    for _ in range(5):
        start = time.perf_counter()
        total = 0
        for value in range(300_000):
            total += value * value % 7
        samples.append((time.perf_counter() - start) * 1000.0)
    return {"cpu": model, "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "calibration_ms": statistics.median(samples)}


def spawn(args: List[str], env: Dict[str, str],
          timeout: float) -> Tuple[float, List[str]]:
    """Run ``child.py`` with ``args``; returns (seconds from start to
    its READY line, the stdout lines after it).  Raises RuntimeError on
    a failed or overdue process."""
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, CHILD] + args, cwd=ROOT,
                            env=env, stdout=subprocess.PIPE, text=True)
    timer = threading.Timer(max(1.0, timeout), proc.kill)
    timer.start()
    try:
        ready = proc.stdout.readline()
        setup = time.perf_counter() - start
        rest = proc.stdout.read().splitlines()
        code = proc.wait()
    finally:
        timer.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if ready.strip() != "READY" or code != 0:
        raise RuntimeError(f"workload process exited with code {code} "
                           f"(args {args})")
    return setup, rest


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Run one benchmark workload and print its metrics.")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    began = time.perf_counter()
    if not os.path.isfile(os.path.join(ROOT, "src", "repro",
                                       "__init__.py")):
        print(f"error: no simulator sources under {ROOT}/src",
              file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), "r",
              encoding="utf-8") as handle:
        spec = json.load(handle)
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    run_dir = os.path.join(ROOT, ".perfbench_run")
    os.makedirs(os.path.join(run_dir, "tmp"), exist_ok=True)
    env = {name: value for name, value in os.environ.items()
           if name not in _SCRUBBED_ENV}
    env["TMPDIR"] = os.path.join(run_dir, "tmp")
    host = host_fingerprint()
    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--seconds", str(args.seconds), "--trace", str(args.trace),
              "--run-dir", run_dir]
    try:
        setups = [spawn(common + ["--setup-only"], env, 60.0)[0]
                  for _ in range(SETUP_TRIALS)]
        setup, lines = spawn(
            common, env, RUN_LIMIT_S - (time.perf_counter() - began))
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    setups.append(setup)
    report = json.loads(lines[-1])
    values = dict(report["end_to_end"], setup_s=statistics.median(setups))
    values.update(report["layers"])
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        print(f"error: metrics not produced: {missing}", file=sys.stderr)
        return 1
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in wanted}
    attempted, failed = report["attempted"], report["failed"]
    result = {"correct": failed == 0 and attempted > 0,
              "attempted": attempted, "failed": failed,
              "metrics": metrics}

    with open(os.path.join(
            run_dir, f"result-{args.workload}-seed{args.seed}"
                     f"-trace{args.trace}.json"), "w",
              encoding="utf-8") as handle:
        json.dump(dict(result, host=host, setup_samples_s=setups,
                       mismatches=report["mismatches"]), handle, indent=1)
        handle.write("\n")
    print(f"host: {json.dumps(host)}")
    print(f"{args.workload} seed {args.seed}: {attempted} outputs checked, "
          f"{failed} failed (failed_frac {failed / max(1, attempted):.4f} "
          f"ratio)")
    for name, metric in metrics.items():
        print(f"  {name:<26s} {metric['value']:>14.6f} {metric['unit']}")
    for mismatch in report["mismatches"]:
        print(f"  MISMATCH {mismatch}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
