"""Command-line interface: ``python -m repro`` or the ``wsrs`` script.

Subcommands map one-to-one onto the paper's evaluation artifacts::

    wsrs table1                    # register-file complexity (Table 1)
    wsrs figure4 [--measure N]     # IPC across configurations (Figure 4)
    wsrs figure5 [--measure N]     # unbalancing degrees (Figure 5)
    wsrs ablations                 # the DESIGN.md ablation panel
    wsrs simulate gzip --config "WSRS RC S 512"   # one run, full stats
    wsrs profiles                  # list the benchmark profiles
    wsrs workload mcf              # dataflow / operand-structure analysis
    wsrs sensitivity               # penalty/memory/width/predictor sweeps
    wsrs microbench                # run the assembly kernels
    wsrs savetrace gzip out.trace  # freeze a workload to a file
    wsrs ab BASE [--seconds S]     # same-host perfbench A/B against BASE
    wsrs profile [--quick]         # core-loop profile -> BENCH_core.json
    wsrs stacks                    # CPI stacks per (benchmark, config)
    wsrs trace gzip --out t.jsonl.gz   # structured pipeline event trace
    wsrs analyze                   # unified static analysis (all passes)
    wsrs serve                     # run the simulation job service (HTTP)
    wsrs submit gzip --wait        # submit one job to a running service
    wsrs loadtest                  # drive N clients -> BENCH_service.json
    wsrs loadtest --fleet          # fleet scaling bench -> BENCH_fleet.json
    wsrs explore                   # design-space explorer -> BENCH_explore.json
    wsrs fleet serve-coordinator   # one backlog that workers lease jobs from
    wsrs fleet serve-worker --port 8801   # one node leasing from it

``wsrs simulate --sanitize`` (or ``WSRS_SANITIZE=1`` for any command)
runs the cycle-level pipeline sanitizer of :mod:`repro.verify.sanitizer`
alongside the simulation and aborts with a structured violation if any
WS/RS structural invariant is broken.

Matrix-shaped commands (figure4, figure5, ablations, sensitivity)
accept ``--workers N`` to fan the independent cells out over
a process pool (default: every core).  ``--workers 1`` forces the
strictly serial in-process path - per-cell results are bit-identical,
so the knob only trades wall-clock for debuggability.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.config import config_by_name, figure4_configs
from repro.trace.profiles import ALL_BENCHMARKS, PROFILES


def _worker_count(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(
            f"workers must be >= 1, got {value}")
    return value


def _add_slice_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--measure", type=int, default=100_000,
                        help="measured slice length in instructions")
    parser.add_argument("--warmup", type=int, default=120_000,
                        help="cache/predictor warm-up instructions")
    parser.add_argument("--seed", type=int, default=1,
                        help="workload generator seed")
    parser.add_argument("--benchmarks", nargs="*", default=None,
                        metavar="NAME",
                        help="subset of benchmarks (default: all twelve)")
    parser.add_argument("--workers", type=_worker_count, default=None,
                        metavar="N",
                        help="parallel simulation processes (default: all "
                             "cores; 1 = serial determinism-debug path)")


def _cmd_table1(args: argparse.Namespace) -> int:
    from repro.experiments import table1

    comparison = table1.run(print_table=True)
    return 0 if comparison.ok else 1


def _cmd_figure4(args: argparse.Namespace) -> int:
    from repro.experiments import figure4

    report = figure4.run(measure=args.measure, warmup=args.warmup,
                         benchmarks=args.benchmarks, seed=args.seed,
                         workers=args.workers)
    return 0 if report.ok else 1


def _cmd_figure5(args: argparse.Namespace) -> int:
    from repro.experiments import figure5

    report = figure5.run(measure=args.measure, warmup=args.warmup,
                         benchmarks=args.benchmarks, seed=args.seed,
                         workers=args.workers)
    return 0 if report.ok else 1


def _cmd_ablations(args: argparse.Namespace) -> int:
    from repro.experiments import ablations

    benchmarks = args.benchmarks or list(ablations.DEFAULT_BENCHMARKS)
    ablations.run_all(benchmarks, measure=args.measure, warmup=args.warmup,
                      workers=args.workers)
    return 0


def _cmd_simulate(args: argparse.Namespace) -> int:
    from repro.experiments.runner import RunSpec, execute

    config = config_by_name(args.config)
    spec = RunSpec(config=config, benchmark=args.benchmark,
                   measure=args.measure, warmup=args.warmup,
                   seed=args.seed, sanitize=args.sanitize,
                   observe=args.observe, gear=args.gear)
    result = execute(spec)
    stats = result.stats
    print(f"benchmark        {args.benchmark}")
    print(f"configuration    {config.name}")
    print(f"gear             {result.gear}")
    print(f"despecializations {result.despecializations}")
    print(f"IPC              {stats.ipc:.3f}")
    print(f"cycles           {stats.cycles}")
    print(f"committed        {stats.committed}")
    print(f"mispredict rate  {stats.misprediction_rate:.4f}")
    print(f"unbalancing      {stats.unbalancing_degree:.1f}%")
    shares = "/".join(f"{share:.2f}" for share in stats.workload_shares)
    print(f"cluster shares   {shares}")
    for key, value in stats.summary().items():
        if key not in ("cycles", "committed", "ipc", "misprediction_rate",
                       "unbalancing_degree"):
            print(f"{key:<16s} {value}")
    if result.obs is not None and stats.cycles:
        causes = result.obs["causes"]
        stack = "  ".join(
            f"{cause}:{100.0 * cycles / stats.cycles:.1f}%"
            for cause, cycles in causes.items() if cycles)
        print(f"CPI stack        {stack}")
    return 0


def _cmd_stacks(args: argparse.Namespace) -> int:
    from repro.obs import stacks

    return stacks.run(benchmarks=args.benchmarks, measure=args.measure,
                      warmup=args.warmup, seed=args.seed,
                      workers=args.workers, out_md=args.out_md,
                      out_json=args.out_json, quick=args.quick)


def _cmd_trace(args: argparse.Namespace) -> int:
    from repro.obs.analyzer import format_summary, summarize

    if args.analyze is not None:
        print(format_summary(summarize(args.analyze)))
        return 0
    if args.benchmark is None:
        print("wsrs trace: a benchmark is required unless --analyze "
              "is given", file=sys.stderr)
        return 2
    from repro.core.processor import Processor
    from repro.frontend.predictors import make_predictor
    from repro.obs.tracer import PipelineTracer
    from repro.trace.cache import TRACE_SLACK, cached_spec_trace

    config = config_by_name(args.config)
    length = args.warmup + args.measure + TRACE_SLACK
    trace = cached_spec_trace(args.benchmark, length, seed=args.seed)
    with PipelineTracer(args.out, start=args.trace_start,
                        window=args.trace_window,
                        every=args.trace_every) as tracer:
        processor = Processor(config, trace,
                              predictor=make_predictor("2bcgskew"),
                              tracer=tracer,
                              gear="reference" if args.reference else None)
        stats = processor.run(measure=args.measure, warmup=args.warmup)
        tracer.close(stats)
    print(f"wrote {tracer.events_written} events to {args.out}")
    print(format_summary(summarize(args.out)))
    return 0


def _cmd_analyze(args: argparse.Namespace) -> int:
    from repro.analyze.driver import run_analysis

    return run_analysis(passes=args.passes, paths=args.paths,
                        root=args.root, fmt=args.format, out=args.out,
                        baseline=args.baseline,
                        use_baseline=not args.no_baseline,
                        update_baseline=args.write_baseline,
                        sample_configs=args.sample_configs,
                        list_passes=args.list_passes)


def _cmd_workload(args: argparse.Namespace) -> int:
    from repro.analysis.dependence import (
        dataflow_limits,
        format_profile,
        operand_profile,
        register_lifetimes,
    )
    from repro.analysis.subset_flow import analyze_subset_flow
    from repro.trace.profiles import spec_trace

    count = args.measure
    print(f"Workload analysis: {args.benchmark} "
          f"({count:,} instructions)\n")
    print(format_profile(operand_profile(
        spec_trace(args.benchmark, count, seed=args.seed))))
    limits = dataflow_limits(
        spec_trace(args.benchmark, count, seed=args.seed))
    print(f"dataflow critical path {limits.critical_path_cycles} cycles"
          f"  ->  ideal IPC {limits.ideal_ipc:.1f}")
    print(f"mean producer distance {limits.mean_distance:.1f} "
          f"instructions; histogram {limits.distance_histogram}")
    lifetimes = register_lifetimes(
        spec_trace(args.benchmark, count, seed=args.seed))
    print(f"register lifetimes: mean {lifetimes.mean_lifetime:.1f}, "
          f"never-read {lifetimes.never_read_fraction:.1%}")
    for policy in ("random_monadic", "random_commutative"):
        report = analyze_subset_flow(
            spec_trace(args.benchmark, count, seed=args.seed), policy)
        print(f"{policy:<20s} mean cluster run "
              f"{report.mean_cluster_run:.2f}, f-run "
              f"{report.mean_f_run:.2f}, swapped "
              f"{report.swapped_fraction:.1%}")
    return 0


def _cmd_sensitivity(args: argparse.Namespace) -> int:
    from repro.experiments import sensitivity

    benchmark = (args.benchmarks or ["gzip"])[0]
    sensitivity.run_all(benchmark, measure=args.measure,
                        warmup=args.warmup, workers=args.workers)
    return 0


def _cmd_ab(args: argparse.Namespace) -> int:
    from repro.experiments import ab

    try:
        report = ab.run(args.base, seconds=args.seconds)
    except ab.ABError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(ab.format_report(report))
    return 0 if report["ok"] else 1


def _cmd_profile(args: argparse.Namespace) -> int:
    from repro.experiments import profile

    benchmark = args.benchmark or profile.DEFAULT_BENCHMARK
    record = profile.run(benchmark=benchmark, seed=args.seed,
                         quick=args.quick, out=args.out)
    if not record["identical"]:
        return 1
    if args.min_specialized_speedup is not None:
        floor = args.min_specialized_speedup
        slow = [cell for cell in record["cells"]
                if cell["specialized_speedup"] < floor]
        if slow:
            names = ", ".join(
                f"{cell['config']} ({cell['specialized_speedup']:.2f}x)"
                for cell in slow)
            print(f"specialized gear below the {floor:.1f}x speedup "
                  f"floor: {names}", file=sys.stderr)
            return 1
    return 0


def _cmd_microbench(args: argparse.Namespace) -> int:
    from repro.core.processor import simulate
    from repro.isa.registers import isa_machine_config
    from repro.trace.microbench import (
        microbenchmark_names,
        microbenchmark_trace,
    )

    config = isa_machine_config(config_by_name(args.config))
    print(f"configuration: {config.name} (SimISA register counts)")
    print(f"{'kernel':<16s}{'insts':>8s}{'IPC':>8s}{'unbal':>8s}")
    for name in microbenchmark_names():
        trace = list(microbenchmark_trace(name))
        stats = simulate(config, iter(trace), measure=len(trace))
        print(f"{name:<16s}{len(trace):>8d}{stats.ipc:>8.2f}"
              f"{stats.unbalancing_degree:>7.0f}%")
    return 0


def _cmd_savetrace(args: argparse.Namespace) -> int:
    from repro.trace.profiles import spec_trace
    from repro.trace.serialization import save_trace

    count = save_trace(
        spec_trace(args.benchmark, args.measure, seed=args.seed),
        args.output)
    print(f"wrote {count} instructions to {args.output}")
    return 0


def _scheduler_from_args(args: argparse.Namespace, **extra):
    """The scheduler behind ``serve`` and both ``fleet serve-*``."""
    from repro.service.server import build_scheduler

    return build_scheduler(
        workers=getattr(args, "workers", None) or 2,
        backlog=args.backlog, quota=getattr(args, "quota", 16),
        job_timeout=args.job_timeout, retry_budget=args.retry_budget,
        drain_timeout=args.drain_timeout, store_dir=args.store,
        ttl_seconds=args.ttl, **extra)


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.service.server import serve

    return serve(host=args.host, port=args.port,
                 scheduler=_scheduler_from_args(args))


def _cmd_submit(args: argparse.Namespace) -> int:
    import json

    from repro.service.client import JobFailed, ServiceClient

    if args.kind != "explore" and args.benchmark is None:
        print("error: a benchmark is required unless --kind explore",
              file=sys.stderr)
        return 2
    url = args.url
    if url is None:
        from repro.fleet.coordinator import DEFAULT_COORDINATOR_PORT

        url = (f"http://127.0.0.1:{DEFAULT_COORDINATOR_PORT}"
               if args.fleet else "http://127.0.0.1:8787")
    client = ServiceClient(url, client_id=args.client)
    request = {"kind": args.kind, "benchmarks": [args.benchmark],
               "configs": [args.config], "measure": args.measure,
               "warmup": args.warmup, "seed": args.seed,
               "priority": args.priority}
    if args.kind == "matrix":
        request["benchmarks"] = args.benchmarks or [args.benchmark]
        request["configs"] = [args.config]
    if args.kind == "explore":
        lattice = None
        if args.lattice is not None:
            with open(args.lattice, "r", encoding="utf-8") as handle:
                lattice = json.load(handle)
        request = {"kind": "explore", "lattice": lattice,
                   "budget": args.budget, "rank": args.rank,
                   "prefilter": args.prefilter, "measure": args.measure,
                   "warmup": args.warmup, "seed": args.seed,
                   "priority": args.priority}
    if args.no_wait:
        record = client.submit(request)
        print(f"job {record['id']} {record['state']}"
              + (" (cached)" if record.get("cached") else ""))
        return 0
    try:
        record = client.submit_and_wait(request, timeout=args.timeout)
    except JobFailed as exc:
        print(str(exc), file=sys.stderr)
        return 1
    print(f"job {record['id']} {record['state']}"
          + (" (cached)" if record.get("cached") else "")
          + (f" latency {record['latency_ms']:.0f} ms"
             if record.get("latency_ms") is not None else ""))
    if record["state"] != "done":
        print(f"error: {record.get('error')}", file=sys.stderr)
        return 1
    if args.kind == "explore":
        result = record["result"]
        counts = result["counts"]
        print(f"explored {counts['cells']} cells, simulated "
              f"{counts['simulated']}, frontier {counts['frontier']}: "
              + ", ".join(result["frontier"]))
        return 0
    for cell in record["result"]["cells"]:
        summary = cell["summary"]
        print(f"{cell['benchmark']:<10s}{cell['config']:<16s}"
              f"IPC {summary['ipc']:.3f}  cycles {summary['cycles']}")
    return 0


def _cmd_loadtest(args: argparse.Namespace) -> int:
    from repro.service import loadtest

    if args.fleet:
        if args.url is not None:
            print("error: --fleet spins up its own local fleet; --url "
                  "is incompatible", file=sys.stderr)
            return 2
        record = loadtest.run_fleet(
            workers=args.workers or 3, clients=args.clients,
            benchmarks=tuple(args.benchmarks) if args.benchmarks
            else loadtest.DEFAULT_BENCHMARKS,
            configs=(args.config,) if args.config
            else loadtest.FLEET_CONFIGS,
            measure=args.measure if args.measure is not None else 500,
            warmup=args.warmup if args.warmup is not None else 250,
            seed=args.seed, out=args.out or "BENCH_fleet.json",
            kill_test=not args.no_kill,
            cell_delay_ms=args.cell_delay_ms
            if args.cell_delay_ms is not None
            else loadtest.DEFAULT_CELL_DELAY_MS)
        if args.min_speedup is not None \
                and record["speedup"] < args.min_speedup:
            print(f"fleet speedup {record['speedup']}x below the "
                  f"{args.min_speedup}x floor", file=sys.stderr)
            return 1
        kills_ok = all(record[name] is None or record[name]["ok"]
                       for name in ("kill", "drain"))
        return 0 if record["identical"] and kills_ok else 1

    record = loadtest.run(
        url=args.url, clients=args.clients,
        benchmarks=args.benchmarks or loadtest.DEFAULT_BENCHMARKS,
        configs=[args.config] if args.config
        else loadtest.DEFAULT_CONFIGS,
        measure=args.measure if args.measure is not None else 4_000,
        warmup=args.warmup if args.warmup is not None else 2_000,
        seed=args.seed, passes=args.passes,
        out=args.out or "BENCH_service.json",
        server_workers=args.workers or 2, direct_workers=args.workers)
    return 0 if record["identical"] and not record["degraded"] else 1


def _cmd_fleet_coordinator(args: argparse.Namespace) -> int:
    from repro.fleet.coordinator import FleetCoordinator
    from repro.service.server import serve

    return serve(host=args.host, port=args.port,
                 scheduler=_scheduler_from_args(
                     args, backend=FleetCoordinator()))


def _cmd_fleet_worker(args: argparse.Namespace) -> int:
    from repro.fleet.worker import delay_runner, serve_worker

    scheduler = _scheduler_from_args(
        args, cell_runner=delay_runner(args.cell_delay_ms))
    return serve_worker(scheduler, host=args.host, port=args.port,
                        coordinator_url=args.coordinator)


def _cmd_explore(args: argparse.Namespace) -> int:
    import json

    from repro.explore import explore
    from repro.explore.explorer import save_payload
    from repro.explore.lattice import LatticeError, LatticeSpec

    payload_spec = None
    if args.lattice is not None:
        with open(args.lattice, "r", encoding="utf-8") as handle:
            payload_spec = json.load(handle)
    try:
        spec = LatticeSpec.from_dict(payload_spec)
    except LatticeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    from collections import Counter

    done = [0]
    gears: Counter = Counter()

    def progress(result) -> None:
        # Gear provenance goes to the console only: the payload (and so
        # its digest) stays gear-free.
        done[0] += 1
        gears[result.gear] += 1
        print(f"  [{done[0]}] {result.spec.config.name:<28s}"
              f"{result.spec.benchmark:<8s}IPC {result.stats.ipc:.3f}"
              f"  {result.gear}")

    payload = explore(spec, budget=args.budget, prefilter=args.prefilter,
                      rank=args.rank, measure=args.measure,
                      warmup=args.warmup, seed=args.seed,
                      workers=args.workers, progress=progress)
    print("gears: " + ", ".join(f"{gear} {n}"
                                for gear, n in sorted(gears.items())))
    counts = payload["counts"]
    print(f"lattice {counts['cells']} cells: {counts['valid']} valid "
          f"({counts['incompatible']} incompatible, {counts['invalid']} "
          f"CFG-invalid, {counts['duplicate']} duplicate); pruned "
          f"{counts['pruned']} analytically, simulated "
          f"{counts['simulated']}")
    print(f"{'cell':<28s}{'IPC':>7s}{'E/cyc':>7s}{'E/inst':>8s}"
          f"{args.rank.upper():>9s}  frontier")
    for row in payload["results"]:
        marker = "*" if row["frontier"] else (
            f"< {row['dominated_by']}" if row["dominated_by"] else "")
        print(f"{row['cell']:<28s}{row['ipc_geomean']:>7.3f}"
              f"{row['energy_nj_per_cycle']:>7.2f}"
              f"{row['energy_per_instruction']:>8.3f}"
              f"{row[args.rank]:>9.3f}  {marker}")
    save_payload(payload, args.out)
    print(f"frontier ({counts['frontier']} cells): "
          + ", ".join(payload["frontier"]))
    print(f"wrote {args.out}")
    return 0 if payload["frontier"] else 1


def _cmd_profiles(args: argparse.Namespace) -> int:
    print(f"{'name':<10s}{'suite':<7s}description")
    for name in ALL_BENCHMARKS:
        profile = PROFILES[name]
        print(f"{name:<10s}{profile.kind:<7s}{profile.description}")
    return 0


def _add_scheduler_args(parser: argparse.ArgumentParser, backlog: int,
                        retry_help: str, store_help: str,
                        quota: Optional[int] = None) -> None:
    """The admission and store flags ``serve`` and both ``fleet
    serve-*`` commands share (a worker keeps the default quota)."""
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--backlog", type=int, default=backlog,
                        help="queued jobs admitted before load shedding")
    if quota is not None:
        parser.add_argument("--quota", type=int, default=quota,
                            help="active jobs allowed per client id")
    parser.add_argument("--job-timeout", type=float, default=600.0,
                        metavar="SECONDS",
                        help="per-job wall-clock budget (across "
                             "requeues)")
    parser.add_argument("--retry-budget", type=int, default=2,
                        help=retry_help)
    parser.add_argument("--drain-timeout", type=float, default=30.0,
                        metavar="SECONDS",
                        help="shutdown grace for in-flight jobs")
    parser.add_argument("--store", default=None, metavar="DIR",
                        help=store_help)
    parser.add_argument("--ttl", type=float, default=86_400.0,
                        metavar="SECONDS",
                        help="result-store time-to-live")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wsrs",
        description="Reproduction of 'Register Write Specialization / "
                    "Register Read Specialization' (MICRO-35, 2002)")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("table1", help="regenerate Table 1").set_defaults(
        func=_cmd_table1)

    p4 = sub.add_parser("figure4", help="regenerate Figure 4 (IPC)")
    _add_slice_arguments(p4)
    p4.set_defaults(func=_cmd_figure4)

    p5 = sub.add_parser("figure5", help="regenerate Figure 5 (unbalance)")
    _add_slice_arguments(p5)
    p5.set_defaults(func=_cmd_figure5)

    pa = sub.add_parser("ablations", help="run the ablation panel")
    _add_slice_arguments(pa)
    pa.set_defaults(func=_cmd_ablations)

    ps = sub.add_parser("simulate", help="run one (benchmark, config)")
    ps.add_argument("benchmark", choices=sorted(PROFILES))
    ps.add_argument("--config", default="RR 256",
                    choices=[c.name for c in figure4_configs()])
    ps.add_argument("--sanitize", action="store_true",
                    help="run the cycle-level pipeline sanitizer "
                         "(repro.verify) alongside the simulation")
    ps.add_argument("--gear", default=None,
                    choices=["reference", "specialized"],
                    help="main-loop gear: the reference per-cycle "
                         "stepper, or the config-specialized stepper "
                         "(the default; statistics are bit-identical "
                         "either way)")
    ps.add_argument("--observe", action="store_true",
                    help="attach the observability layer (repro.obs) and "
                         "print the run's CPI stack; statistics stay "
                         "bit-identical")
    _add_slice_arguments(ps)
    ps.set_defaults(func=_cmd_simulate)

    sub.add_parser("profiles", help="list benchmark profiles").set_defaults(
        func=_cmd_profiles)

    pn = sub.add_parser("workload", help="dataflow analysis of a workload")
    pn.add_argument("benchmark", choices=sorted(PROFILES))
    pn.add_argument("--measure", type=int, default=20_000)
    pn.add_argument("--seed", type=int, default=1)
    pn.set_defaults(func=_cmd_workload)

    pv = sub.add_parser("sensitivity", help="sensitivity sweeps")
    _add_slice_arguments(pv)
    pv.set_defaults(func=_cmd_sensitivity)

    pb = sub.add_parser(
        "ab",
        help="same-host A/B gate: interleaved perfbench pairs of BASE "
             "against the working tree")
    pb.add_argument("base", metavar="BASE",
                    help="commit to compare against (checked out into a "
                         "temporary git worktree)")
    pb.add_argument("--seconds", type=float, default=None, metavar="S",
                    help="run length per benchmark run (default: "
                         "BENCHMARK.json's run_seconds)")
    pb.set_defaults(func=_cmd_ab)

    pc = sub.add_parser(
        "profile",
        help="profile the core loop (reference vs specialized), "
             "write BENCH_core.json")
    pc.add_argument("--benchmark", default=None,
                    choices=sorted(PROFILES),
                    help="trace to profile on (default: mcf, the most "
                         "stall-dominated workload)")
    pc.add_argument("--quick", action="store_true",
                    help="short slices for the CI perf-smoke job")
    pc.add_argument("--seed", type=int, default=1)
    pc.add_argument("--out", default="BENCH_core.json",
                    help="JSON record path")
    pc.add_argument("--min-specialized-speedup", type=float, default=None,
                    metavar="X",
                    help="exit non-zero unless the specialized gear is "
                         "at least X times faster than the reference "
                         "stepper on every configuration (the CI "
                         "perf-smoke gate)")
    pc.set_defaults(func=_cmd_profile)

    pk = sub.add_parser(
        "stacks",
        help="CPI stacks per (benchmark, config): where the cycles go")
    _add_slice_arguments(pk)
    pk.set_defaults(measure=20_000, warmup=20_000)
    pk.add_argument("--out-md", default=None, metavar="PATH",
                    help="also write the markdown tables to PATH")
    pk.add_argument("--out-json", default=None, metavar="PATH",
                    help="also write the stacks as JSON to PATH")
    pk.add_argument("--quick", action="store_true",
                    help="CI gate: short slices, and verify that stacks "
                         "sum to cycles, match across simulator gears, "
                         "and leave statistics bit-identical")
    pk.set_defaults(func=_cmd_stacks)

    pe = sub.add_parser(
        "trace",
        help="record a structured JSONL pipeline event trace "
             "(or --analyze an existing one)")
    pe.add_argument("benchmark", nargs="?", default=None,
                    choices=sorted(PROFILES))
    pe.add_argument("--config", default="WSRS RC S 512",
                    choices=[c.name for c in figure4_configs()])
    pe.add_argument("--out", default="pipeline.jsonl.gz",
                    help="trace path (.gz compresses transparently)")
    pe.add_argument("--measure", type=int, default=20_000)
    pe.add_argument("--warmup", type=int, default=0)
    pe.add_argument("--seed", type=int, default=1)
    pe.add_argument("--reference", action="store_true",
                    help="trace under the reference per-cycle stepper")
    pe.add_argument("--trace-start", type=int, default=0, metavar="CYCLE",
                    help="first sampled cycle")
    pe.add_argument("--trace-window", type=int, default=None, metavar="N",
                    help="record N consecutive cycles per sample window")
    pe.add_argument("--trace-every", type=int, default=None, metavar="N",
                    help="repeat the sample window every N cycles")
    pe.add_argument("--analyze", default=None, metavar="PATH",
                    help="summarise an existing trace instead of "
                         "simulating")
    pe.set_defaults(func=_cmd_trace)

    pm = sub.add_parser("microbench", help="run the assembly kernels")
    pm.add_argument("--config", default="RR 256",
                    choices=[c.name for c in figure4_configs()])
    pm.set_defaults(func=_cmd_microbench)

    pz = sub.add_parser(
        "analyze",
        help="unified static analysis: every registered pass, with "
             "SARIF/JSON output and a committed finding baseline")
    pz.add_argument("paths", nargs="*", default=[],
                    help="restrict file-oriented passes to these "
                         "files/directories (default: each pass's own "
                         "target set)")
    pz.add_argument("--pass", action="append", dest="passes",
                    default=None, metavar="NAME",
                    help="run only this pass (repeatable; default: all; "
                         "see --list-passes)")
    pz.add_argument("--format", default="text",
                    choices=["text", "json", "sarif"],
                    help="report format (sarif = SARIF 2.1.0)")
    pz.add_argument("--out", default=None, metavar="PATH",
                    help="write the report to PATH instead of stdout")
    pz.add_argument("--baseline", default=None, metavar="PATH",
                    help="baseline file (default: "
                         "ROOT/analysis-baseline.json)")
    pz.add_argument("--write-baseline", action="store_true",
                    help="accept the current findings as the new "
                         "baseline and exit 0")
    pz.add_argument("--no-baseline", action="store_true",
                    help="report every finding, ignoring the baseline")
    pz.add_argument("--root", default=".",
                    help="repository root (baseline + default targets)")
    pz.add_argument("--sample-configs", type=int, default=50,
                    metavar="N",
                    help="sampled configs for the spec-equiv sweep")
    pz.add_argument("--list-passes", action="store_true",
                    help="list registered passes and their rules")
    pz.set_defaults(func=_cmd_analyze)

    px = sub.add_parser(
        "serve",
        help="run the simulation job service (HTTP, asyncio, stdlib)")
    px.add_argument("--port", type=int, default=8787,
                    help="listen port (0 = OS-assigned, printed on start)")
    px.add_argument("--workers", type=_worker_count, default=None,
                    metavar="N",
                    help="simulation worker processes (default: 2)")
    _add_scheduler_args(
        px, backlog=64, quota=16,
        retry_help="requeues after worker crashes before failing",
        store_help="result-store directory (enables dedup across "
                   "restarts and cached-result short-circuiting)")
    px.set_defaults(func=_cmd_serve)

    pj = sub.add_parser(
        "submit", help="submit one job to a running wsrs service")
    pj.add_argument("benchmark", nargs="?", default=None,
                    choices=sorted(PROFILES),
                    help="benchmark to run (unused by --kind explore, "
                         "whose work is named by the lattice)")
    pj.add_argument("--config", default="WSRS RC S 512",
                    choices=[c.name for c in figure4_configs()])
    pj.add_argument("--kind", default="simulate",
                    choices=["simulate", "matrix", "stacks", "explore"])
    pj.add_argument("--url", default=None,
                    help="service or coordinator URL (default: "
                         "http://127.0.0.1:8787, or the coordinator "
                         "port 8788 with --fleet)")
    pj.add_argument("--fleet", action="store_true",
                    help="target the fleet coordinator's default port "
                         "instead of a single-node service (the "
                         "coordinator speaks the same /v1/jobs protocol)")
    pj.add_argument("--client", default="cli",
                    help="client id used for quota accounting")
    pj.add_argument("--measure", type=int, default=20_000)
    pj.add_argument("--warmup", type=int, default=0)
    pj.add_argument("--seed", type=int, default=1)
    pj.add_argument("--priority", type=int, default=5,
                    help="0 (soonest) .. 9")
    pj.add_argument("--benchmarks", nargs="*", default=None,
                    metavar="NAME", help="benchmark list for --kind matrix")
    pj.add_argument("--lattice", default=None, metavar="FILE",
                    help="JSON lattice spec for --kind explore "
                         "(default: the built-in lattice)")
    pj.add_argument("--budget", type=int, default=16,
                    help="simulation budget for --kind explore")
    pj.add_argument("--rank", default="ed2p", choices=["ed", "ed2p"],
                    help="rank metric for --kind explore")
    pj.add_argument("--no-prefilter", dest="prefilter",
                    action="store_false",
                    help="disable the analytic pre-filter for --kind "
                         "explore")
    pj.add_argument("--timeout", type=float, default=600.0,
                    help="how long to wait for completion")
    pj.add_argument("--no-wait", action="store_true",
                    help="print the job id and return immediately")
    pj.set_defaults(func=_cmd_submit)

    py = sub.add_parser(
        "loadtest",
        help="drive N concurrent clients against the service, verify "
             "bit-identical results, write BENCH_service.json "
             "(--fleet: scaling bench over local multi-node fleets, "
             "write BENCH_fleet.json)")
    py.add_argument("--url", default=None,
                    help="existing service (default: embedded server; "
                         "incompatible with --fleet)")
    py.add_argument("--fleet", action="store_true",
                    help="fleet mode: run the job matrix against local "
                         "fleets of 1..N worker processes, verify "
                         "bit-identical cells, restart the coordinator "
                         "to measure routing-cache affinity, SIGKILL one "
                         "lease holder mid-run to prove requeue, and "
                         "SIGTERM one to prove drain")
    py.add_argument("--clients", type=int, default=4)
    py.add_argument("--benchmarks", nargs="*", default=None,
                    metavar="NAME")
    py.add_argument("--config", default=None,
                    choices=[c.name for c in figure4_configs()],
                    help="restrict to one configuration")
    py.add_argument("--measure", type=int, default=None,
                    help="measured slice per cell (default: 4000, or "
                         "500 with --fleet)")
    py.add_argument("--warmup", type=int, default=None,
                    help="warm-up instructions per cell (default: 2000, "
                         "or 250 with --fleet)")
    py.add_argument("--seed", type=int, default=1)
    py.add_argument("--passes", type=int, default=2,
                    help=">= 2 exercises the result-store fast path "
                         "(ignored with --fleet)")
    py.add_argument("--workers", type=_worker_count, default=None,
                    metavar="N",
                    help="embedded-server pool size; with --fleet, the "
                         "largest fleet's node count (default: 3)")
    py.add_argument("--out", default=None,
                    help="record path (default: BENCH_service.json, or "
                         "BENCH_fleet.json with --fleet)")
    py.add_argument("--no-kill", action="store_true",
                    help="skip the fleet kill and drain tests (--fleet "
                         "only)")
    py.add_argument("--cell-delay-ms", type=float, default=None,
                    metavar="MS",
                    help="per-cell service-time floor of the fleet "
                         "scaling passes (default: 800; 0 measures raw "
                         "compute scaling - needs at least as many cores "
                         "as nodes)")
    py.add_argument("--min-speedup", type=float, default=None,
                    metavar="X",
                    help="exit non-zero unless the largest fleet's "
                         "throughput is at least X times the 1-worker "
                         "baseline (--fleet only; the CI gate)")
    py.set_defaults(func=_cmd_loadtest)

    pq = sub.add_parser(
        "explore",
        help="design-space auto-explorer: enumerate a config lattice, "
             "gate on CFG-* rules, prune with the analytic throughput "
             "pre-filter, simulate the survivors and write the ED/ED2P "
             "Pareto frontier to BENCH_explore.json")
    pq.add_argument("--lattice", default=None, metavar="FILE",
                    help="JSON lattice spec (axes: specializations, "
                         "clusters, registers, widths, steerings, "
                         "deadlocks, benchmarks; missing axes take the "
                         "defaults); default: the built-in 384-cell "
                         "lattice")
    pq.add_argument("--budget", type=int, default=16,
                    help="lattice cells granted simulation time; the "
                         "analytic Pareto frontier is never pruned even "
                         "past the budget")
    pq.add_argument("--no-prefilter", dest="prefilter",
                    action="store_false",
                    help="simulate every valid cell (ground-truth mode; "
                         "ignores --budget)")
    pq.add_argument("--rank", default="ed2p", choices=["ed", "ed2p"],
                    help="scalar ranking metric: energy-delay or "
                         "energy-delay-squared product")
    pq.add_argument("--measure", type=int, default=6_000,
                    help="measured slice length per cell")
    pq.add_argument("--warmup", type=int, default=4_000,
                    help="warm-up instructions per cell")
    pq.add_argument("--seed", type=int, default=1,
                    help="workload generator seed")
    pq.add_argument("--workers", type=_worker_count, default=None,
                    metavar="N",
                    help="parallel simulation processes (default: all "
                         "cores; 1 = serial determinism-debug path)")
    pq.add_argument("--out", default="BENCH_explore.json",
                    help="payload destination")
    pq.set_defaults(func=_cmd_explore)

    pf = sub.add_parser(
        "fleet",
        help="multi-node simulation fleet: a coordinator holding one "
             "backlog plus worker nodes that lease jobs from it")
    fleet_sub = pf.add_subparsers(dest="fleet_command", required=True)

    pfc = fleet_sub.add_parser(
        "serve-coordinator",
        help="run the fleet coordinator: client-facing /v1/jobs front "
             "door whose backlog workers lease jobs from, owner-first "
             "by consistent hash; expired leases are requeued")
    pfc.add_argument("--port", type=int, default=8788,
                     help="listen port (0 = OS-assigned, printed on "
                          "start)")
    _add_scheduler_args(
        pfc, backlog=256, quota=32,
        retry_help="requeues after lost leases before failing",
        store_help="authoritative result-store directory (replayed on "
                   "coordinator restart)")
    pfc.set_defaults(func=_cmd_fleet_coordinator)

    pfw = fleet_sub.add_parser(
        "serve-worker",
        help="run one worker node: the full single-host service stack "
             "on a fixed port, leasing jobs from the coordinator")
    pfw.add_argument("--port", type=int, required=True,
                     help="listen port; http://HOST:PORT is the node's "
                          "name on the coordinator's ring, so a "
                          "restarted node reclaims its keys")
    pfw.add_argument("--coordinator", default="http://127.0.0.1:8788",
                     metavar="URL",
                     help="coordinator to lease jobs from")
    pfw.add_argument("--workers", type=_worker_count, default=None,
                     metavar="N",
                     help="simulation worker processes (default: 2)")
    _add_scheduler_args(
        pfw, backlog=64,
        retry_help="requeues after pool-worker crashes before failing",
        store_help="worker-local result-store directory (the "
                   "routing-affinity cache)")
    pfw.add_argument("--cell-delay-ms", type=float, default=0.0,
                     metavar="MS",
                     help="per-cell service-time floor (the scaling "
                          "bench's queuing-station model; 0 = off)")
    pfw.set_defaults(func=_cmd_fleet_worker)

    pt = sub.add_parser("savetrace", help="freeze a workload to a file")
    pt.add_argument("benchmark", choices=sorted(PROFILES))
    pt.add_argument("output")
    pt.add_argument("--measure", type=int, default=100_000)
    pt.add_argument("--seed", type=int, default=1)
    pt.set_defaults(func=_cmd_savetrace)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except KeyboardInterrupt:
        print("interrupted", file=sys.stderr)
        return 130
    except Exception as exc:
        from repro.experiments.runner import ExperimentInterrupted

        if isinstance(exc, ExperimentInterrupted):
            # The pool is already drained; report the partial flush.
            print(f"interrupted: {len(exc.results)} cell(s) completed "
                  f"before shutdown", file=sys.stderr)
            return 130
        raise


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
