#!/usr/bin/env python3
"""Visualise the pipeline: where do cycles go on each organisation?

Runs a short daxpy kernel on the conventional round-robin machine and on
the WSRS machine with the structured pipeline tracer attached, prints
the first dispatch/issue/retire events of each stream and the trace
analyzer's summary, and compares mean dispatch->issue (wake-up/select)
wait - making the bypass co-location effect of section 4.3.1 visible
instruction by instruction.

Run:  python examples/pipeline_visualizer.py
"""

import os
import tempfile

from repro import baseline_rr_256, wsrs_rc
from repro.core.processor import Processor
from repro.isa.registers import isa_machine_config
from repro.obs.analyzer import format_summary, read_events, summarize
from repro.obs.tracer import PipelineTracer
from repro.trace.microbench import microbenchmark_trace

KERNEL = "daxpy"
SHOW = 24


def trace_machine(config, label: str, directory: str) -> float:
    """Trace one run; print its first events and summary; return the
    mean dispatch->issue wait in cycles."""
    path = os.path.join(directory, f"{label.split()[0].lower()}.jsonl")
    trace = microbenchmark_trace(KERNEL, n=48)
    with PipelineTracer(path) as tracer:
        processor = Processor(isa_machine_config(config), trace,
                              tracer=tracer)
        tracer.close(processor.run(measure=200))
    print(f"=== {label}")
    events = [event for event in read_events(path)
              if event["t"] in ("D", "I", "R")]
    for event in events[:SHOW]:
        where = f" C{event['cl']}" if "cl" in event else ""
        op = f" {event['op']}" if "op" in event else ""
        print(f"  cycle {event['c']:>4d}  {event['t']}  "
              f"#{event['q']:<4d}{where}{op}".rstrip())
    summary = summarize(path)
    print(format_summary(summary))
    print()
    return summary["mean_issue_wait"]


def main() -> None:
    print(f"Kernel: {KERNEL} (first {SHOW} pipeline events shown; "
          f"D dispatch, I issue, R retire)\n")
    with tempfile.TemporaryDirectory() as directory:
        base = trace_machine(baseline_rr_256(), "conventional round-robin",
                             directory)
        wsrs = trace_machine(wsrs_rc(512), "WSRS (RC policy)", directory)
    print(f"WSRS queueing delay vs round-robin: {wsrs - base:+.2f} cycles "
          f"(negative = WSRS issues sooner; dependants co-located with "
          f"their producers skip the inter-cluster forwarding cycle)")


if __name__ == "__main__":
    main()
