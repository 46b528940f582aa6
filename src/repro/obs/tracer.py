"""Structured JSONL pipeline event trace (opt-in, sampled, gzip-able).

:class:`PipelineTracer` streams one JSON object per line to a file while
a simulation runs.  The stream is schema-versioned (``SCHEMA_VERSION``)
and deliberately tiny - five event types with single-letter tags - so a
100 K-instruction window stays in the tens of megabytes uncompressed and
a couple of megabytes gzipped (any path ending in ``.gz`` is compressed
transparently).

Event schema (version 1)::

    {"t": "H", "v": 1, "config": ..., "clusters": N,
     "start": S, "window": W, "every": E}        # header, first line
    {"t": "D", "c": cyc, "q": seq, "op": name,
     "cl": cluster, "sw": 0|1}                   # dispatch/rename
    {"t": "I", "c": cyc, "q": seq, "cl": cluster}  # issue
    {"t": "R", "c": cyc, "q": seq}               # retire/commit
    {"t": "J", "c": cyc, "to": horizon, "stall": tag}  # event-horizon jump
    {"t": "E", "cycles": ..., "committed": ...}  # trailer, last line

Sampling is by cycle window: ``start`` delays the first sample,
``window`` bounds how many consecutive cycles are recorded, and
``every`` repeats a ``window``-cycle sample at that period (a classic
sampled-simulation shape).  The tracer only *observes* - dispatch,
issue and commit never happen inside an event-horizon dead window, so
``D``/``I``/``R`` streams are identical between the reference and the
specialized gear; ``J`` records are the specialized gear's jump
diagnostics by nature (:mod:`repro.obs.analyzer` treats them as engine
metadata).

Use it as a context manager around the simulation it observes::

    with PipelineTracer("run.jsonl.gz", start=10_000, window=2_000) as tr:
        Processor(config, trace, tracer=tr).run(measure=50_000)
"""

from __future__ import annotations

import gzip
import json
from typing import Optional

SCHEMA_VERSION = 1


class TraceSchemaError(ValueError):
    """The trace file does not match the supported schema."""


class PipelineTracer:
    """Writes a sampled pipeline event stream for one simulation."""

    def __init__(self, path: str, start: int = 0,
                 window: Optional[int] = None,
                 every: Optional[int] = None) -> None:
        if start < 0:
            raise ValueError(f"start must be >= 0, got {start}")
        if window is not None and window < 1:
            raise ValueError(f"window must be >= 1, got {window}")
        if every is not None:
            if window is None:
                raise ValueError("every= requires window=")
            if every < window:
                raise ValueError(
                    f"every ({every}) must be >= window ({window})")
        self.path = path
        self.start = start
        self.window = window
        self.every = every
        self.events_written = 0
        self._handle = None
        self._started = False

    # -- sampling ----------------------------------------------------------

    def active(self, cycle: int) -> bool:
        """Whether events at ``cycle`` fall inside a sampled window."""
        if cycle < self.start:
            return False
        if self.window is None:
            return True
        offset = cycle - self.start
        if self.every is not None:
            offset %= self.every
        return offset < self.window

    # -- lifecycle ---------------------------------------------------------

    def start_trace(self, config) -> None:
        """Open the output and write the header (idempotent)."""
        if self._started:
            return
        self._started = True
        if self.path.endswith(".gz"):
            self._handle = gzip.open(self.path, "wt", encoding="utf-8")
        else:
            self._handle = open(self.path, "w", encoding="utf-8")
        self.emit({"t": "H", "v": SCHEMA_VERSION, "config": config.name,
                   "clusters": config.num_clusters, "start": self.start,
                   "window": self.window, "every": self.every})

    def emit(self, event: dict) -> None:
        self._handle.write(json.dumps(event, separators=(",", ":")))
        self._handle.write("\n")
        self.events_written += 1

    def close(self, stats=None) -> None:
        """Write the trailer and release the file handle."""
        if self._handle is None:
            return
        trailer = {"t": "E"}
        if stats is not None:
            trailer["cycles"] = stats.cycles
            trailer["committed"] = stats.committed
        self.emit(trailer)
        self._handle.close()
        self._handle = None

    def __enter__(self) -> "PipelineTracer":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()
