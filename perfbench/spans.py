"""In-memory spans around the public entry points of each layer.

The traced run times every layer from outside: :func:`install` replaces
each layer's public entry point (``TraceCache.get``, ``Processor(...)``,
``Processor.run``, ``runner.execute``/``warm_trace_cache``/
``execute_many``, the explorer's ``plan``/``frontier_payload``,
``ServiceClient.submit``/``job`` and ``ResultStore.put``) with a wrapper
that records a :class:`Span` and calls the original; :func:`uninstall`
puts the originals back.  Nothing inside ``src/`` is edited.

Spans recorded inside process-pool workers travel back with their
results: the wrapped cell entry point (:func:`traced_execute`) attaches
them to the :class:`~repro.experiments.runner.RunResult` it returns, and
the parent-side wrappers of ``execute_many`` and ``job_payload`` collect
them.  Timestamps come from ``time.perf_counter_ns``, which is the
host-wide monotonic clock on Linux, so worker and parent spans share
one time axis.
"""

from __future__ import annotations

import itertools
import json
import os
import threading
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from typing import Callable, Dict, Iterator, List, Optional, Sequence

from repro.core.processor import Processor
from repro.experiments import runner
from repro.explore import explorer
from repro.service import jobs
from repro.service.client import ServiceClient
from repro.service.store import ResultStore
from repro.trace.cache import TraceCache

#: Attribute under which worker spans ride back on a RunResult.
_CARRIER = "perfbench_spans"


@dataclass
class Span:
    """One timed call: name, start/end (ns), parent span, job/cell id."""

    id: str
    name: str
    start: int
    end: int = 0
    parent: Optional[str] = None
    ident: Optional[str] = None
    attrs: Dict[str, object] = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return (self.end - self.start) / 1e9


class Recorder:
    """Keeps every span of one process in memory until the run ends."""

    def __init__(self) -> None:
        self.owner_pid = os.getpid()
        self.spans: List[Span] = []
        self._ids = itertools.count()
        self._local = threading.local()

    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str, ident: Optional[str] = None,
             parent: Optional[str] = None,
             root: bool = False) -> Iterator[Span]:
        """Time the body; nests under the thread's innermost open span
        unless ``parent`` is given or ``root`` is set."""
        stack = self._stack()
        if parent is None and stack and not root:
            parent = stack[-1].id
            ident = ident if ident is not None else stack[-1].ident
        span = Span(id=f"{os.getpid()}:{next(self._ids)}", name=name,
                    start=time.perf_counter_ns(), parent=parent,
                    ident=ident)
        stack.append(span)
        try:
            yield span
        finally:
            span.end = time.perf_counter_ns()
            stack.pop()
            self.spans.append(span)

    def adopt(self, results: Sequence[object],
              parent: Optional[str]) -> None:
        """Take over the spans that pool workers attached to results;
        their root spans hang under ``parent``."""
        for result in results:
            carried = getattr(result, _CARRIER, None)
            if not carried:
                continue
            delattr(result, _CARRIER)
            for span in carried:
                if span.parent is None:
                    span.parent = parent
                self.spans.append(span)

    def dump(self, path: str) -> None:
        """Write every span as one JSON object per line."""
        with open(path, "w", encoding="utf-8") as handle:
            for span in sorted(self.spans, key=lambda s: s.start):
                handle.write(json.dumps(asdict(span)) + "\n")


#: The recorder the installed wrappers write to (None when not traced).
#: Module-level because the cell wrapper must be a picklable top-level
#: function; forked pool workers inherit it.
_active: Optional[Recorder] = None
_originals: Dict[tuple, Callable] = {}


def cell_id(spec) -> str:
    """Stable id of one simulated cell (benchmark, config, trace seed)."""
    return f"{spec.benchmark}/{spec.config.name}/{spec.seed}"


def traced_execute(spec):
    """``runner.execute`` inside a span; the pool's cell entry point."""
    recorder = _active
    original = _originals[(runner, "execute")]
    in_worker = os.getpid() != recorder.owner_pid
    mark = len(recorder.spans)
    with recorder.span("experiments.cell", ident=cell_id(spec),
                       root=in_worker):
        result = original(spec)
    if in_worker:
        setattr(result, _CARRIER, recorder.spans[mark:])
        del recorder.spans[mark:]
    return result


def _wrap(owner, name: str, make: Callable[[Callable], Callable]) -> None:
    original = getattr(owner, name)
    _originals[(owner, name)] = original
    setattr(owner, name, make(original))


def _timed(span_name: str):
    def make(original):
        def wrapper(*args, **kwargs):
            with _active.span(span_name):
                return original(*args, **kwargs)
        return wrapper
    return make


def _trace_get(original):
    def get(self, profile_name, length, seed=1):
        misses = self.misses
        with _active.span("trace.get") as span:
            trace = original(self, profile_name, length, seed)
        span.attrs.update(miss=self.misses > misses, length=length)
        return trace
    return get


def _core_run(original):
    def run(self, measure, warmup=0):
        with _active.span("core.run") as span:
            stats = original(self, measure, warmup)
        span.attrs.update(gear=self.gear, cycles=self.cycle,
                          skipped=self.horizon_cycles_skipped,
                          insts=measure + warmup)
        return stats
    return run


def _sweep(original):
    def execute_many(specs, workers=None, progress=None):
        with _active.span("experiments.sweep") as span:
            results = original(specs, workers=workers, progress=progress)
        span.attrs["workers"] = min(runner.resolve_workers(workers),
                                    max(1, len(specs)))
        _active.adopt(results, span.id)
        return results
    return execute_many


def _job_payload(original):
    def job_payload(request, results):
        _active.adopt(results, None)
        return original(request, results)
    return job_payload


def install(recorder: Recorder) -> None:
    """Route every layer entry point through ``recorder``."""
    global _active
    if _active is not None:
        raise RuntimeError("spans already installed")
    _active = recorder
    _wrap(TraceCache, "get", _trace_get)
    _wrap(Processor, "__init__", _timed("core.build"))
    _wrap(Processor, "run", _core_run)
    _wrap(runner, "execute", lambda original: traced_execute)
    _wrap(runner, "warm_trace_cache", _timed("experiments.warm"))
    _wrap(runner, "execute_many", _sweep)
    # The explorer imported these names; patch its references too.
    _wrap(explorer, "execute_many", _sweep)
    _wrap(explorer, "plan", _timed("explore.plan"))
    _wrap(explorer, "frontier_payload", _timed("explore.payload"))
    _wrap(jobs, "job_payload", _job_payload)
    _wrap(ServiceClient, "submit", _timed("service.submit"))
    _wrap(ServiceClient, "job", _timed("service.poll"))
    _wrap(ResultStore, "put", _timed("service.store_put"))


def uninstall() -> None:
    """Put every original entry point back."""
    global _active
    for (owner, name), original in _originals.items():
        setattr(owner, name, original)
    _originals.clear()
    _active = None


@contextmanager
def traced(recorder: Recorder) -> Iterator[Recorder]:
    install(recorder)
    try:
        yield recorder
    finally:
        uninstall()


# -- analysis --------------------------------------------------------------


def _union_ns(intervals: List[tuple]) -> int:
    total, end = 0, None
    for lo, hi in sorted(intervals):
        if end is None or lo > end:
            total += hi - lo
            end = hi
        elif hi > end:
            total += hi - end
            end = hi
    return total


def self_seconds(spans: Sequence[Span]) -> Dict[str, float]:
    """Self time per span id: its duration minus the part of it that
    its child spans cover (children may overlap across workers)."""
    children: Dict[str, List[tuple]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append(
                (span.start, span.end))
    result = {}
    for span in spans:
        clipped = [(max(lo, span.start), min(hi, span.end))
                   for lo, hi in children.get(span.id, ())
                   if hi > span.start and lo < span.end]
        result[span.id] = (span.end - span.start - _union_ns(clipped)) / 1e9
    return result


def coverage(spans: Sequence[Span], root: Span) -> float:
    """Share of ``root``'s wall time covered by its direct children."""
    intervals = [(s.start, s.end) for s in spans if s.parent == root.id]
    return _union_ns(intervals) / max(1, root.end - root.start)
