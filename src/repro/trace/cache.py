"""Keyed caching of synthetic traces.

Every experiment cell re-runs the same (profile, length, seed) workload:
a Figure 4 sweep simulates each benchmark on six configurations, so five
of the six synthetic-trace generations are pure waste.  This module
caches the instruction stream under the key

    (profile_name, length, seed, generator_version)

Each entry is a :class:`TraceEntry`.  A run asks for ``warmup +
measure + TRACE_SLACK`` instructions but reads only ``warmup +
measure`` plus the few hundred its pipeline holds in flight when the
measured slice ends.  So a miss materialises an **eager prefix** of
``length - TRACE_SLACK`` instructions and keeps the paused generator;
the **slack tail** is generated on demand, in small chunks under a
lock, appended to the shared entry, and never grows past ``length``.
The generator never looks ahead, so every iterator over an entry yields
exactly the stream a full ``length``-instruction generation would,
trace end included.

Two storage tiers:

* an **in-process LRU** (default: :data:`DEFAULT_CAPACITY` traces) - the
  tier that matters for sweeps.  With the ``fork`` start method the
  parallel experiment engine (:mod:`repro.experiments.runner`) pre-warms
  this cache *before* spawning workers, so every worker inherits each
  eager prefix through copy-on-write pages, together with the paused
  generator state; a worker that reads into the slack extends its own
  copy of the tail;
* an optional **on-disk pickle cache** (``WSRS_TRACE_CACHE`` environment
  variable, or ``configure(disk_dir=...)``) that persists traces across
  interpreter runs and is shared between concurrent worker processes.
  It writes and reads full-length tuples, so a miss with a disk tier
  materialises the whole trace.

Each entry also memoizes its **branch outcomes**: one
:class:`BranchOutcomes` per predictor kind, the predicted direction of
every branch in trace order.  The front end trains its predictor at
fetch, in trace order, with no wrong path (:mod:`repro.frontend.fetch`),
so the direction predicted for branch *k* depends on the trace and the
predictor kind only, never on the machine.  The first run to reach
branch *k* resolves it on the memo's one live predictor; every other
run on the entry - any configuration, either gear - replays it from
the memo through its own :class:`BranchReplay`.  Like the tail, the
memo grows under the fork-safe lock, and a forked worker extends its
own copy; it is dropped with its entry.

``generator_version`` is :data:`repro.trace.synthetic.GENERATOR_VERSION`;
bumping it invalidates every cached trace, so a stale disk cache can
never silently feed an old workload to a new simulator.  The simulator
never mutates trace instructions, so one entry can back any number of
concurrent simulations.
"""

from __future__ import annotations

import os
import pickle
import threading
from collections import OrderedDict
from itertools import chain, islice
from typing import Dict, Iterator, List, Optional, Tuple

from repro.atomicio import atomic_write_pickle
from repro.frontend.predictors import BranchPredictor, make_predictor
from repro.trace.model import TraceInstruction
from repro.trace.profiles import get_profile
from repro.trace.synthetic import GENERATOR_VERSION, SyntheticTraceGenerator

#: Default number of materialised traces the in-process LRU retains.
DEFAULT_CAPACITY = 8

#: Environment variable naming the on-disk cache directory (optional).
DISK_ENV = "WSRS_TRACE_CACHE"

#: Instructions a run requests beyond warmup+measure so the pipeline
#: drains without exhausting the trace early.  A cache entry generates
#: this tail lazily: runs read only their in-flight overrun of it.
TRACE_SLACK = 8_192

#: Tail instructions generated per extension of an entry.
_TAIL_CHUNK = 256

#: Guards every entry's tail and branch-outcome extension.  Held across
#: fork, so a child never inherits a generator or a live predictor that
#: another thread was advancing.
_TAIL_LOCK = threading.Lock()
if hasattr(os, "register_at_fork"):
    os.register_at_fork(before=_TAIL_LOCK.acquire,
                        after_in_parent=_TAIL_LOCK.release,
                        after_in_child=_TAIL_LOCK.release)

Key = Tuple[str, int, int, int]


def trace_key(profile_name: str, length: int, seed: int) -> Key:
    """The full cache key for one workload request."""
    return (profile_name, length, seed, GENERATOR_VERSION)


class BranchOutcomes:
    """The predicted directions of one trace's branches, one kind.

    ``predicted[k]`` is 1 when the predictor predicts branch *k* of the
    trace taken.  ``live`` is the predictor that has resolved branches
    ``0 .. len(predicted) - 1``, in order; :meth:`extend` feeds it the
    next one.
    """

    __slots__ = ("predicted", "live")

    def __init__(self, kind: str) -> None:
        self.predicted = bytearray()
        self.live = make_predictor(kind)

    def extend(self, k: int, pc: int, taken: bool) -> bool:
        """The direction of branch ``k``, resolving it if no run has."""
        with _TAIL_LOCK:
            predicted = self.predicted
            if k == len(predicted):
                predicted.append(self.live.resolve(pc, taken))
            return predicted[k] == 1


class BranchReplay(BranchPredictor):
    """One run's predictor: replays a :class:`BranchOutcomes` memo.

    The front end calls :meth:`resolve` once per branch, in trace order,
    so the k-th call is branch *k*: it returns the memoized direction,
    or resolves the branch on the memo's live predictor when this run
    is the first to reach it.  Only ``resolve`` is supported.
    """

    def __init__(self, outcomes: BranchOutcomes) -> None:
        self._outcomes = outcomes
        self._predicted = outcomes.predicted
        self._next = 0

    def resolve(self, pc: int, taken: bool) -> bool:
        k = self._next
        self._next = k + 1
        if k < len(self._predicted):
            return self._predicted[k] == 1
        return self._outcomes.extend(k, pc, taken)


class TraceEntry:
    """One cached trace: an eager prefix and a lazily generated tail.

    ``len()`` is the requested length.  Iterating yields that many
    instructions, the same ones a full generation yields; the tail is
    generated the first time any iterator reaches it.  The entry also
    holds the trace's :class:`BranchOutcomes`, one per predictor kind.
    """

    __slots__ = ("length", "_prefix", "_tail", "_source", "_outcomes")

    def __init__(self, prefix: Tuple[TraceInstruction, ...], length: int,
                 source: Optional[Iterator[TraceInstruction]] = None
                 ) -> None:
        self.length = length
        self._prefix = prefix
        self._tail: List[TraceInstruction] = []
        #: The paused generator that yields the tail; None once done.
        self._source = source if len(prefix) < length else None
        self._outcomes: Dict[str, BranchOutcomes] = {}

    def __len__(self) -> int:
        return self.length

    def __iter__(self) -> Iterator[TraceInstruction]:
        if self._source is None:
            return chain(self._prefix, self._tail)
        return chain(self._prefix, self._iter_tail())

    @property
    def generated(self) -> int:
        """Instructions materialised so far (prefix plus tail)."""
        return len(self._prefix) + len(self._tail)

    def _iter_tail(self) -> Iterator[TraceInstruction]:
        tail = self._tail
        position = 0
        while position < len(tail) or self._extend(position):
            yield tail[position]
            position += 1

    def _extend(self, position: int) -> bool:
        """Generate the tail past ``position``; False at the trace end."""
        with _TAIL_LOCK:
            tail = self._tail
            if position >= len(tail) and self._source is not None:
                tail.extend(islice(self._source, _TAIL_CHUNK))
                if len(self._prefix) + len(tail) >= self.length:
                    self._source = None
            return position < len(tail)

    def outcomes(self, kind: str) -> BranchOutcomes:
        """This trace's branch-outcome memo for predictor ``kind``."""
        with _TAIL_LOCK:
            memo = self._outcomes.get(kind)
            if memo is None:
                memo = self._outcomes[kind] = BranchOutcomes(kind)
            return memo


class TraceCache:
    """Two-tier (memory LRU + optional disk) cache of generated traces."""

    def __init__(self, capacity: int = DEFAULT_CAPACITY,
                 disk_dir: Optional[str] = None) -> None:
        self.capacity = max(1, capacity)
        self.disk_dir = disk_dir
        self._entries: "OrderedDict[Key, TraceEntry]" = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.disk_hits = 0

    # -- lookup ----------------------------------------------------------

    def get(self, profile_name: str, length: int,
            seed: int = 1) -> TraceEntry:
        """The trace for a key, generating its eager prefix on a miss."""
        key = trace_key(profile_name, length, seed)
        entry = self._entries.get(key)
        if entry is not None:
            self.hits += 1
            self._entries.move_to_end(key)
            return entry
        trace = self._load_disk(key)
        source = None
        if trace is not None:
            self.disk_hits += 1
        else:
            self.misses += 1
            source = SyntheticTraceGenerator(
                get_profile(profile_name), seed).generate(length)
            # The disk tier stores whole traces; a memory-only entry
            # leaves the slack tail to the runs that read into it.
            eager = length if self.disk_dir else max(0, length - TRACE_SLACK)
            trace = tuple(islice(source, eager))
            self._store_disk(key, trace)
        entry = TraceEntry(trace, length, source)
        self._entries[key] = entry
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)
        return entry

    def __contains__(self, key: Key) -> bool:
        return key in self._entries

    def __len__(self) -> int:
        return len(self._entries)

    def clear(self) -> None:
        """Drop every in-memory entry (disk files are left in place)."""
        self._entries.clear()

    # -- disk tier -------------------------------------------------------

    def _disk_path(self, key: Key) -> Optional[str]:
        if not self.disk_dir:
            return None
        profile_name, length, seed, version = key
        return os.path.join(
            self.disk_dir, f"{profile_name}-{length}-{seed}-v{version}.pkl")

    def _load_disk(self, key: Key) -> Optional[Tuple[TraceInstruction, ...]]:
        path = self._disk_path(key)
        if path is None or not os.path.exists(path):
            return None
        try:
            with open(path, "rb") as handle:
                trace = pickle.load(handle)
        except (OSError, pickle.UnpicklingError, EOFError,
                AttributeError, ImportError):
            return None  # corrupt or stale file: regenerate
        if not isinstance(trace, tuple) or len(trace) != key[1]:
            return None
        return trace

    def _store_disk(self, key: Key,
                    trace: Tuple[TraceInstruction, ...]) -> None:
        path = self._disk_path(key)
        if path is None:
            return
        # Unique-temp-file + os.replace (repro.atomicio): concurrent
        # workers - including threads sharing one pid - publishing the
        # same key never read a torn file and never truncate each
        # other's in-progress temp file.
        try:
            atomic_write_pickle(path, trace)
        except OSError:
            pass  # disk tier is best-effort; the memory tier has it


# -- module-level default cache ------------------------------------------

_default_cache: Optional[TraceCache] = None


def default_cache() -> TraceCache:
    """The process-wide cache (created lazily; honours ``WSRS_TRACE_CACHE``)."""
    global _default_cache
    if _default_cache is None:
        _default_cache = TraceCache(disk_dir=os.environ.get(DISK_ENV))
    return _default_cache


def configure(capacity: int = DEFAULT_CAPACITY,
              disk_dir: Optional[str] = None) -> TraceCache:
    """Replace the process-wide cache with a freshly parameterised one."""
    global _default_cache
    _default_cache = TraceCache(capacity=capacity, disk_dir=disk_dir)
    return _default_cache


def cached_spec_trace(name: str, count: int,
                      seed: int = 1) -> Iterator[TraceInstruction]:
    """Drop-in for :func:`repro.trace.profiles.spec_trace`, cache-backed.

    Returns a fresh iterator over the shared cache entry, so every
    caller consumes an identical stream.
    """
    return iter(default_cache().get(name, count, seed))
