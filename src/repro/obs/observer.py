"""The observer: binds the registry, the CPI accountant and an optional
tracer to one :class:`~repro.core.processor.Processor`.

The processor calls the observer through the same five hook points as the
pipeline sanitizer (dispatch, issue, commit, cycle end, cycle skip), on
either gear: the reference stepper loops over ``Processor._hooks``, and
the specialized gear switches to its hooked variant (with no hooks
attached the reference stepper loops over an empty tuple and the
specialized gear runs its hook-free variant).  With it on, the observer
only *reads* public simulator state (it never draws randomness, never
mutates machine state, never forces a code path), which is what makes the
layer bit-neutral; ``tests/test_obs_cpi.py`` pins the neutrality on every
section-5 configuration.

Gear invariance (identical snapshots under the specialized gear's
event-horizon jump) follows from the jump's own correctness argument:
the hooked stepper writes its hoisted state back before every cycle-end
and skip hook, and a jump only replaces cycles in which every quantity
the observer samples - ROB and scheduler occupancies, free-list depths,
outstanding stores, per-cycle bandwidth deltas (all zero) - is provably
frozen, so
:meth:`Observer.on_cycle_skip` records the frozen values once with
``weight=skipped`` instead of ``skipped`` times with weight 1.  The one
exception is the free-list depth under renaming implementation 1, which
keeps staging and recycling through the window; the renamer's
closed-form idle series supplies its per-cycle values instead.

The snapshot layout (all plain picklable data)::

    {
      "version": 1,
      "causes": {...},            # the CPI stack, sums to "cycles"
      "cycles": int,
      "counters": {...},          # gear-invariant registry counters
      "histograms": {...},        # gear-invariant registry histograms
      "steering": {...},          # per-cluster outcomes mirrored from stats
      "engine": {...},            # gear-SPECIFIC diagnostics (jump counts)
    }

Everything outside ``engine`` is identical between the reference stepper
and the specialized gear.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.obs.cpi import TRACKED_COUNTERS, CycleAccountant
from repro.obs.registry import ObsRegistry

#: Snapshot schema version (bumped on incompatible layout changes).
SNAPSHOT_VERSION = 1

#: Register-file ids of :mod:`repro.rename.renamer`, named locally so the
#: histogram series get readable prefixes.
_FILE_NAMES = ((0, "int"), (1, "fp"))


class Observer:
    """Per-run observability state, attached by ``Processor(observe=...)``."""

    def __init__(self, processor, tracer=None) -> None:
        self.processor = processor
        self.tracer = tracer
        self.registry = ObsRegistry()
        self.accountant = CycleAccountant()
        self._prev = self._snap()
        if tracer is not None:
            tracer.start_trace(processor.config)

    # -- counter snapshots -------------------------------------------------

    def _snap(self) -> Dict[str, int]:
        stats = self.processor.stats
        snap = {name: getattr(stats, name) for name in TRACKED_COUNTERS}
        snap["bypass"] = stats.bypass_edges_intra + stats.bypass_edges_inter
        return snap

    # -- pipeline hooks ----------------------------------------------------

    def on_dispatch(self, uop, cycle: int) -> None:
        self.registry.count(f"op_{uop.inst.op.name}")
        tracer = self.tracer
        if tracer is not None and tracer.active(cycle):
            tracer.emit({"t": "D", "c": cycle, "q": uop.seq,
                         "op": uop.inst.op.name, "cl": uop.cluster,
                         "sw": int(uop.swapped)})

    def on_issue(self, uop, cycle: int) -> None:
        self.registry.sample("issue_wait", cycle - uop.dispatch_cycle)
        tracer = self.tracer
        if tracer is not None and tracer.active(cycle):
            tracer.emit({"t": "I", "c": cycle, "q": uop.seq,
                         "cl": uop.cluster})

    def on_commit(self, uop, cycle: int) -> None:
        self.registry.sample("commit_wait", cycle - uop.issue_cycle)
        tracer = self.tracer
        if tracer is not None and tracer.active(cycle):
            tracer.emit({"t": "R", "c": cycle, "q": uop.seq})

    def on_cycle_end(self, cycle: int) -> None:
        """Classify the cycle that just executed and sample occupancies."""
        prev = self._prev
        now = self._snap()
        deltas = {name: now[name] - prev[name]
                  for name in TRACKED_COUNTERS}
        processor = self.processor
        cause = self.accountant.classify(deltas, processor.rob_head)
        self.accountant.charge(cause)
        self._sample_bandwidth(deltas, now["bypass"] - prev["bypass"], 1)
        self._sample_occupancy(1)
        self._prev = now

    def on_cycle_skip(self, cycle: int, horizon: int, stall: str) -> None:
        """Account a bulk-charged event-horizon window of dead cycles.

        Called after the specialized gear has bulk-charged its stall
        counter but before ``stats.cycles`` and the renamer advance;
        every sampled value below is frozen across the window
        (implementation-1 free lists excepted, whose series the renamer
        computes), so weighted records reproduce the reference stepper's
        per-cycle series exactly.
        """
        skipped = horizon - cycle
        processor = self.processor
        cause = self.accountant.jump_cause(stall, processor.rob_head)
        self.accountant.charge(cause, skipped)
        zero = {name: 0 for name in TRACKED_COUNTERS}
        self._sample_bandwidth(zero, 0, skipped)
        self._sample_occupancy(skipped, window=True)
        self._prev = self._snap()
        tracer = self.tracer
        if tracer is not None and tracer.active(cycle):
            tracer.emit({"t": "J", "c": cycle, "to": horizon,
                         "stall": stall})

    def on_measurement_reset(self) -> None:
        """Warm-up is over: restart every series from the zeroed stats."""
        self.registry.reset()
        self.accountant.reset()
        self._prev = self._snap()

    # -- sampling ----------------------------------------------------------

    def _sample_bandwidth(self, deltas: Dict[str, int], bypass: int,
                          weight: int) -> None:
        sample = self.registry.sample
        sample("commit_width", deltas["committed"], weight)
        sample("dispatch_width", deltas["dispatched"], weight)
        sample("issue_width", deltas["issued"], weight)
        sample("bypass_edges", bypass, weight)

    def _sample_occupancy(self, weight: int, window: bool = False) -> None:
        """Sample every occupancy, for one cycle or a skipped window."""
        processor = self.processor
        sample = self.registry.sample
        sample("rob_occupancy", processor.rob_occupancy, weight)
        sample("outstanding_stores",
               processor.memorder.outstanding_stores, weight)
        for scheduler in processor.schedulers:
            cluster = scheduler.cluster_id
            sample(f"cluster{cluster}_window", scheduler.inflight, weight)
            sample(f"cluster{cluster}_pending",
                   scheduler.pending_count, weight)
            sample(f"cluster{cluster}_ready",
                   scheduler.ready_count, weight)
        renamer = processor.renamer
        for file_id, prefix in _FILE_NAMES:
            series = (renamer.idle_free_counts(file_id, weight) if window
                      else [{depth: weight}
                            for depth in renamer.free_registers(file_id)])
            for subset, counts in enumerate(series):
                for depth, cycles in counts.items():
                    sample(f"{prefix}_free_subset{subset}", depth, cycles)

    # -- output ------------------------------------------------------------

    def snapshot(self) -> Dict[str, object]:
        """Plain-data summary of everything observed (picklable)."""
        processor = self.processor
        stats = processor.stats
        registry = self.registry.snapshot()
        return {
            "version": SNAPSHOT_VERSION,
            "causes": self.accountant.snapshot(),
            "cycles": self.accountant.total_cycles,
            "counters": registry["counters"],
            "histograms": registry["histograms"],
            "steering": {
                "cluster_allocated": list(stats.cluster_allocated),
                "cluster_issued": list(stats.cluster_issued),
                "swapped_forms": stats.swapped_forms,
                "bypass_edges_intra": stats.bypass_edges_intra,
                "bypass_edges_inter": stats.bypass_edges_inter,
                "groups_total": stats.groups_total,
                "groups_unbalanced": stats.groups_unbalanced,
            },
            "engine": {
                "gear": processor.gear,
                "horizon_jumps": processor.horizon_jumps,
                "horizon_cycles_skipped": processor.horizon_cycles_skipped,
            },
        }


def gear_invariant_view(snapshot: Dict[str, object]) -> Dict[str, object]:
    """The parts of a snapshot that must match across simulator gears.

    Everything except ``engine`` (the gear and its jump counts).  Used
    by the stacks driver's invariant check and by
    ``tests/test_obs_cpi.py``.
    """
    return {key: value for key, value in snapshot.items()
            if key != "engine"}
