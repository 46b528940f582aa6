"""Config-specialized stepper: the main loop's default gear.

The reference stepper (:meth:`repro.core.processor.Processor.step`)
re-consults the machine configuration on every cycle -
``config.front_width``, the forward-delay policy, subset routing, the
deadlock policy - although every one of those values is frozen for the
lifetime of a run.  This module applies the classic trace-based
*speculate / guard / commit* specialization pattern to the simulator
itself: given a frozen :class:`~repro.config.MachineConfig`,
:func:`build_specialized_runner` generates Python source for a run loop
with every configuration constant baked in as a literal, compiles it
once with :func:`compile`/``exec``, and returns the generated function,
which takes the :class:`~repro.core.processor.Processor` it runs as its
first argument.  Processors run on this gear unless the reference gear
is requested explicitly.

What the generated stepper bakes in
-----------------------------------

* widths and capacities (front/commit width, ROB size, per-cluster
  window), the cluster count and the per-cluster functional-unit mix;
* the forward-delay table (already precomputed by the processor) and
  the subset-routing arithmetic (``subset = cluster`` on a specialized
  machine, ``0`` on a conventional one) - the register-file layout
  constants the paper's whole argument is about;
* the deadlock policy: on ``"none"`` configurations the entire
  deadlock-move machinery vanishes from the generated code;
* the multiply/divide arbitration: private pipelined units generate no
  busy-tracking code at all.

It also flattens the per-cycle call tree (commit, wake/select, execute,
rename, wake-up computation and the event-horizon jump) into one
function frame with all hot state held in locals.  The jump detects
cycles where the machine provably does nothing but charge one stall
counter and moves the clock straight to the next event.  The scheduler
structures themselves are the event-driven ones of
:mod:`repro.core.issue_queue` - calendar buckets on the pending side,
an age-sorted in-place ready list, and the memory/muldiv parking lists
- mutated *in place*, so a fallback resumes on the very same objects
with no conversion step, and the inlined wake/select/release loops are
line-for-line the specialized rendering of the generic ones.

Hooks
-----

A processor with attached hooks (``Processor._hooks``: a pipeline
sanitizer, an observer/tracer, or both) runs a second, separately
cached variant of the generated source.  It calls every hook at the
reference stepper's dispatch, issue and commit sites, and before
``on_cycle_end`` and the jump's ``on_cycle_skip`` it writes the hoisted
locals back with the same text as the ``finally`` block, so the
hooks - which only read machine state - see exactly what the reference
stepper would show them.  The hook-free variant contains no hook code
at all.

Guards and the fallback contract
--------------------------------

Specialization *speculates* that the run stays inside the envelope the
code was generated for.  The one condition outside it is a
deadlock-breaking move (the mid-run guard).  The generated code executes
the move cycle with exactly the reference semantics (charge, debt
carry-over, ``stats.deadlock_moves``, the cycle-end hooks), finishes the
cycle, then returns control permanently to the reference stepper - no
cycle is lost or double-counted.  Outstanding move debt at entry (only
possible after such a trip) keeps the generated code out.

Both renaming implementations are inside the envelope.  Implementation
1 drives the renamer's :class:`~repro.rename.freelist.RotatingFreeList`
objects in place: ``begin_cycle``/``end_cycle`` around the rename stage
(in the reference order commit, issue, begin, rename, end), the staged
group as the availability test, ``take()``/``recycle()`` for rename
and commit, and the closed-form ``idle()`` over every jump.

The acceptance bar: every ``SimulationStats`` counter and per-cluster
histogram bit-identical to the reference stepper, on every section-5
configuration, with and without hooks (``tests/test_specialize.py``
pins this, plus a hypothesis property test over random
configurations).
"""

from __future__ import annotations

import bisect
from typing import Callable, Dict

from repro.config import MachineConfig
from repro.core.lsq import WORD_BYTES
from repro.core.processor import _PROGRESS_LIMIT, DeadlockedPipeline
from repro.core.uop import UNKNOWN_CYCLE, InFlightUop
from repro.trace.model import FP_CLASSES, OpClass

#: The two gears of the main loop, slowest to fastest.
GEARS = ("reference", "specialized")

#: Compiled stepper cache: generated source -> code object (the source
#: itself is a complete key - it embeds every baked constant and the
#: hooked/hook-free variant).
_CODE_CACHE: Dict[str, object] = {}

#: Name of the generated function - the stable analysis surface the
#: SPEC-EQUIV checker (repro.analyze.passes.spec_equiv) locates in the
#: generated AST.
SPECIALIZED_FUNC_NAME = "_specialized_run"

#: Names the compiled stepper resolves from its exec namespace; the
#: generated body may reference globals only from this closed set (plus
#: builtins) - anything else is codegen drift.
STEPPER_NAMESPACE = ("insort", "DeadlockedPipeline", "Uop",
                     "new_uop", "Fetched", "_FP", "OP_LOAD", "OP_STORE",
                     "OP_BRANCH", "OP_IMULDIV", "FWD")


def generated_source_filename(config: MachineConfig) -> str:
    """The pseudo-filename the generated stepper compiles under.

    Static-analysis findings against generated code report this as
    their path, so a finding names the configuration whose codegen
    diverged rather than a real file.
    """
    return f"<specialized:{config.name}>"


def _subset_exprs(config: MachineConfig):
    """Source expressions for subset routing, pruned per configuration."""
    if config.num_subsets > 1:
        return {
            "SUB": "cluster",
            "RET_INT": "pdest // %d" % config.int_subset_size,
            "RET_FP": "(pdest - %d) // %d" % (
                config.int_physical_registers, config.fp_subset_size),
            "FREE_INT": "pold // %d" % config.int_subset_size,
            "FREE_FP": "_local // %d" % config.fp_subset_size,
        }
    return {"SUB": "0", "RET_INT": "0", "RET_FP": "0",
            "FREE_INT": "0", "FREE_FP": "0"}


def generate_stepper_source(config: MachineConfig,
                            hooked: bool = False) -> str:
    """The specialized run-loop source for ``config`` (pure function).

    Exposed for tests and debugging: the returned text is what
    :func:`build_specialized_runner` compiles, with every configuration
    constant visible as a literal.  ``hooked`` selects the variant that
    calls the processor's hooks (see the module docstring).
    """
    cluster = config.cluster
    nc = config.num_clusters
    muldiv_tracked = (not config.pipelined_muldiv) or config.shared_muldiv
    unit_ci = "_ci // 2" if config.shared_muldiv else "_ci"
    sub = _subset_exprs(config)
    impl1 = config.rename_impl == 1
    cluster_range = tuple(range(nc))
    lat_size = max(int(op) for op in OpClass) + 1
    no_event = UNKNOWN_CYCLE
    progress_limit = _PROGRESS_LIMIT
    l1 = config.memory.l1
    l1_off = l1.line_bytes.bit_length() - 1
    l1_mask = l1.num_sets - 1
    l1_setbits = l1_mask.bit_length()

    if muldiv_tracked:
        localize_muldiv = "    busy_until = proc._muldiv_busy_until"
        if cluster.num_alus:
            parked_live = f"""\
                    if parked_mds[_ci] \\
                            and busy_until[{unit_ci}] <= cycle:
                        live = True
                        break"""
        else:  # no ALUs: an IMULDIV can never park
            parked_live = ""
        ready_alu = f"""\
                            if _u.inst.op == OP_IMULDIV:
                                if busy_until[{unit_ci}] <= cycle:
                                    live = True
                                    break
                            else:
                                live = True
                                break"""
        muldiv_horizon = """\
                for _b in busy_until:
                    if cycle < _b < horizon:
                        horizon = _b"""
        unpark_muldiv = f"""\
                    _pmd = parked_mds[_ci]
                    if _pmd and busy_until[{unit_ci}] <= cycle:
                        _r.extend(_pmd)
                        del _pmd[:]
                        _r.sort()"""
        muldiv_quota = f"""\
                    _mdq = busy_until[{unit_ci}] <= cycle"""
        alu_select = """\
                            if _alus:
                                if uop.inst.op == OP_IMULDIV:
                                    if _mdq:
                                        _mdq = False
                                        _alus -= 1
                                        _take = True
                                    else:
                                        _pmd.append(_entry)
                                        if _idx is None:
                                            _idx = [_i]
                                        else:
                                            _idx.append(_i)
                                else:
                                    _alus -= 1
                                    _take = True"""
        if not config.pipelined_muldiv:
            muldiv_exec = f"""\
                        if _op == OP_IMULDIV:
                            busy_until[{unit_ci}] = _rc"""
        else:  # pipelined but shared: one operation per cycle per pair
            muldiv_exec = f"""\
                        if _op == OP_IMULDIV:
                            busy_until[{unit_ci}] = cycle + 1"""
    else:
        localize_muldiv = ""
        parked_live = ""
        ready_alu = """\
                            live = True
                            break"""
        muldiv_horizon = ""
        unpark_muldiv = ""
        muldiv_quota = ""
        alu_select = """\
                            if _alus:
                                _alus -= 1
                                _take = True"""
        muldiv_exec = ""

    # Select: the budgeted age-ordered scan over the ready list.  On the
    # section-5 configurations the ready list holds a single entry on the
    # vast majority of non-empty visits, so when nothing is quota-tracked
    # and every unit class is present (a lone ready uop is then always
    # issuable) the scan is wrapped in a len==1 fast path.
    select_scan = f"""\
                    _budget = {cluster.issue_width}
                    _alus = {cluster.num_alus}
                    _lsus = {cluster.num_lsus}
                    _fpus = {cluster.num_fpus}
{muldiv_quota}
                    _n = len(_r)
                    _i = 0
                    _picked_uops = None
                    _idx = None
                    while _budget and _i < _n:
                        _entry = _r[_i]
                        uop = _entry[1]
                        _take = False
                        if uop.mem_index >= 0:
                            if _lsus:
                                _lsus -= 1
                                _take = True
                        elif uop.inst.op in _FP:
                            if _fpus:
                                _fpus -= 1
                                _take = True
                        else:
{alu_select}
                        if _take:
                            _budget -= 1
                            if _picked_uops is None:
                                _picked_uops = [uop]
                            else:
                                _picked_uops.append(uop)
                            if _idx is None:
                                _idx = [_i]
                            else:
                                _idx.append(_i)
                        _i += 1
                    if _idx is not None:
                        for _j in reversed(_idx):
                            del _r[_j]
                    if _picked_uops is None:
                        continue"""
    if (not muldiv_tracked and cluster.issue_width and cluster.num_alus
            and cluster.num_lsus and cluster.num_fpus):
        pick_block = (
            "                    if len(_r) == 1:\n"
            "                        _picked_uops = (_r[0][1],)\n"
            "                        del _r[0]\n"
            "                    else:\n"
            + "\n".join("    " + ln if ln.strip() else ln
                        for ln in select_scan.split("\n")))
    else:
        pick_block = select_scan

    # Steering: the paper's policies are baked straight into the loop.
    # Round-robin is pure arithmetic (its cursor is mirrored and written
    # back); the RC/RM policies of section 5.2.1 become inline subset
    # arithmetic over the localized map tables plus direct calls on the
    # allocator's own Random - the draw sequence is kept call-for-call
    # identical to the policy objects, so the allocation stream (and
    # with it every statistic) is bit-identical.  Anything else keeps
    # the ``allocate()`` call.
    def _steer_subset(var: str) -> str:
        """Inline ``renamer.subset_of_logical(var)``."""
        return ("(int_map[%s] // %d if %s < %d else fp_map[%s - %d] // %d)"
                % (var, config.int_subset_size, var,
                   config.int_logical_registers, var,
                   config.int_logical_registers, config.fp_subset_size))

    if config.allocation_policy == "round_robin":
        localize_alloc = "    rr_next = proc.allocator._next"
        writeback_alloc = "        proc.allocator._next = rr_next"
        alloc_block = f"""\
                        pending_decision = (rr_next, False)
                        rr_next += 1
                        if rr_next == {config.num_clusters}:
                            rr_next = 0"""
    elif config.allocation_policy == "random_commutative" and nc == 4:
        # RC: draw the form first (always), then dyadic is fully
        # determined, monadic draws one of the form's two clusters,
        # noadic draws uniformly (the form bit is discarded).
        localize_alloc = (
            "    rng_bits = proc.allocator.rng.getrandbits\n"
            "    rng_rand = proc.allocator.rng.randrange")
        writeback_alloc = ""
        alloc_block = f"""\
                        _as1 = inst.src1
                        _as2 = inst.src2
                        _ab = rng_bits(1)
                        if _as1 is not None and _as2 is not None:
                            if _ab:
                                _as1, _as2 = _as2, _as1
                            pending_decision = (
                                2 * ({_steer_subset('_as1')} >> 1)
                                + ({_steer_subset('_as2')} & 1),
                                _ab == 1)
                        elif _as1 is not None or _as2 is not None:
                            _aop = _as1 if _as1 is not None else _as2
                            _asub = {_steer_subset('_aop')}
                            if (_as1 is not None) != (_ab == 1):
                                pending_decision = (
                                    2 * (_asub >> 1) + rng_bits(1),
                                    _ab == 1)
                            else:
                                pending_decision = (
                                    (_asub & 1) + 2 * rng_bits(1),
                                    _ab == 1)
                        else:
                            pending_decision = (rng_rand(4), False)"""
    elif config.allocation_policy == "random_monadic" and nc == 4:
        # RM: dyadic is fully constrained (no draw), monadic draws the
        # free left/right or top/bottom bit, noadic draws uniformly.
        localize_alloc = "    rng_rand = proc.allocator.rng.randrange"
        writeback_alloc = ""
        alloc_block = f"""\
                        _as1 = inst.src1
                        _as2 = inst.src2
                        if _as1 is not None and _as2 is not None:
                            pending_decision = (
                                2 * ({_steer_subset('_as1')} >> 1)
                                + ({_steer_subset('_as2')} & 1), False)
                        elif _as1 is not None:
                            pending_decision = (
                                2 * ({_steer_subset('_as1')} >> 1)
                                + rng_rand(2), False)
                        elif _as2 is not None:
                            pending_decision = (
                                ({_steer_subset('_as2')} & 1)
                                + 2 * rng_rand(2), False)
                        else:
                            pending_decision = (rng_rand(4), False)"""
    else:
        localize_alloc = "    allocate = proc.allocator.allocate"
        writeback_alloc = ""
        alloc_block = """\
                        pending_decision = allocate(
                            inst, subset_of, inflights)"""

    # Free lists: implementation 2 pops and appends the plain FIFO
    # deques; implementation 1 drives the RotatingFreeList objects in
    # place - staged-group test, take(), commit-time recycle(), the
    # per-cycle begin/end around rename, and idle() over a jump.
    if impl1:
        localize_free = """\
    int_free = renamer.int_class.free_lists
    fp_free = renamer.fp_class.free_lists
    rotating = renamer._rotating
    rot_begin = [_f.begin_cycle for _f in rotating]
    rot_end = [_f.end_cycle for _f in rotating]"""
        free_op, take_op, staged = "recycle", "take", ".staged"
        begin_stage = f"""\
                for _f in rot_begin:
                    _f({config.front_width})
"""
        end_stage = """\
                for _f in rot_end:
                    _f()
"""
        idle_stage = f"""\
                for _f in rotating:
                    _f.idle({config.front_width}, skipped)
"""
    else:
        localize_free = """\
    int_free = [f._queue for f in renamer.int_class.free_lists]
    fp_free = [f._queue for f in renamer.fp_class.free_lists]"""
        free_op, take_op, staged = "append", "popleft", ""
        begin_stage = end_stage = idle_stage = ""

    policy = config.deadlock_policy
    # Only the "moves" policy can trip the mid-run guard, so only that
    # variant pays for the per-cycle check.  Tripping ends the cycle
    # normally (counters already advanced); the idle-progress bookkeeping
    # it skips lives in locals that are never written back.
    if policy == "moves":
        tripped_check = """\
                if tripped:
                    return False"""
    else:
        tripped_check = ""
    if policy == "none":
        deadlock_block = """\
                            stall_noreg += _budget
                            break"""
        deadlock_stats_sync = ""
    elif policy == "raise":
        deadlock_block = f"""\
                            renamer._maybe_handle_deadlock(
                                0 if dest < {config.int_logical_registers}
                                else 1, {sub['SUB']})
                            stall_noreg += _budget
                            break"""
        deadlock_stats_sync = ""
    elif impl1:
        # Implementation 1 renames only to this cycle's staged group,
        # which a deadlock move never refills, so the cycle always
        # stalls; moves still trip the guard, because the reference
        # publishes stats.deadlock_moves at the next rename.
        deadlock_block = f"""\
                            _mb = renamer.deadlock_moves
                            renamer._maybe_handle_deadlock(
                                0 if dest < {config.int_logical_registers}
                                else 1, {sub['SUB']})
                            if renamer.deadlock_moves != _mb:
                                tripped = True
                            stall_noreg += _budget
                            break"""
        deadlock_stats_sync = ""
    else:  # "moves": the mid-run guard - handle the cycle, then fall back
        deadlock_block = f"""\
                            _mb = renamer.deadlock_moves
                            renamer._maybe_handle_deadlock(
                                0 if dest < {config.int_logical_registers}
                                else 1, {sub['SUB']})
                            if not _q:
                                stall_noreg += _budget
                                break
                            _mv = renamer.deadlock_moves - _mb
                            if _mv:
                                _charged = _budget - 1
                                if _mv < _charged:
                                    _charged = _mv
                                _budget -= _charged
                                move_debt += _mv - _charged
                                stall_moves += _charged
                                tripped = True"""
        deadlock_stats_sync = """\
                    if tripped:
                        stats.deadlock_moves = (renamer.deadlock_moves
                                                - measured_base)"""

    # The ``finally`` writeback.  The hooked variant also runs it before
    # each cycle-boundary hook, so those hooks read current state; the
    # per-uop hooks read only the micro-op and state mutated in place.
    writeback = f'''\
        proc.cycle = cycle
        proc._seq = seq_counter
        proc._move_debt = move_debt
        proc._rename_blocked_until = rename_blocked_until
        proc._waiting_branch = waiting_branch
        proc._pending_decision = pending_decision
        proc.horizon_jumps = jumps
        proc.horizon_cycles_skipped = jump_skipped
        if pend_inst is None:
            frontend._pending = None
        else:
            frontend._pending = Fetched(pend_inst, pend_misp)
        frontend._exhausted = fe_exhausted
        frontend.branches = fe_branches
        frontend.mispredictions = fe_mispredicts
        frontend.delivered = delivered
        memory.loads = mem_loads
        memory.stores = mem_stores
        memory.l1.hits = l1_hits
{writeback_alloc}
        memorder._issued_upto = issued_upto
        memorder._next_index = next_mem_index
        renamer.renamed = renamed
        renamer.reg_stalls = reg_stalls
        for _ci in {cluster_range}:
            schedulers[_ci].inflight = inflights[_ci]
            schedulers[_ci]._pending_size = sum(
                map(len, buckets[_ci].values()))
        balance._filled = bfilled
        balance.groups_total = bt_total
        balance.groups_unbalanced = bt_unb
        stats.groups_total = sg_total
        stats.groups_unbalanced = sg_unb
        stats.cycles = cycles
        stats.committed = committed
        stats.dispatched = dispatched
        stats.issued = issued
        stats.branches = branches
        stats.mispredictions = mispredictions
        stats.loads = loads
        stats.stores = stores
        stats.store_forwards = store_forwards
        stats.bypass_edges_intra = bypass_intra
        stats.bypass_edges_inter = bypass_inter
        stats.l1_misses = l1_misses
        stats.l2_misses = l2_misses
        stats.stall_rob_full = stall_rob
        stats.stall_cluster_full = stall_cluster
        stats.stall_no_register = stall_noreg
        stats.stall_branch_penalty = stall_branch
        stats.stall_deadlock_moves = stall_moves
        stats.swapped_forms = swapped_forms
'''
    if hooked:
        entry_guard = "    if proc._move_debt:"
        localize_hooks = "    hooks = proc._hooks\n"
        commit_hooks = """\
                        for _h in hooks:
                            _h.on_commit(uop, cycle)
"""
        issue_hooks = """\
                        for _h in hooks:
                            _h.on_issue(uop, cycle)
"""
        dispatch_hooks = """
                    for _h in hooks:
                        _h.on_dispatch(uop, cycle)"""
        synced = "".join("        " + line if line.strip() else line
                         for line in writeback.splitlines(True))
        cycle_end_hooks = synced + """\
                for _h in hooks:
                    _h.on_cycle_end(cycle)
"""
        skip_hooks = """\
                _stall_tag = ("branch", "rob", "cluster", "exhausted")[stall]
""" + synced + """\
                for _h in hooks:
                    _h.on_cycle_skip(cycle, horizon, _stall_tag)
"""
    else:
        entry_guard = """\
    if proc.sanitizer is not None or proc.obs is not None \\
            or proc._move_debt:"""
        localize_hooks = commit_hooks = issue_hooks = dispatch_hooks = ""
        cycle_end_hooks = skip_hooks = ""

    src = f'''\
def _specialized_run(proc, committed_target):
    """Specialized run loop for configuration {config.name!r}.

    Returns True when the target was reached (or the trace drained)
    entirely inside the specialized envelope; False when a guard
    tripped and the caller must continue on the generic gears.  All
    machine state is written back either way (try/finally), so a
    fallback resumes mid-run without divergence.
    """
{entry_guard}
        return False
    stats = proc.stats
{localize_hooks}    renamer = proc.renamer
    frontend = proc.frontend
    trace_iter = frontend._trace
    resolve = frontend.predictor.resolve
    _fetched = frontend._pending
    if _fetched is None:
        pend_inst = None
        pend_misp = False
    else:
        pend_inst = _fetched.inst
        pend_misp = _fetched.mispredicted
    fe_exhausted = frontend._exhausted
    fe_branches = frontend.branches
    fe_mispredicts = frontend.mispredictions
    delivered = frontend.delivered
{localize_alloc}
    subset_of = renamer.subset_of_logical
    memorder = proc.memorder
    memory = proc.memory
    mem_miss = memory.access_after_l1_miss
    l1_sets = memory.l1._sets
    l1_hits = memory.l1.hits
    mem_loads = memory.loads
    mem_stores = memory.stores
    schedulers = proc.schedulers
    # The event-driven scheduler structures, shared *in place*: calendar
    # buckets (wake cycle -> entry list) with a sorted key list on the
    # pending side, the age-sorted ready list, and the memory/muldiv
    # parking lists.  A fallback resumes on the same objects; the
    # per-cluster pending-size counters are recomputed at write-back.
    buckets = [s._buckets for s in schedulers]
    bkeys = [s._bucket_keys for s in schedulers]
    readys = [s._ready for s in schedulers]
    parked_mems = [s._parked_mem for s in schedulers]
    parked_mds = [s._parked_muldiv for s in schedulers]
    mo_parked = memorder._parked
    inflights = [s.inflight for s in schedulers]
    rob = proc._rob
    rob_popleft = rob.popleft
    rob_append = rob.append
    reg_result = proc._reg_result
    reg_cluster = proc._reg_cluster
    reg_waiters = proc._reg_waiters
    waiters_pop = reg_waiters.pop
    waiters_get = reg_waiters.get
    int_map = renamer.int_class.map_table._map
    fp_map = renamer.fp_class.map_table._map
{localize_free}
    int_out = renamer.int_class.outstanding_writes
    fp_out = renamer.fp_class.outstanding_writes
    store_words = memorder._store_words
    store_by_seq = memorder._store_by_seq
    store_get = store_words.get
    fwd_rows = FWD
    LAT = [0] * {lat_size}
    for _op, _lat in proc._latencies.items():
        LAT[_op] = _lat
{localize_muldiv}
    balance = stats._balance
    bcounts = balance._counts
    bfilled = balance._filled
    bgroup = balance.group_size
    blow = balance.low
    bhigh = balance.high
    bkeep = balance._keep_groups
    bgroups = balance.groups
    bt_total = balance.groups_total
    bt_unb = balance.groups_unbalanced
    sg_total = stats.groups_total
    sg_unb = stats.groups_unbalanced
    cluster_allocated = stats.cluster_allocated
    cluster_issued = stats.cluster_issued

    cycle = proc.cycle
    seq_counter = proc._seq
    move_debt = 0
    rename_blocked_until = proc._rename_blocked_until
    waiting_branch = proc._waiting_branch
    pending_decision = proc._pending_decision
    jumps = proc.horizon_jumps
    jump_skipped = proc.horizon_cycles_skipped
    issued_upto = memorder._issued_upto
    next_mem_index = memorder._next_index
    renamed = renamer.renamed
    reg_stalls = renamer.reg_stalls
    measured_base = proc._measured_moves_base

    cycles = stats.cycles
    committed = stats.committed
    dispatched = stats.dispatched
    issued = stats.issued
    branches = stats.branches
    mispredictions = stats.mispredictions
    loads = stats.loads
    stores = stats.stores
    store_forwards = stats.store_forwards
    bypass_intra = stats.bypass_edges_intra
    bypass_inter = stats.bypass_edges_inter
    l1_misses = stats.l1_misses
    l2_misses = stats.l2_misses
    stall_rob = stats.stall_rob_full
    stall_cluster = stats.stall_cluster_full
    stall_noreg = stats.stall_no_register
    stall_branch = stats.stall_branch_penalty
    stall_moves = stats.stall_deadlock_moves
    swapped_forms = stats.swapped_forms

    tripped = False
    idle_events = 0
    last_committed = committed
    try:
        while committed < committed_target:
            if fe_exhausted and pend_inst is None and not rob:
                break

            # -- event-horizon jump detection (inlined _try_jump) ------
            live = False
            if rob and rob[0].result_cycle <= cycle:
                live = True
            else:
                wake = {no_event}
                for _k in bkeys:
                    if _k:
                        _w = _k[0]
                        if _w <= cycle:
                            live = True
                            break
                        if _w < wake:
                            wake = _w
            if not live:
                if waiting_branch is not None \\
                        or cycle < rename_blocked_until:
                    stall = 0
                elif len(rob) >= {config.rob_size}:
                    stall = 1
                else:
                    if pend_inst is None and not fe_exhausted:
                        inst = next(trace_iter, None)
                        if inst is None:
                            fe_exhausted = True
                        else:
                            pend_misp = False
                            if inst.op == OP_BRANCH:
                                fe_branches += 1
                                if resolve(inst.pc, inst.taken) \\
                                        != inst.taken:
                                    pend_misp = True
                                    fe_mispredicts += 1
                            pend_inst = inst
                    if pend_inst is None:
                        if not rob:
                            live = True
                        else:
                            stall = 3
                    elif pending_decision is None:
                        live = True
                    elif inflights[pending_decision[0]] \\
                            >= {cluster.max_inflight}:
                        stall = 2
                    else:
                        live = True
            if not live:
                # Parked memory ops are ignorable: nothing issues in a
                # dead window, so no release can fire before the next
                # live cycle.  A parked IMULDIV only matters at its
                # unit's release cycle - a horizon candidate below.
                for _ci in {cluster_range}:
{parked_live}
                    for _entry in readys[_ci]:
                        _u = _entry[1]
                        if _u.mem_index >= 0:
                            if {cluster.num_lsus}:
                                live = True
                                break
                        elif _u.inst.op in _FP:
                            if {cluster.num_fpus}:
                                live = True
                                break
                        elif {cluster.num_alus}:
{ready_alu}
                    if live:
                        break

            if live:
                # -- commit (inlined) ----------------------------------
                if rob:
                    _n = {config.commit_width}
                    while rob:
                        uop = rob[0]
                        if uop.result_cycle > cycle:
                            break
                        rob_popleft()
{commit_hooks}                        pdest = uop.pdest
                        if pdest is not None:
                            if pdest < {config.int_physical_registers}:
                                int_out[{sub['RET_INT']}] -= 1
                            else:
                                fp_out[{sub['RET_FP']}] -= 1
                        pold = uop.pold
                        if pold is not None:
                            if pold < {config.int_physical_registers}:
                                int_free[{sub['FREE_INT']}].{free_op}(pold)
                            else:
                                _local = (pold
                                          - {config.int_physical_registers})
                                fp_free[{sub['FREE_FP']}].{free_op}(_local)
                        if uop.inst.op == OP_STORE:
                            _word = store_by_seq.pop(uop.seq, None)
                            if _word is not None \\
                                    and store_get(_word) == uop.seq:
                                del store_words[_word]
                        inflights[uop.cluster] -= 1
                        committed += 1
                        _n -= 1
                        if not _n:
                            break

                # -- wake / select / execute (inlined) -----------------
                for _ci in {cluster_range}:
                    _keys = bkeys[_ci]
                    _r = readys[_ci]
                    if _keys and _keys[0] <= cycle:
                        _bk = buckets[_ci]
                        _pm = parked_mems[_ci]
                        _sc = schedulers[_ci]
                        _added = False
                        _ki = 0
                        _kn = len(_keys)
                        while _ki < _kn and _keys[_ki] <= cycle:
                            _bucket = _bk.pop(_keys[_ki])
                            for _e in _bucket:
                                _emi = _e[1].mem_index
                                if _emi >= 0:
                                    if _emi == issued_upto:
                                        _r.append(_e)
                                        _added = True
                                    else:
                                        _pm[_emi] = _e
                                        mo_parked[_emi] = _sc
                                else:
                                    _r.append(_e)
                                    _added = True
                            _ki += 1
                        del _keys[:_ki]
                        if _added:
                            _r.sort()
{unpark_muldiv}
                    if not _r:
                        continue
{pick_block}
                    for uop in _picked_uops:
                        # -- start execution (inlined) -----------------
                        inst = uop.inst
                        _op = inst.op
                        _lat = LAT[_op]
                        _mi = uop.mem_index
                        if _mi >= 0:
                            issued_upto = _mi + 1
                            _s2 = mo_parked.pop(issued_upto, None)
                            if _s2 is not None:
                                _c2 = _s2.cluster_id
                                insort(readys[_c2],
                                       parked_mems[_c2].pop(issued_upto))
                            _addr = inst.addr
                            if _op == OP_LOAD:
                                _fwd = store_get(_addr // {WORD_BYTES})
                                if _fwd is not None:
                                    _lat = {config.memory.l1.hit_latency}
                                    store_forwards += 1
                                else:
                                    # inlined L1 probe (MRU fast path)
                                    _line = _addr >> {l1_off}
                                    _tags = l1_sets[_line & {l1_mask}]
                                    _tag = _line >> {l1_setbits}
                                    if _tags and _tags[0] == _tag:
                                        l1_hits += 1
                                        _lat = {l1.hit_latency}
                                    else:
                                        try:
                                            _pos = _tags.index(_tag)
                                        except ValueError:
                                            _lat, _l2h = mem_miss(_addr,
                                                                  cycle)
                                            l1_misses += 1
                                            if not _l2h:
                                                l2_misses += 1
                                        else:
                                            del _tags[_pos]
                                            _tags.insert(0, _tag)
                                            l1_hits += 1
                                            _lat = {l1.hit_latency}
                                    mem_loads += 1
                                loads += 1
                            else:
                                _word = _addr // {WORD_BYTES}
                                store_words[_word] = uop.seq
                                store_by_seq[uop.seq] = _word
                                _line = _addr >> {l1_off}
                                _tags = l1_sets[_line & {l1_mask}]
                                _tag = _line >> {l1_setbits}
                                if _tags and _tags[0] == _tag:
                                    l1_hits += 1
                                else:
                                    try:
                                        _pos = _tags.index(_tag)
                                    except ValueError:
                                        _ml, _l2h = mem_miss(_addr, cycle)
                                        l1_misses += 1
                                        if not _l2h:
                                            l2_misses += 1
                                    else:
                                        del _tags[_pos]
                                        _tags.insert(0, _tag)
                                        l1_hits += 1
                                mem_stores += 1
                                stores += 1
                        uop.issue_cycle = cycle
                        _rc = cycle + _lat
                        uop.result_cycle = _rc
{issue_hooks}{muldiv_exec}
                        issued += 1
                        cluster_issued[_ci] += 1
                        pdest = uop.pdest
                        if pdest is not None:
                            reg_result[pdest] = _rc
                            _waiters = waiters_pop(pdest, None)
                            if _waiters:
                                _row = fwd_rows[_ci]
                                for _wt in _waiters:
                                    _wc = _wt.cluster
                                    if _wc == _ci:
                                        bypass_intra += 1
                                    else:
                                        bypass_inter += 1
                                    _usable = _rc + _row[_wc]
                                    _ec = _wt.earliest_issue
                                    if _usable > _ec:
                                        _ec = _usable
                                        _wt.earliest_issue = _usable
                                    _wo = _wt.waiting_operands - 1
                                    _wt.waiting_operands = _wo
                                    if not _wo:
                                        _bk2 = buckets[_wc]
                                        _b2 = _bk2.get(_ec)
                                        if _b2 is None:
                                            _bk2[_ec] = [(_wt.seq, _wt)]
                                            insort(bkeys[_wc], _ec)
                                        else:
                                            _b2.append((_wt.seq, _wt))
                        if uop.mispredicted:
                            rename_blocked_until = (
                                _rc + {config.mispredict_penalty})
                            if waiting_branch is uop:
                                waiting_branch = None

                # -- rename / dispatch (inlined) -----------------------
{begin_stage}                _budget = {config.front_width}
                if waiting_branch is not None \\
                        or cycle < rename_blocked_until:
                    # Loop-invariant: a mispredicted rename breaks out
                    # immediately and the block-until cycle only moves in
                    # the execute stage, so the whole group stalls here.
                    stall_branch += _budget
                    _budget = 0
                while _budget:
                    if len(rob) >= {config.rob_size}:
                        stall_rob += _budget
                        break
                    inst = pend_inst
                    if inst is None:
                        if fe_exhausted:
                            break
                        inst = next(trace_iter, None)
                        if inst is None:
                            fe_exhausted = True
                            break
                        pend_misp = False
                        if inst.op == OP_BRANCH:
                            fe_branches += 1
                            if resolve(inst.pc, inst.taken) != inst.taken:
                                pend_misp = True
                                fe_mispredicts += 1
                        pend_inst = inst
                    if pending_decision is None:
{alloc_block}
                    cluster = pending_decision[0]
                    if inflights[cluster] >= {cluster.max_inflight}:
                        stall_cluster += _budget
                        break
                    dest = inst.dest
                    if dest is not None:
                        if dest < {config.int_logical_registers}:
                            _q = int_free[{sub['SUB']}]
                        else:
                            _q = fp_free[{sub['SUB']}]
                        if not _q{staged}:
                            reg_stalls += 1
{deadlock_block}
                    swapped = pending_decision[1]
                    pend_inst = None
                    delivered += 1
                    pending_decision = None
                    src1 = inst.src1
                    if src1 is None:
                        psrc1 = None
                    elif src1 < {config.int_logical_registers}:
                        psrc1 = int_map[src1]
                    else:
                        psrc1 = ({config.int_physical_registers}
                                 + fp_map[src1
                                          - {config.int_logical_registers}])
                    src2 = inst.src2
                    if src2 is None:
                        psrc2 = None
                    elif src2 < {config.int_logical_registers}:
                        psrc2 = int_map[src2]
                    else:
                        psrc2 = ({config.int_physical_registers}
                                 + fp_map[src2
                                          - {config.int_logical_registers}])
                    if dest is None:
                        pdest = None
                        pold = None
                    elif dest < {config.int_logical_registers}:
                        _local = _q.{take_op}()
                        pold = int_map[dest]
                        int_map[dest] = _local
                        int_out[{sub['SUB']}] += 1
                        pdest = _local
                    else:
                        _local = _q.{take_op}()
                        _dl = dest - {config.int_logical_registers}
                        pold = {config.int_physical_registers} + fp_map[_dl]
                        fp_map[_dl] = _local
                        fp_out[{sub['SUB']}] += 1
                        pdest = {config.int_physical_registers} + _local
                    renamed += 1
{deadlock_stats_sync}
                    seq = seq_counter
                    seq_counter = seq + 1
                    _op = inst.op
                    if _op == OP_LOAD or _op == OP_STORE:
                        mem_index = next_mem_index
                        next_mem_index = mem_index + 1
                    else:
                        mem_index = -1
                    misp = pend_misp
                    uop = new_uop(Uop)
                    uop.seq = seq
                    uop.inst = inst
                    uop.cluster = cluster
                    uop.swapped = swapped
                    uop.psrc1 = psrc1
                    uop.psrc2 = psrc2
                    uop.pdest = pdest
                    uop.pold = pold
                    uop.dispatch_cycle = cycle
                    uop.issue_cycle = {UNKNOWN_CYCLE}
                    uop.result_cycle = {UNKNOWN_CYCLE}
                    uop.mispredicted = misp
                    uop.mem_index = mem_index
                    if pdest is not None:
                        reg_result[pdest] = {UNKNOWN_CYCLE}
                        reg_cluster[pdest] = cluster{dispatch_hooks}
                    # -- wake-up computation (inlined) -----------------
                    _earliest = cycle + 1
                    _waiting = 0
                    if psrc1 is not None:
                        _rcy = reg_result[psrc1]
                        if _rcy == {UNKNOWN_CYCLE}:
                            _waiting = 1
                            _wl = waiters_get(psrc1)
                            if _wl is None:
                                reg_waiters[psrc1] = [uop]
                            else:
                                _wl.append(uop)
                        else:
                            _usable = (_rcy
                                       + fwd_rows[reg_cluster[psrc1]]
                                       [cluster])
                            if _usable > _earliest:
                                _earliest = _usable
                    if psrc2 is not None:
                        _rcy = reg_result[psrc2]
                        if _rcy == {UNKNOWN_CYCLE}:
                            _waiting += 1
                            _wl = waiters_get(psrc2)
                            if _wl is None:
                                reg_waiters[psrc2] = [uop]
                            else:
                                _wl.append(uop)
                        else:
                            _usable = (_rcy
                                       + fwd_rows[reg_cluster[psrc2]]
                                       [cluster])
                            if _usable > _earliest:
                                _earliest = _usable
                    uop.earliest_issue = _earliest
                    uop.waiting_operands = _waiting
                    if not _waiting:
                        _bk2 = buckets[cluster]
                        _b2 = _bk2.get(_earliest)
                        if _b2 is None:
                            _bk2[_earliest] = [(seq, uop)]
                            insort(bkeys[cluster], _earliest)
                        else:
                            _b2.append((seq, uop))
                    rob_append(uop)
                    inflights[cluster] += 1
                    dispatched += 1
                    cluster_allocated[cluster] += 1
                    if swapped:
                        swapped_forms += 1
                    bcounts[cluster] += 1
                    bfilled += 1
                    if bfilled >= bgroup:
                        _unb = (min(bcounts) < blow
                                or max(bcounts) > bhigh)
                        bt_total += 1
                        sg_total += 1
                        if _unb:
                            bt_unb += 1
                            sg_unb += 1
                        if bkeep:
                            bgroups.append(list(bcounts))
                        for _bi in {cluster_range}:
                            bcounts[_bi] = 0
                        bfilled = 0
                    if _op == OP_BRANCH:
                        branches += 1
                        if misp:
                            mispredictions += 1
                            waiting_branch = uop
                    _budget -= 1
                    if misp:
                        break

{end_stage}{cycle_end_hooks}                cycles += 1
                cycle += 1
{tripped_check}
            else:
                # -- dead window: jump to the event horizon ------------
                horizon = wake
                if rob:
                    _rc = rob[0].result_cycle
                    if _rc < horizon:
                        horizon = _rc
                if cycle < rename_blocked_until < horizon:
                    horizon = rename_blocked_until
{muldiv_horizon}
                if horizon >= {no_event}:
                    raise DeadlockedPipeline(
                        "event horizon found no future event at cycle "
                        "%d (specialized gear: rename stalled, nothing "
                        "in flight can wake or commit)" % cycle)
                skipped = horizon - cycle
                if skipped > {progress_limit}:
                    raise DeadlockedPipeline(
                        "no commit possible for %d cycles at cycle %d "
                        "(specialized gear: stalled until the event "
                        "horizon at %d)" % (skipped, cycle, horizon))
                if stall == 0:
                    stall_branch += {config.front_width} * skipped
                elif stall == 1:
                    stall_rob += {config.front_width} * skipped
                elif stall == 2:
                    stall_cluster += {config.front_width} * skipped
{skip_hooks}                cycles += skipped
                cycle = horizon
                jumps += 1
                jump_skipped += skipped
{idle_stage}
            if committed != last_committed:
                last_committed = committed
                idle_events = 0
            else:
                idle_events += 1
                if idle_events > {progress_limit}:
                    raise DeadlockedPipeline(
                        "no instruction committed for %d pipeline "
                        "events at cycle %d" % (idle_events, cycle))
        return True
    finally:
{writeback}'''
    return src


def build_specialized_runner(processor) -> Callable[..., bool]:
    """Compile the specialized stepper for ``processor``.

    The variant follows the processor's attached hooks.  The returned
    function has the signature ``run(processor, committed_target) ->
    bool``: True when the target was reached (or the trace drained)
    inside the specialized envelope, False when a guard tripped and the
    caller must continue on the reference stepper (all machine state has
    already been written back).  It holds no reference to
    ``processor``, so storing it on the processor creates no reference
    cycle.
    """
    from repro.frontend.fetch import FetchedInstruction

    source = generate_stepper_source(processor.config,
                                     hooked=bool(processor._hooks))
    code = _CODE_CACHE.get(source)
    if code is None:
        code = compile(source,
                       generated_source_filename(processor.config), "exec")
        _CODE_CACHE[source] = code
    namespace = {
        "insort": bisect.insort,
        "DeadlockedPipeline": DeadlockedPipeline,
        "Uop": InFlightUop,
        "new_uop": InFlightUop.__new__,
        "Fetched": FetchedInstruction,
        "_FP": frozenset(FP_CLASSES),
        "OP_LOAD": OpClass.LOAD,
        "OP_STORE": OpClass.STORE,
        "OP_BRANCH": OpClass.BRANCH,
        "OP_IMULDIV": OpClass.IMULDIV,
        "FWD": processor._forward_table,
    }
    exec(code, namespace)
    return namespace[SPECIALIZED_FUNC_NAME]
