"""SPEC-EQUIV: static equivalence checking of the generated stepper.

The config-specialized gear (:mod:`repro.core.specialize`)
*generates* a run loop per :class:`~repro.config.MachineConfig`, baking
every configuration constant in as a literal.  Runtime tests pin
bit-identical statistics on the six section-5 configurations - but a
codegen defect that only manifests on an unusual configuration (an odd
cluster mix, a shared divider, a tiny deadlock-prone register file)
would sail through.  This pass closes that hole statically: for every
section-5 config plus a seeded sample of the configuration space it
calls :func:`~repro.core.specialize.generate_stepper_source` - once
for the hook-free variant and once for the hooked one - and verifies
the *AST* against the reference semantics.

Rules
-----

``SPEC-EQUIV-LITERAL``
    Every baked literal matches the config: subset-routing divisors
    (the register-file layout the paper's argument is about), ROB /
    commit / issue / front widths, per-cluster FU counts, the cluster
    count, the misprediction penalty, the store-forward latency, the
    latency-table size, the inlined L1 probe geometry (offset shift,
    set mask and tag shift of the address split), the
    implementation-1 staging width (every ``begin_cycle`` and ``idle``
    call stages ``front_width``; implementation 2 stages nothing), and
    that the forward-delay table is loaded from the processor's
    precomputed ``FWD`` global rather than re-derived.
``SPEC-EQUIV-GUARD``
    The despecialization guards are present: the entry guard is the
    first statement (hook-free variant: sanitizer/observer/move-debt ->
    ``return False``; hooked variant: move-debt alone, since it runs
    exactly when hooks are attached), and on ``moves`` configurations
    the mid-run trip wire (``tripped``) exists and despecializes inside
    the loop.
``SPEC-EQUIV-WRITEBACK``
    The main loop is wrapped in ``try``/``finally``, the ``finally``
    block writes every mirrored local back to the machine, and no
    ``return`` escapes the writeback (the entry guard, which runs
    before any state is localized, is the only exception).  In the
    hooked variant every cycle-boundary hook call (``on_cycle_end``,
    ``on_cycle_skip``) is immediately preceded by the same full
    writeback, so the hooks read the state the reference stepper would
    show them.  The per-uop hooks (``on_dispatch``, ``on_issue``,
    ``on_commit``) take the micro-op and read only it and state the
    loop mutates in place, so they need no writeback.
``SPEC-EQUIV-HOOKS``
    The hooked variant calls all five hooks; the hook-free variant
    calls none.
``SPEC-EQUIV-PURITY``
    No module-level ``random.*`` call and no set iteration reaches the
    generated body (the same determinism hazards
    ``wsrs analyze --pass lint`` bans in handwritten sources), and the
    body resolves globals only from the stepper's closed exec namespace.
``SPEC-EQUIV-RNG``
    The inlined steering code is *call-for-call* aligned with the
    reference allocation policy: the extracted steering block is
    compiled into a probe and driven with a recording RNG over dyadic /
    monadic / noadic instruction shapes; both the draw sequence
    (method + argument of every call) and the resulting
    ``(cluster, swapped)`` decision must match the policy object's.

Findings report the generated pseudo-file
(``<specialized:CONFIG>``), the line inside the generated source, and
the configuration name as provenance.
"""

from __future__ import annotations

import ast
import random
from typing import Dict, List, Optional, Sequence, Tuple

from repro.allocation.policies import make_allocator
from repro.analyze.framework import AnalysisContext, Finding, analysis_pass
from repro.config import (
    ClusterConfig,
    MachineConfig,
    baseline_rr_256,
    figure4_configs,
    ws_rr,
    wsrs_rc,
    wsrs_rm,
)
from repro.core.lsq import WORD_BYTES
from repro.core.processor import _PROGRESS_LIMIT
from repro.core.specialize import (
    SPECIALIZED_FUNC_NAME,
    generate_stepper_source,
    generated_source_filename,
)
from repro.core.uop import UNKNOWN_CYCLE
from repro.errors import ConfigError
from repro.trace.model import OpClass, TraceInstruction

PASS_NAME = "spec-equiv"

RULES = {
    "SPEC-EQUIV-LITERAL": "a literal baked into the generated stepper "
                          "does not match the MachineConfig",
    "SPEC-EQUIV-GUARD": "a despecialization guard is missing from the "
                        "generated stepper",
    "SPEC-EQUIV-WRITEBACK": "the finally-writeback does not dominate "
                            "every exit of the generated stepper",
    "SPEC-EQUIV-HOOKS": "the hooked stepper misses a hook site, or the "
                        "hook-free stepper calls a hook",
    "SPEC-EQUIV-PURITY": "generated code reaches module-level random.* "
                         "state, iterates a set, or touches an unknown "
                         "global",
    "SPEC-EQUIV-RNG": "the inlined steering diverges from the reference "
                      "allocation policy (draw sequence or decision)",
}

#: Everything the finally block must write back (mirrored locals).
_REQUIRED_WRITEBACK = (
    "proc.cycle", "proc._seq", "proc._move_debt",
    "proc._rename_blocked_until", "proc._waiting_branch",
    "proc._pending_decision", "proc.horizon_jumps",
    "proc.horizon_cycles_skipped",
    "frontend._pending", "frontend._exhausted", "frontend.branches",
    "frontend.mispredictions", "frontend.delivered",
    "memory.loads", "memory.stores", "memory.l1.hits",
    "memorder._issued_upto", "memorder._next_index",
    "renamer.renamed", "renamer.reg_stalls",
    "stats.cycles", "stats.committed", "stats.dispatched",
    "stats.issued", "stats.branches", "stats.mispredictions",
    "stats.loads", "stats.stores", "stats.store_forwards",
    "stats.l1_misses", "stats.l2_misses",
    "stats.stall_rob_full", "stats.stall_cluster_full",
    "stats.stall_no_register", "stats.stall_branch_penalty",
    "stats.stall_deadlock_moves", "stats.swapped_forms",
)

#: The hook interface the hooked variant calls, and the subset that
#: reads machine state (so needs the full writeback before it).
_HOOKS = ("on_dispatch", "on_issue", "on_commit", "on_cycle_end",
          "on_cycle_skip")
_CYCLE_HOOKS = ("on_cycle_end", "on_cycle_skip")


def _finding(config: MachineConfig, where, rule: str, message: str,
             severity: str = "error") -> Finding:
    line = where if isinstance(where, int) else getattr(where, "lineno", 1)
    return Finding(pass_name=PASS_NAME, rule=rule,
                   path=generated_source_filename(config), line=line,
                   message=message, severity=severity, config=config.name)


# ---------------------------------------------------------------------------
# Entry points
# ---------------------------------------------------------------------------

def check_config_codegen(config: MachineConfig,
                         hooked: bool = False) -> List[Finding]:
    """Generate one stepper variant for ``config`` and verify it."""
    return check_generated_source(generate_stepper_source(config, hooked),
                                  config, hooked)


def check_generated_source(source: str, config: MachineConfig,
                           hooked: bool = False) -> List[Finding]:
    """Verify generated stepper ``source`` against ``config``.

    Exposed separately from :func:`check_config_codegen` so tests can
    corrupt the source text and pin the resulting findings.
    """
    try:
        tree = ast.parse(source)
    except SyntaxError as exc:
        return [_finding(config, exc.lineno or 1, "SPEC-EQUIV-GUARD",
                         f"generated source does not parse: {exc.msg}")]
    func = None
    for node in tree.body:
        if isinstance(node, ast.FunctionDef) \
                and node.name == SPECIALIZED_FUNC_NAME:
            func = node
    if func is None:
        return [_finding(config, 1, "SPEC-EQUIV-GUARD",
                         f"generated source defines no "
                         f"{SPECIALIZED_FUNC_NAME}() function")]
    findings: List[Finding] = []
    findings.extend(_check_guards(func, config, hooked))
    findings.extend(_check_writeback(func, config))
    findings.extend(_check_hooks(func, config, hooked))
    findings.extend(_check_literals(func, config))
    findings.extend(_check_purity(func, config))
    findings.extend(_check_rng_alignment(func, config))
    return findings


@analysis_pass(PASS_NAME,
               "codegen equivalence of the config-specialized stepper",
               rules=RULES)
def run_spec_equiv(context: AnalysisContext) -> List[Finding]:
    findings: List[Finding] = []
    configs = list(figure4_configs())
    configs.extend(sampled_configs(context.sample_configs,
                                   context.sample_seed))
    for config in configs:
        for hooked in (False, True):
            findings.extend(check_config_codegen(config, hooked))
    return findings


# ---------------------------------------------------------------------------
# Config sampling: codegen coverage no runtime test ever executes
# ---------------------------------------------------------------------------

def sampled_configs(count: int = 50,
                    seed: int = 20_020) -> List[MachineConfig]:
    """A deterministic sample of the configuration space.

    Varies the factory family, register totals, widths, ROB size,
    penalty, divider arrangement, fastforward policy, deadlock policy,
    the cluster FU mix and the renaming implementation; invalid draws
    are discarded through :meth:`MachineConfig.validate`, so every
    returned config is one the simulator would accept.  The renaming
    implementation comes from a second generator, so it never shifts
    the other draws.
    """
    rng = random.Random(seed)
    impl_rng = random.Random(seed + 1)
    configs: List[MachineConfig] = []
    attempts = 0
    while len(configs) < count and attempts < count * 40:
        attempts += 1
        kind = rng.choice(("rr", "ws", "rc", "rm"))
        total = rng.choice((240, 320, 384, 512, 640, 768))
        overrides: Dict[str, object] = {
            "rob_size": rng.choice((112, 224, 256, 448)),
            "front_width": rng.choice((4, 8)),
            "commit_width": rng.choice((4, 8, 16)),
            "mispredict_penalty": rng.choice((10, 15, 16, 17, 18, 20)),
            "pipelined_muldiv": rng.random() < 0.5,
            "shared_muldiv": rng.random() < 0.5,
            "fastforward": rng.choice(("intra", "pairs", "complete")),
            "deadlock_policy": rng.choice(("none", "raise", "moves")),
        }
        if rng.random() < 0.3:
            overrides["cluster"] = ClusterConfig(
                issue_width=rng.choice((2, 4)),
                num_alus=rng.choice((2, 3)),
                num_lsus=rng.choice((1, 2)),
                num_fpus=rng.choice((1, 2)),
                max_inflight=rng.choice((28, 56)))
        if kind == "rr" and rng.random() < 0.3:
            overrides["allocation_policy"] = rng.choice(
                ("random", "least_loaded"))
        try:
            if kind == "rr":
                config = baseline_rr_256(**overrides)
            elif kind == "ws":
                config = ws_rr(total, **overrides)
            elif kind == "rc":
                config = wsrs_rc(total, **overrides)
            else:
                config = wsrs_rm(total, **overrides)
            config = config.with_changes(
                name=f"{config.name} sample{len(configs):02d}")
            config.validate()
        except ConfigError:
            continue
        if impl_rng.random() < 0.4:
            config = config.with_changes(name=f"{config.name} impl1",
                                         rename_impl=1)
        configs.append(config)
    return configs


# ---------------------------------------------------------------------------
# Guards
# ---------------------------------------------------------------------------

def _body_after_docstring(func: ast.FunctionDef) -> List[ast.stmt]:
    body = list(func.body)
    if (body and isinstance(body[0], ast.Expr)
            and isinstance(body[0].value, ast.Constant)
            and isinstance(body[0].value.value, str)):
        return body[1:]
    return body


def _is_entry_guard(stmt: ast.stmt) -> bool:
    return (isinstance(stmt, ast.If)
            and len(stmt.body) == 1 and not stmt.orelse
            and isinstance(stmt.body[0], ast.Return)
            and isinstance(stmt.body[0].value, ast.Constant)
            and stmt.body[0].value.value is False)


def _check_guards(func: ast.FunctionDef, config: MachineConfig,
                  hooked: bool) -> List[Finding]:
    findings: List[Finding] = []
    body = _body_after_docstring(func)
    guard = body[0] if body else None
    if guard is not None and _is_entry_guard(guard):
        attrs = {node.attr for node in ast.walk(guard.test)
                 if isinstance(node, ast.Attribute)}
        expected = ({"_move_debt"} if hooked
                    else {"sanitizer", "obs", "_move_debt"})
        missing = sorted(expected - attrs)
        if missing:
            findings.append(_finding(
                config, guard, "SPEC-EQUIV-GUARD",
                f"entry guard does not test {', '.join(missing)}"))
        if hooked and attrs != expected:
            findings.append(_finding(
                config, guard, "SPEC-EQUIV-GUARD",
                f"hooked entry guard must test _move_debt alone, not "
                f"{', '.join(sorted(attrs - expected))}"))
    else:
        findings.append(_finding(
            config, guard or func, "SPEC-EQUIV-GUARD",
            "first statement is not the despecialization entry guard "
            "(if proc.sanitizer/proc.obs/proc._move_debt: return False)"))
    if config.deadlock_policy == "moves":
        trips = [node for node in ast.walk(func)
                 if isinstance(node, ast.Assign)
                 and any(isinstance(t, ast.Name) and t.id == "tripped"
                         for t in node.targets)
                 and isinstance(node.value, ast.Constant)
                 and node.value.value is True]
        if not trips:
            findings.append(_finding(
                config, func, "SPEC-EQUIV-GUARD",
                "deadlock policy 'moves' but no mid-run trip site "
                "(tripped = True) in the generated loop"))
        exits = [node for node in ast.walk(func)
                 if isinstance(node, ast.If)
                 and isinstance(node.test, ast.Name)
                 and node.test.id == "tripped"
                 and any(isinstance(sub, ast.Return)
                         and isinstance(sub.value, ast.Constant)
                         and sub.value.value is False
                         for stmt in node.body
                         for sub in ast.walk(stmt))]
        if not exits:
            findings.append(_finding(
                config, func, "SPEC-EQUIV-GUARD",
                "deadlock policy 'moves' but the loop never "
                "despecializes on a trip (if tripped: return False)"))
    return findings


# ---------------------------------------------------------------------------
# Writeback dominance
# ---------------------------------------------------------------------------

def _attr_chain(node: ast.expr) -> str:
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return ""


def _required_writeback(config: MachineConfig) -> List[str]:
    required = list(_REQUIRED_WRITEBACK)
    if config.allocation_policy == "round_robin":
        required.append("proc.allocator._next")
    return required


def _written_chains(stmts: Sequence[ast.stmt]) -> set:
    """Attribute chains (``proc.cycle``...) assigned anywhere in ``stmts``."""
    written = set()
    for stmt in stmts:
        for node in ast.walk(stmt):
            if isinstance(node, (ast.Assign, ast.AugAssign)):
                targets = (node.targets
                           if isinstance(node, ast.Assign)
                           else [node.target])
                for target in targets:
                    chain = _attr_chain(target)
                    if chain:
                        written.add(chain)
    return written


def _check_writeback(func: ast.FunctionDef,
                     config: MachineConfig) -> List[Finding]:
    findings: List[Finding] = []
    try_node = next((stmt for stmt in func.body
                     if isinstance(stmt, ast.Try)), None)
    if try_node is None or not try_node.finalbody:
        return [_finding(
            config, try_node or func, "SPEC-EQUIV-WRITEBACK",
            "main loop is not wrapped in try/finally; a guard trip or "
            "exception would lose the localized machine state")]

    required = _required_writeback(config)
    written = _written_chains(try_node.finalbody)
    missing = sorted(chain for chain in required if chain not in written)
    if missing:
        findings.append(_finding(
            config, try_node.finalbody[0], "SPEC-EQUIV-WRITEBACK",
            f"finally block never writes back: {', '.join(missing)}"))

    # Every exit must run the finally writeback: the only statement
    # allowed to return outside the Try is the entry guard, which runs
    # before any machine state is localized.
    for stmt in func.body:
        if stmt is try_node or _is_entry_guard(stmt):
            continue
        for node in ast.walk(stmt):
            if isinstance(node, ast.Return):
                findings.append(_finding(
                    config, node, "SPEC-EQUIV-WRITEBACK",
                    "return outside the try/finally escapes the local "
                    "state writeback"))
    return findings


# ---------------------------------------------------------------------------
# Hook sites
# ---------------------------------------------------------------------------

def _hook_calls(node: ast.AST) -> List[ast.Call]:
    return [call for call in ast.walk(node)
            if isinstance(call, ast.Call)
            and isinstance(call.func, ast.Attribute)
            and call.func.attr in _HOOKS]


def _assigns_local(stmt: ast.stmt) -> bool:
    return any(isinstance(target, ast.Name)
               for node in ast.walk(stmt)
               if isinstance(node, (ast.Assign, ast.AugAssign))
               for target in (node.targets if isinstance(node, ast.Assign)
                              else [node.target]))


def _check_hooks(func: ast.FunctionDef, config: MachineConfig,
                 hooked: bool) -> List[Finding]:
    calls = _hook_calls(func)
    if not hooked:
        return [_finding(config, call, "SPEC-EQUIV-HOOKS",
                         f"hook-free stepper calls {call.func.attr}()")
                for call in calls]
    called = {call.func.attr for call in calls}
    findings = [_finding(config, func, "SPEC-EQUIV-HOOKS",
                         f"hooked stepper never calls {name}()")
                for name in _HOOKS if name not in called]
    # A cycle hook's loop must be preceded by the writeback: the run of
    # statements before it that store no local.
    required = _required_writeback(config)
    blocks = [block for node in ast.walk(func)
              for block in (getattr(node, "body", None),
                            getattr(node, "orelse", None))
              if isinstance(block, list)]
    for block in blocks:
        for index, stmt in enumerate(block):
            names = [call.func.attr for call in _hook_calls(stmt)
                     if call.func.attr in _CYCLE_HOOKS]
            if not isinstance(stmt, ast.For) or not names:
                continue
            start = index
            while start and not _assigns_local(block[start - 1]):
                start -= 1
            written = _written_chains(block[start:index])
            missing = [chain for chain in required if chain not in written]
            if missing:
                findings.append(_finding(
                    config, stmt, "SPEC-EQUIV-WRITEBACK",
                    f"{names[0]}() is not preceded by the full "
                    f"writeback: {', '.join(sorted(missing))}"))
    return findings


# ---------------------------------------------------------------------------
# Baked literals
# ---------------------------------------------------------------------------

class _SiteCollector(ast.NodeVisitor):
    """Every literal-bearing site class of the generated body."""

    def __init__(self) -> None:
        self.const_assigns: Dict[str, List[Tuple[ast.AST, int]]] = {}
        self.lat_sizes: List[Tuple[ast.AST, int]] = []
        self.len_rob_compares: List[Tuple[ast.AST, int]] = []
        self.inflight_compares: List[Tuple[ast.AST, int]] = []
        self.name_compares: List[Tuple[str, type, ast.AST, int]] = []
        self.floordivs: List[Tuple[ast.AST, int]] = []
        self.named_subs: List[Tuple[str, ast.AST, int]] = []
        self.const_left_adds: List[Tuple[ast.AST, int]] = []
        self.rc_adds: List[Tuple[ast.AST, int]] = []
        self.for_tuples: List[Tuple[ast.AST, Tuple[int, ...]]] = []
        self.stall_mults: List[Tuple[ast.AST, int]] = []
        self.rshifts: List[Tuple[str, ast.AST, int]] = []
        self.staging_widths: List[Tuple[ast.AST, int]] = []
        self.bitands: List[Tuple[str, ast.AST, int]] = []
        self.loaded_names: set = set()

    @staticmethod
    def _int_const(node: ast.expr) -> Optional[int]:
        if isinstance(node, ast.Constant) \
                and isinstance(node.value, int) \
                and not isinstance(node.value, bool):
            return node.value
        return None

    def visit_Assign(self, node: ast.Assign) -> None:
        if len(node.targets) == 1 and isinstance(node.targets[0], ast.Name):
            name = node.targets[0].id
            value = self._int_const(node.value)
            if value is not None:
                self.const_assigns.setdefault(name, []).append(
                    (node, value))
            elif (name == "LAT" and isinstance(node.value, ast.BinOp)
                    and isinstance(node.value.op, ast.Mult)):
                size = self._int_const(node.value.right)
                if size is not None:
                    self.lat_sizes.append((node, size))
        self.generic_visit(node)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        if (isinstance(node.target, ast.Name)
                and node.target.id.startswith("stall_")
                and isinstance(node.value, ast.BinOp)
                and isinstance(node.value.op, ast.Mult)):
            value = self._int_const(node.value.left)
            if value is not None:
                self.stall_mults.append((node, value))
        self.generic_visit(node)

    def visit_Compare(self, node: ast.Compare) -> None:
        if len(node.ops) == 1 and len(node.comparators) == 1:
            value = self._int_const(node.comparators[0])
            if value is not None:
                left = node.left
                if (isinstance(left, ast.Call)
                        and isinstance(left.func, ast.Name)
                        and left.func.id == "len" and left.args
                        and isinstance(left.args[0], ast.Name)
                        and left.args[0].id == "rob"):
                    self.len_rob_compares.append((node, value))
                elif (isinstance(left, ast.Subscript)
                        and isinstance(left.value, ast.Name)
                        and left.value.id == "inflights"):
                    self.inflight_compares.append((node, value))
                elif isinstance(left, ast.Name):
                    self.name_compares.append(
                        (left.id, type(node.ops[0]), node, value))
        self.generic_visit(node)

    def visit_BinOp(self, node: ast.BinOp) -> None:
        right = self._int_const(node.right)
        if isinstance(node.op, ast.FloorDiv) and right is not None:
            self.floordivs.append((node, right))
        elif isinstance(node.op, ast.RShift) and right is not None \
                and isinstance(node.left, ast.Name):
            self.rshifts.append((node.left.id, node, right))
        elif isinstance(node.op, ast.BitAnd) and right is not None \
                and isinstance(node.left, ast.Name):
            self.bitands.append((node.left.id, node, right))
        elif isinstance(node.op, ast.Sub) and right is not None \
                and isinstance(node.left, ast.Name):
            self.named_subs.append((node.left.id, node, right))
        elif isinstance(node.op, ast.Add):
            left = self._int_const(node.left)
            if left is not None:
                self.const_left_adds.append((node, left))
            elif (right is not None and isinstance(node.left, ast.Name)
                    and node.left.id == "_rc"):
                self.rc_adds.append((node, right))
        self.generic_visit(node)

    def visit_Call(self, node: ast.Call) -> None:
        # Implementation-1 staging: ``_f(W)`` on each subset's
        # begin_cycle and ``_f.idle(W, skipped)`` over a jump.
        func = node.func
        if node.args and (
                (isinstance(func, ast.Name) and func.id == "_f")
                or (isinstance(func, ast.Attribute) and func.attr == "idle")):
            value = self._int_const(node.args[0])
            if value is not None:
                self.staging_widths.append((node, value))
        self.generic_visit(node)

    def visit_For(self, node: ast.For) -> None:
        if isinstance(node.iter, ast.Tuple):
            elements = [self._int_const(elt) for elt in node.iter.elts]
            if all(value is not None for value in elements):
                self.for_tuples.append((node.iter, tuple(elements)))
        self.generic_visit(node)

    def visit_Name(self, node: ast.Name) -> None:
        if isinstance(node.ctx, ast.Load):
            self.loaded_names.add(node.id)
        self.generic_visit(node)


def _check_literals(func: ast.FunctionDef,
                    config: MachineConfig) -> List[Finding]:
    sites = _SiteCollector()
    sites.visit(func)
    findings: List[Finding] = []
    cluster = config.cluster

    def bad(node, what: str, found, expected) -> None:
        findings.append(_finding(
            config, node, "SPEC-EQUIV-LITERAL",
            f"baked {what} is {found}, MachineConfig expects {expected}"))

    def require(present: Sequence, what: str) -> bool:
        if not present:
            findings.append(_finding(
                config, func, "SPEC-EQUIV-LITERAL",
                f"no baked {what} site found in the generated stepper"))
            return False
        return True

    # ROB capacity (horizon probe + rename loop).
    if require(sites.len_rob_compares, "len(rob) >= rob_size"):
        for node, value in sites.len_rob_compares:
            if value != config.rob_size:
                bad(node, "ROB capacity", value, config.rob_size)

    # Issue/front budgets come as exactly one site each, plus the
    # zero-clear on the hoisted branch-stall path of the rename loop.
    budgets = sites.const_assigns.get("_budget", [])
    expected_budgets = sorted((0, cluster.issue_width,
                               config.front_width))
    if sorted(value for _, value in budgets) != expected_budgets:
        bad(budgets[0][0] if budgets else func,
            "issue/front width budgets",
            sorted(value for _, value in budgets), expected_budgets)

    for name, what, expected in (
            ("_n", "commit width", config.commit_width),
            ("_alus", "per-cluster ALU count", cluster.num_alus),
            ("_fpus", "per-cluster FPU count", cluster.num_fpus),
            ("_lat", "store-forward L1 hit latency",
             config.memory.l1.hit_latency),
            ("wake", "event-horizon sentinel", UNKNOWN_CYCLE)):
        assigns = sites.const_assigns.get(name, [])
        if require(assigns, what):
            for node, value in assigns:
                if value != expected:
                    bad(node, what, value, expected)

    # Latency table sized for every OpClass.
    lat_size = max(int(op) for op in OpClass) + 1
    if require(sites.lat_sizes, "latency table allocation"):
        for node, value in sites.lat_sizes:
            if value != lat_size:
                bad(node, "latency table size", value, lat_size)

    # Forward-delay table must come from the processor's precomputed
    # global, never be re-derived inline.
    if "FWD" not in sites.loaded_names:
        findings.append(_finding(
            config, func, "SPEC-EQUIV-LITERAL",
            "forward-delay rows are not sourced from the processor's "
            "precomputed FWD table"))

    # Per-cluster window bound.
    if require(sites.inflight_compares, "cluster window bound"):
        for node, value in sites.inflight_compares:
            if value != cluster.max_inflight:
                bad(node, "cluster window bound", value,
                    cluster.max_inflight)

    # Cluster count: every baked iteration tuple enumerates the
    # clusters in order.
    expected_range = tuple(range(config.num_clusters))
    if require(sites.for_tuples, "cluster iteration tuple"):
        for node, elements in sites.for_tuples:
            if elements != expected_range:
                bad(node, "cluster iteration tuple", elements,
                    expected_range)

    # Misprediction penalty (the only `_rc + const` site).
    if require(sites.rc_adds, "misprediction penalty"):
        for node, value in sites.rc_adds:
            if value != config.mispredict_penalty:
                bad(node, "misprediction penalty", value,
                    config.mispredict_penalty)

    # Horizon-jump stall accounting multiplies by the front width.
    for node, value in sites.stall_mults:
        if value != config.front_width:
            bad(node, "stall-accounting front width", value,
                config.front_width)

    # Implementation-1 staging width: every cycle (and every idle cycle
    # of a jump) stages front_width registers per subset; the plain
    # FIFO free lists of implementation 2 stage nothing.
    if config.rename_impl == 1:
        if require(sites.staging_widths, "implementation-1 staging width"):
            for node, value in sites.staging_widths:
                if value != config.front_width:
                    bad(node, "implementation-1 staging width", value,
                        config.front_width)
    elif sites.staging_widths:
        bad(sites.staging_widths[0][0], "implementation-1 staging",
            "present", "absent under implementation 2")

    # Inlined L1 probe geometry: the address split must match the
    # configured cache (offset shift on ``_addr``, set mask and tag
    # shift on ``_line``).
    l1 = config.memory.l1
    l1_off = l1.line_bytes.bit_length() - 1
    l1_mask = l1.num_sets - 1
    l1_setbits = l1_mask.bit_length()
    addr_shifts = [(node, value) for name, node, value in sites.rshifts
                   if name == "_addr"]
    line_shifts = [(node, value) for name, node, value in sites.rshifts
                   if name == "_line"]
    line_masks = [(node, value) for name, node, value in sites.bitands
                  if name == "_line"]
    if require(addr_shifts, "L1 line-offset shift"):
        for node, value in addr_shifts:
            if value != l1_off:
                bad(node, "L1 line-offset shift", value, l1_off)
    if require(line_shifts, "L1 tag shift"):
        for node, value in line_shifts:
            if value != l1_setbits:
                bad(node, "L1 tag shift", value, l1_setbits)
    if require(line_masks, "L1 set mask"):
        for node, value in line_masks:
            if value != l1_mask:
                bad(node, "L1 set mask", value, l1_mask)

    # Register-file geometry: floor-divisions may only use the word
    # size, the divider-pair stride, or the subset sizes; specialized
    # machines must actually use both subset sizes (the routing
    # arithmetic the paper is about).
    allowed = {WORD_BYTES}
    if config.shared_muldiv:
        allowed.add(2)
    if config.num_subsets > 1:
        allowed.update((config.int_subset_size, config.fp_subset_size))
    for node, value in sites.floordivs:
        if value not in allowed:
            bad(node, "floor-division stride", value, sorted(allowed))
    if config.num_subsets > 1:
        present = {value for _, value in sites.floordivs}
        for needed, label in (
                (config.int_subset_size, "int subset size"),
                (config.fp_subset_size, "fp subset size")):
            if needed not in present:
                findings.append(_finding(
                    config, func, "SPEC-EQUIV-LITERAL",
                    f"subset-routing divisor for the {label} ({needed}) "
                    f"never appears; register-file routing is not "
                    f"specialized"))

    # Register-class split points.
    for name, _, node, value in sites.name_compares:
        if name in ("pdest", "pold"):
            if value != config.int_physical_registers:
                bad(node, "int/fp physical split", value,
                    config.int_physical_registers)
        elif name in ("dest", "src1", "src2"):
            if value != config.int_logical_registers:
                bad(node, "int/fp logical split", value,
                    config.int_logical_registers)
        elif name in ("skipped", "idle_events"):
            if value != _PROGRESS_LIMIT:
                bad(node, "progress limit", value, _PROGRESS_LIMIT)
        elif name == "horizon":
            if value != UNKNOWN_CYCLE:
                bad(node, "event-horizon sentinel", value, UNKNOWN_CYCLE)
        elif name == "rr_next":
            if value != config.num_clusters:
                bad(node, "round-robin wrap", value, config.num_clusters)
    for name, node, value in sites.named_subs:
        if name in ("pdest", "pold"):
            if value != config.int_physical_registers:
                bad(node, "int/fp physical split", value,
                    config.int_physical_registers)
        elif name in ("dest", "src1", "src2"):
            if value != config.int_logical_registers:
                bad(node, "int/fp logical split", value,
                    config.int_logical_registers)
    for node, value in sites.const_left_adds:
        if value != config.int_physical_registers:
            bad(node, "fp physical-register base", value,
                config.int_physical_registers)
    return findings


# ---------------------------------------------------------------------------
# Purity
# ---------------------------------------------------------------------------

def _check_purity(func: ast.FunctionDef,
                  config: MachineConfig) -> List[Finding]:
    findings: List[Finding] = []
    for node in ast.walk(func):
        if (isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and isinstance(node.func.value, ast.Name)
                and node.func.value.id == "random"):
            findings.append(_finding(
                config, node, "SPEC-EQUIV-PURITY",
                f"module-level random.{node.func.attr}() in generated "
                f"code; draws must go through the allocator's own RNG"))
        iters: List[ast.expr] = []
        if isinstance(node, ast.For):
            iters.append(node.iter)
        elif isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp,
                               ast.GeneratorExp)):
            iters.extend(gen.iter for gen in node.generators)
        for candidate in iters:
            is_set = isinstance(candidate, (ast.Set, ast.SetComp)) or (
                isinstance(candidate, ast.Call)
                and isinstance(candidate.func, ast.Name)
                and candidate.func.id in ("set", "frozenset"))
            if is_set:
                findings.append(_finding(
                    config, candidate, "SPEC-EQUIV-PURITY",
                    "iteration over a set in generated code is "
                    "hash-order dependent"))
    return findings


# ---------------------------------------------------------------------------
# RNG draw-site alignment
# ---------------------------------------------------------------------------

class _RecordingRng:
    """Scripted random source recording every draw (method + argument)."""

    def __init__(self, script: Sequence[int]) -> None:
        self._script = list(script)
        self.calls: List[Tuple[str, int]] = []

    def _next(self) -> int:
        return self._script.pop(0) if self._script else 0

    def getrandbits(self, bits: int) -> int:
        self.calls.append(("getrandbits", bits))
        return self._next() & ((1 << bits) - 1)

    def randrange(self, bound: int) -> int:
        self.calls.append(("randrange", bound))
        return self._next() % bound


def _find_alloc_if(func: ast.FunctionDef) -> Optional[ast.If]:
    """The rename-loop steering block: ``if pending_decision is None``
    whose body *assigns* the decision (the horizon probe only reads
    it)."""
    for node in ast.walk(func):
        if (isinstance(node, ast.If)
                and isinstance(node.test, ast.Compare)
                and isinstance(node.test.left, ast.Name)
                and node.test.left.id == "pending_decision"
                and len(node.test.ops) == 1
                and isinstance(node.test.ops[0], ast.Is)):
            for stmt in node.body:
                for sub in ast.walk(stmt):
                    if isinstance(sub, ast.Assign) and any(
                            isinstance(target, ast.Name)
                            and target.id == "pending_decision"
                            for target in sub.targets):
                        return node
    return None


def _build_probe(alloc_body: Sequence[ast.stmt]):
    lines = ["def _probe(inst=None, int_map=None, fp_map=None, "
             "rng_bits=None, rng_rand=None, rr_next=0, allocate=None, "
             "subset_of=None, inflights=None):",
             "    pending_decision = None"]
    for stmt in alloc_body:
        for line in ast.unparse(stmt).splitlines():
            lines.append("    " + line)
    lines.append("    return pending_decision, rr_next")
    namespace: Dict[str, object] = {}
    exec(compile("\n".join(lines), "<spec-equiv-probe>", "exec"),
         namespace)
    return namespace["_probe"]


def _register_maps(config: MachineConfig
                   ) -> Tuple[List[int], List[int]]:
    """Map tables placing logical register ``i`` in subset ``i % n``."""
    subsets = config.num_subsets
    int_map = [(i % subsets) * config.int_subset_size
               for i in range(config.int_logical_registers)]
    fp_map = [(i % subsets) * config.fp_subset_size
              for i in range(config.fp_logical_registers)]
    return int_map, fp_map


def _instruction_shapes(config: MachineConfig) -> List[TraceInstruction]:
    """Dyadic/monadic/noadic shapes across operand subsets and files."""
    logical = config.int_logical_registers

    def int_reg(subset: int) -> int:
        return subset

    def fp_reg(subset: int) -> int:
        return logical + subset

    shapes: List[TraceInstruction] = []

    def add(src1: Optional[int], src2: Optional[int]) -> None:
        shapes.append(TraceInstruction(
            op=OpClass.IALU, dest=1, src1=src1, src2=src2))

    for first in range(4):
        for second in range(4):
            add(int_reg(first), int_reg(second))
    for first, second in ((0, 1), (2, 3), (1, 2)):
        add(fp_reg(first), fp_reg(second))
    for first, second in ((0, 3), (3, 0)):
        add(int_reg(first), fp_reg(second))
    for subset in range(4):
        add(int_reg(subset), None)
        add(None, int_reg(subset))
    for subset in (0, 2):
        add(fp_reg(subset), None)
    add(None, None)
    return shapes


_SCRIPTS = ((0, 0, 0), (1, 1, 1), (1, 0, 1), (0, 1, 0))


def _check_rng_alignment(func: ast.FunctionDef,
                         config: MachineConfig) -> List[Finding]:
    alloc = _find_alloc_if(func)
    if alloc is None:
        return [_finding(config, func, "SPEC-EQUIV-RNG",
                         "no steering block (pending_decision is None) "
                         "found in the rename loop")]
    policy = config.allocation_policy
    inline = policy in ("random_commutative", "random_monadic") \
        and config.num_clusters == 4
    if policy == "round_robin":
        return _check_round_robin(alloc, config)
    if inline:
        return _check_inlined_policy(alloc, config)
    return _check_allocate_call(alloc, config)


def _check_allocate_call(alloc: ast.If,
                         config: MachineConfig) -> List[Finding]:
    body = alloc.body
    if len(body) == 1 and isinstance(body[0], ast.Assign):
        value = body[0].value
        if (isinstance(value, ast.Call)
                and isinstance(value.func, ast.Name)
                and value.func.id == "allocate"
                and [arg.id for arg in value.args
                     if isinstance(arg, ast.Name)]
                == ["inst", "subset_of", "inflights"]):
            return []
    return [_finding(
        config, alloc, "SPEC-EQUIV-RNG",
        f"policy {config.allocation_policy!r} must delegate to "
        f"allocate(inst, subset_of, inflights); the steering block "
        f"does something else")]


def _check_round_robin(alloc: ast.If,
                       config: MachineConfig) -> List[Finding]:
    try:
        probe = _build_probe(alloc.body)
    except Exception as exc:
        return [_finding(config, alloc, "SPEC-EQUIV-RNG",
                         f"steering block does not compile as a probe: "
                         f"{exc}")]
    inst = TraceInstruction(op=OpClass.IALU, dest=1, src1=2, src2=3)
    recorder = _RecordingRng(())
    clusters = config.num_clusters
    for cursor in range(clusters):
        reference = make_allocator("round_robin", num_clusters=clusters,
                                   seed=0)
        reference._next = cursor
        expected = reference.allocate(inst)
        try:
            decision, next_cursor = probe(
                inst=inst, rr_next=cursor,
                rng_bits=recorder.getrandbits,
                rng_rand=recorder.randrange)
        except Exception as exc:
            return [_finding(config, alloc, "SPEC-EQUIV-RNG",
                             f"round-robin steering probe crashed: "
                             f"{exc}")]
        if recorder.calls:
            return [_finding(
                config, alloc, "SPEC-EQUIV-RNG",
                f"round-robin steering drew from the RNG "
                f"({recorder.calls[0][0]}); the reference policy is "
                f"draw-free")]
        if (decision is None
                or (decision[0], bool(decision[1])) != expected
                or next_cursor != reference._next):
            return [_finding(
                config, alloc, "SPEC-EQUIV-RNG",
                f"round-robin decision from cursor {cursor} is "
                f"{decision} (next {next_cursor}); the reference "
                f"policy yields {expected} (next {reference._next})")]
    return []


def _check_inlined_policy(alloc: ast.If,
                          config: MachineConfig) -> List[Finding]:
    try:
        probe = _build_probe(alloc.body)
    except Exception as exc:
        return [_finding(config, alloc, "SPEC-EQUIV-RNG",
                         f"steering block does not compile as a probe: "
                         f"{exc}")]
    int_map, fp_map = _register_maps(config)
    logical = config.int_logical_registers

    def subset_of(register: int) -> int:
        if register < logical:
            return int_map[register] // config.int_subset_size
        return fp_map[register - logical] // config.fp_subset_size

    inflights = [0] * config.num_clusters
    for inst in _instruction_shapes(config):
        for script in _SCRIPTS:
            generated = _RecordingRng(script)
            try:
                decision, _ = probe(
                    inst=inst, int_map=int_map, fp_map=fp_map,
                    rng_bits=generated.getrandbits,
                    rng_rand=generated.randrange)
            except Exception as exc:
                return [_finding(
                    config, alloc, "SPEC-EQUIV-RNG",
                    f"steering probe crashed on "
                    f"(src1={inst.src1}, src2={inst.src2}): {exc}")]
            reference = make_allocator(config.allocation_policy,
                                       num_clusters=config.num_clusters,
                                       seed=0)
            recorder = _RecordingRng(script)
            reference.rng = recorder
            expected = reference.allocate(inst, subset_of, inflights)
            shape = (f"src1={inst.src1}, src2={inst.src2}, "
                     f"script={script}")
            if generated.calls != recorder.calls:
                return [_finding(
                    config, alloc, "SPEC-EQUIV-RNG",
                    f"RNG draw sequence diverges on ({shape}): "
                    f"generated {generated.calls}, reference "
                    f"{recorder.calls}")]
            if (decision is None
                    or (decision[0], bool(decision[1]))
                    != (expected[0], bool(expected[1]))):
                return [_finding(
                    config, alloc, "SPEC-EQUIV-RNG",
                    f"steering decision diverges on ({shape}): "
                    f"generated {decision}, reference {expected}")]
    return []
