"""ASYNC-HAZARD: concurrency lint for the service and fleet stacks.

The service (:mod:`repro.service`) and the fleet (:mod:`repro.fleet`)
run asyncio event loops whose tasks hand simulation work to a
process/thread executor, talk HTTP between coordinator and worker
nodes, and mirror results into a disk-backed store.  Three hazard
classes recur in that shape, and each one has bitten real asyncio
services:

``ASYNC-BLOCKING-CALL``
    A blocking call inside an ``async def`` body: ``time.sleep``, sync
    file I/O (``open``, ``Path.read_text``/``write_text``, ``json.dump``
    / ``json.load`` against a file, ``os``/``shutil`` filesystem calls),
    ``subprocess`` invocations, synchronous HTTP
    (``http.client.HTTPConnection``/``HTTPSConnection``,
    ``urllib.request.urlopen`` - a fleet worker's lease and report
    paths must use the async :mod:`repro.fleet.netio` client), or a
    call into the disk-backed result store
    (``store.put``/``get``/``keys``/``evict_expired``/``stats``/
    ``put_record``/``get_record``).  Any of these stalls the entire
    event loop - every other request, lease exchange and timeout in
    the process waits behind it.  Route the call through
    ``loop.run_in_executor(...)`` instead.
``ASYNC-LOCKED-AWAIT``
    An ``await`` inside a *synchronous* ``with <lock>:`` block.  A
    ``threading.Lock`` held across a suspension point blocks every
    other task (and thread) that needs the lock for as long as the
    awaited operation takes - and deadlocks outright if the awaited
    task needs the same lock.  Use ``asyncio.Lock`` with ``async
    with``, or drop the lock before awaiting.
``ASYNC-SHARED-STATE``
    An instance attribute written both from async (event-loop) context
    and from a function registered as an executor/thread/done-callback.
    Callbacks run off the loop thread; unsynchronized writes from both
    sides race.  Marshal the mutation back onto the loop (via the
    scheduler's queue or ``call_soon_threadsafe``) instead of writing
    in place.

Attribution is *innermost-def*: a sync helper nested inside an ``async
def`` is not flagged (the loop only stalls if the async frame itself
makes the call), and an async def nested inside a sync def is.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.analyze.framework import AnalysisContext, Finding, analysis_pass

PASS_NAME = "async-hazard"

RULES = {
    "ASYNC-BLOCKING-CALL": "blocking call inside an async def stalls "
                           "the event loop",
    "ASYNC-LOCKED-AWAIT": "await while holding a synchronous lock",
    "ASYNC-SHARED-STATE": "attribute written from both async context "
                          "and an executor/thread callback",
}

#: ``module.function`` calls that block the calling thread.
_BLOCKING_MODULE_CALLS = {
    ("time", "sleep"),
    ("json", "dump"), ("json", "load"),
    ("os", "makedirs"), ("os", "remove"), ("os", "replace"),
    ("os", "rename"), ("os", "listdir"), ("os", "unlink"),
    ("shutil", "rmtree"), ("shutil", "copy"), ("shutil", "copytree"),
    ("subprocess", "run"), ("subprocess", "call"),
    ("subprocess", "check_call"), ("subprocess", "check_output"),
    ("subprocess", "Popen"),
}

#: Method names that are sync file I/O wherever they appear.
_BLOCKING_METHODS = {
    "read_text", "write_text", "read_bytes", "write_bytes",
}

#: Methods of the disk-backed result store (every one touches the
#: filesystem); flagged when the receiver chain mentions a store.
_STORE_METHODS = {"put", "get", "keys", "evict_expired", "stats",
                  "put_record", "get_record"}

#: Synchronous HTTP entry points: constructing an ``http.client``
#: connection or calling ``urllib.request.urlopen`` blocks the thread
#: on the socket for the whole exchange.  Matched both as attribute
#: calls (``http.client.HTTPConnection(...)``) and as bare names
#: (``from http.client import HTTPConnection``).
_SYNC_HTTP_CALLS = {"HTTPConnection", "HTTPSConnection", "urlopen"}

#: Call shapes that register a function to run off the event loop:
#: (callable attribute name, positional index of the callback).
_CALLBACK_REGISTRARS = {
    "run_in_executor": 1,
    "add_done_callback": 0,
    "call_soon_threadsafe": 0,
}


def _receiver_names(node: ast.expr) -> List[str]:
    """All dotted names in a call receiver chain, lowercased."""
    names: List[str] = []
    while isinstance(node, ast.Attribute):
        names.append(node.attr.lower())
        node = node.value
    if isinstance(node, ast.Name):
        names.append(node.id.lower())
    return names


def _blocking_reason(call: ast.Call) -> Optional[str]:
    func = call.func
    if isinstance(func, ast.Name):
        if func.id == "open":
            return "open() is synchronous file I/O"
        if func.id in _SYNC_HTTP_CALLS:
            return (f"{func.id}() is synchronous HTTP; use the async "
                    f"netio client")
        return None
    if not isinstance(func, ast.Attribute):
        return None
    if isinstance(func.value, ast.Name):
        key = (func.value.id, func.attr)
        if key in _BLOCKING_MODULE_CALLS:
            return f"{func.value.id}.{func.attr}() blocks the thread"
    if func.attr in _SYNC_HTTP_CALLS:
        receiver = _receiver_names(func.value)
        if any(name in ("http", "client", "urllib", "request")
               for name in receiver):
            return (f".{func.attr}() is synchronous HTTP; use the "
                    f"async netio client")
    if func.attr in _BLOCKING_METHODS:
        return f".{func.attr}() is synchronous file I/O"
    if func.attr in _STORE_METHODS:
        receiver = _receiver_names(func.value)
        if any("store" in name for name in receiver):
            return (f"result-store .{func.attr}() does disk I/O; "
                    f"route it through run_in_executor")
    return None


def _callback_target(call: ast.Call) -> Optional[str]:
    """Name of a function/method registered to run off the loop."""
    func = call.func
    if not isinstance(func, ast.Attribute):
        return None
    index = _CALLBACK_REGISTRARS.get(func.attr)
    argument: Optional[ast.expr] = None
    if index is not None and len(call.args) > index:
        argument = call.args[index]
    elif func.attr == "Thread" or (
            isinstance(func.value, ast.Name)
            and func.value.id == "threading" and func.attr == "Thread"):
        for keyword in call.keywords:
            if keyword.arg == "target":
                argument = keyword.value
    if argument is None:
        return None
    if isinstance(argument, ast.Attribute):
        return argument.attr
    if isinstance(argument, ast.Name):
        return argument.id
    return None


class _FunctionContextVisitor(ast.NodeVisitor):
    """Base visitor tracking the innermost enclosing def's asyncness."""

    def __init__(self) -> None:
        self._def_stack: List[bool] = []

    @property
    def in_async(self) -> bool:
        return bool(self._def_stack) and self._def_stack[-1]

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._def_stack.append(False)
        self.generic_visit(node)
        self._def_stack.pop()

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._def_stack.append(True)
        self.generic_visit(node)
        self._def_stack.pop()


class _HazardVisitor(_FunctionContextVisitor):
    """Blocking calls + locked awaits, innermost-def attributed."""

    def __init__(self, path: str) -> None:
        super().__init__()
        self.path = path
        self.findings: List[Finding] = []

    def _flag(self, node: ast.AST, rule: str, message: str) -> None:
        self.findings.append(Finding(
            pass_name=PASS_NAME, rule=rule, path=self.path,
            line=node.lineno, message=message, severity="error"))

    def visit_Call(self, node: ast.Call) -> None:
        if self.in_async:
            reason = _blocking_reason(node)
            if reason is not None:
                self._flag(node, "ASYNC-BLOCKING-CALL",
                           f"{reason} inside an async def, stalling "
                           f"the event loop")
        self.generic_visit(node)

    def visit_With(self, node: ast.With) -> None:
        holds_lock = any(
            any("lock" in name for name in
                _receiver_names(item.context_expr))
            for item in node.items)
        if holds_lock and self.in_async:
            for stmt in node.body:
                for sub in ast.walk(stmt):
                    if isinstance(sub, ast.Await):
                        self._flag(
                            sub, "ASYNC-LOCKED-AWAIT",
                            "await while holding a synchronous lock; "
                            "every task needing the lock stalls for "
                            "the whole awaited operation")
        self.generic_visit(node)


class _AttributeWriteVisitor(_FunctionContextVisitor):
    """Per-class ``self.X`` write sites split by execution context."""

    def __init__(self) -> None:
        super().__init__()
        self._method_stack: List[str] = []
        # attr -> first async write line
        self.async_writes: Dict[str, int] = {}
        # method name -> [(attr, line)]
        self.sync_writes: Dict[str, List[Tuple[str, int]]] = {}

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        if len(self._def_stack) == 0:
            self._method_stack.append(node.name)
            super().visit_FunctionDef(node)
            self._method_stack.pop()
        else:
            super().visit_FunctionDef(node)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        if len(self._def_stack) == 0:
            self._method_stack.append(node.name)
            super().visit_AsyncFunctionDef(node)
            self._method_stack.pop()
        else:
            super().visit_AsyncFunctionDef(node)

    def _record(self, target: ast.expr, line: int) -> None:
        if not (isinstance(target, ast.Attribute)
                and isinstance(target.value, ast.Name)
                and target.value.id == "self"
                and self._method_stack):
            return
        if self.in_async:
            self.async_writes.setdefault(target.attr, line)
        else:
            self.sync_writes.setdefault(self._method_stack[0], []).append(
                (target.attr, line))

    def visit_Assign(self, node: ast.Assign) -> None:
        for target in node.targets:
            self._record(target, node.lineno)
        self.generic_visit(node)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        self._record(node.target, node.lineno)
        self.generic_visit(node)


def _shared_state_findings(tree: ast.Module, path: str) -> List[Finding]:
    # Callback registrations anywhere in the module: a method name
    # handed to an executor / thread / done-callback runs off the loop.
    callbacks: Set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            target = _callback_target(node)
            if target:
                callbacks.add(target)
    if not callbacks:
        return []
    findings: List[Finding] = []
    for node in tree.body:
        if not isinstance(node, ast.ClassDef):
            continue
        writes = _AttributeWriteVisitor()
        writes.visit(node)
        for method in sorted(callbacks):
            for attr, line in writes.sync_writes.get(method, []):
                async_line = writes.async_writes.get(attr)
                if async_line is None:
                    continue
                findings.append(Finding(
                    pass_name=PASS_NAME, rule="ASYNC-SHARED-STATE",
                    path=path, line=line,
                    message=f"self.{attr} is written here in "
                            f"{method}() (runs off the event loop as "
                            f"a registered callback) and from async "
                            f"context at line {async_line}; marshal "
                            f"the write through the loop instead",
                    severity="error"))
    return findings


def check_file(path: Path, display_path: str) -> List[Finding]:
    """All async-hazard findings for one source file."""
    source = path.read_text(encoding="utf-8")
    tree = ast.parse(source, filename=str(path))
    visitor = _HazardVisitor(display_path)
    visitor.visit(tree)
    findings = list(visitor.findings)
    findings.extend(_shared_state_findings(tree, display_path))
    return findings


@analysis_pass(PASS_NAME,
               "asyncio concurrency hazards in the service and fleet",
               rules=RULES)
def run_async_hazard(context: AnalysisContext) -> List[Finding]:
    targets: Sequence[Path] = context.python_targets()
    if not targets:
        targets = [directory for directory in (
            context.root / "src" / "repro" / "service",
            context.root / "src" / "repro" / "fleet",
        ) if directory.is_dir()]
    findings: List[Finding] = []
    for entry in targets:
        entry = Path(entry)
        sources = sorted(entry.rglob("*.py")) if entry.is_dir() else [entry]
        for source in sources:
            findings.extend(
                check_file(source, context.relpath(source)))
    return findings
