"""Interprocedural may-yield analysis (SIM006, SIM007, and the PERF
rules' class and call-edge queries).

The kernel's contract is invisible to per-function linting: whether a
call *can suspend the current process* depends on what the callee (and
its callees) do.  This module builds the project-wide summaries the
atomicity rules need:

* **sim-coroutines** — generator functions that participate in the
  simulation protocol (they yield Events / delegate with ``yield
  from``), as opposed to plain data generators (``for x in xs: yield
  x``), which never suspend a process;
* **may-yield names** — function names every definition of which can
  suspend the caller, directly (a sim-coroutine) or transitively (a
  plain wrapper whose ``return`` hands back a may-yield call's
  generator for the caller to ``yield from``);
* **spawner names** — functions that forward an argument into
  ``sim.process(...)`` (so passing a coroutine *into* them is how it is
  meant to run, not a dropped call);
* **lock spans** — per function, the textual identity of every lock
  acquired (``self.log_lock``) and the source span it is held over,
  which is what SIM006 needs to know a yield is covered.

Everything here is name-based and deliberately precision-first: a name
is may-yield only if *every* definition is, a lock identity is the
unparsed receiver expression, and dynamic indirection (a lock passed as
a parameter) is invisible.  At run time only the ``@guarded_by``
structures are checked (:mod:`repro.sim.sanitize`); an unannotated torn
``self.*`` update is seen by SIM006 or by nothing.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

from repro.analyze.linter import Module

__all__ = ["CallGraphIndex", "FunctionSummary"]

# Event-producing attribute calls of the kernel/resource API: a name
# bound from one of these and later yielded marks a sim-coroutine
# (``token = lock.acquire(); ... ; yield token``).  ``get`` is *not*
# here despite ``queue.get()`` being one — it collides with ``dict.get``
# (``cur = parents.get(node)``), and the queue idiom always consumes
# the yield's value (``request = yield get``), which the parent-is-not-
# Expr case already classifies.
_EVENT_FACTORY_ATTRS = frozenset({
    "acquire", "request", "timeout", "event", "all_of",
})

# Method names that exist on builtin containers/strings: an attribute
# call like ``queue.remove(x)`` must not resolve to a project function
# that happens to share the name (``HashTable.remove``).
_BUILTIN_METHOD_NAMES = (set(dir(list)) | set(dir(dict)) | set(dir(set))
                         | set(dir(str)) | set(dir(tuple)) | set(dir(bytes))
                         | set(dir(frozenset)))

# Builtins that synchronously drive an iterable to exhaustion.
SYNC_DRIVERS = frozenset({
    "list", "tuple", "sorted", "sum", "any", "all", "set", "min", "max",
})


def _call_name(call: ast.Call) -> Optional[str]:
    """The bare callee name of ``f(...)`` or ``x.f(...)``, else None."""
    func = call.func
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


def _project_callee(call: ast.Call) -> Optional[str]:
    """The callee name when the call may resolve to a project function.

    Bare names always may; attribute calls only when the attribute is
    not a builtin container method and the receiver is not the
    guard-check handle (``self.race.write(...)`` is a debug-mode lock
    check that must not resolve to ``Disk.write``).
    """
    func = call.func
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        if func.attr in _BUILTIN_METHOD_NAMES:
            return None
        recv = func.value
        if isinstance(recv, ast.Name) and recv.id == "race":
            return None
        if isinstance(recv, ast.Attribute) and recv.attr == "race":
            return None
        return func.attr
    return None


def _is_process_call(call: ast.Call) -> bool:
    """``sim.process(...)`` / ``Process(...)`` — explicit spawning."""
    func = call.func
    if isinstance(func, ast.Attribute) and func.attr == "process":
        return True
    return isinstance(func, ast.Name) and func.id == "Process"


class FunctionSummary:
    """Everything the atomicity rules need to know about one def."""

    __slots__ = ("name", "path", "node", "module", "is_generator",
                 "is_sim_coroutine", "may_yield", "is_spawner",
                 "yield_lines", "lock_spans", "end_line", "_own_cache")

    def __init__(self, module: Module, node: ast.FunctionDef):
        self.module = module
        self.node = node
        self.name = node.name
        self.path = module.path
        self._own_cache: Optional[List[ast.AST]] = None
        own = self._own_nodes()
        yields = [n for n in own if isinstance(n, (ast.Yield, ast.YieldFrom))]
        self.is_generator = bool(yields)
        self.yield_lines: List[int] = sorted(n.lineno for n in yields)
        self.end_line = max((getattr(n, "lineno", node.lineno) for n in own),
                            default=node.lineno)
        self.is_sim_coroutine = (self.is_generator
                                 and self._classify_coroutine(yields, own))
        self.may_yield = self.is_sim_coroutine  # fixed point grows this
        self.is_spawner = self._detect_spawner(own)
        # (lock_id, var, acquire_line, span_end_line)
        self.lock_spans: List[Tuple[str, str, int, int]] = (
            self._extract_lock_spans(own))

    # -- scope walking ---------------------------------------------------

    def _own_nodes(self) -> List[ast.AST]:
        """Nodes in this def's own scope (nested defs/lambdas excluded).

        Cached: the fixed points below re-consult summaries every
        iteration, and with three rule families sharing the index the
        same scopes used to be re-walked dozens of times per file.
        """
        if self._own_cache is not None:
            return self._own_cache
        found: List[ast.AST] = []
        stack: List[ast.AST] = list(ast.iter_child_nodes(self.node))
        while stack:
            node = stack.pop()
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.Lambda)):
                continue
            found.append(node)
            stack.extend(ast.iter_child_nodes(node))
        self._own_cache = found
        return found

    # -- sim-coroutine classification ------------------------------------

    def _classify_coroutine(self, yields: Sequence[ast.AST],
                            own: Sequence[ast.AST]) -> bool:
        """Distinguish sim-coroutines from plain data generators.

        A data generator's yields are statement-position ``yield <name
        or constant>`` shapes (``for x in xs: yield x``); a
        sim-coroutine delegates (``yield from``), yields calls or
        attributes (``yield sim.timeout(...)``, ``yield rx.reply``),
        consumes the sent value (``req = yield get``), or yields a name
        bound from a kernel event factory.
        """
        event_names: Set[str] = set()
        for node in own:
            if (isinstance(node, ast.Assign)
                    and len(node.targets) == 1
                    and isinstance(node.targets[0], ast.Name)
                    and isinstance(node.value, ast.Call)
                    and isinstance(node.value.func, ast.Attribute)
                    and node.value.func.attr in _EVENT_FACTORY_ATTRS):
                event_names.add(node.targets[0].id)
        for node in yields:
            if isinstance(node, ast.YieldFrom):
                return True
            value = node.value
            if isinstance(value, (ast.Call, ast.Attribute)):
                return True
            if not isinstance(self.module.parent(node), ast.Expr):
                return True  # the yield's value is consumed
            if isinstance(value, ast.Name) and value.id in event_names:
                return True
        return False

    # -- spawner detection -----------------------------------------------

    def _param_names(self) -> Set[str]:
        args = self.node.args
        names = {a.arg for a in args.args + args.kwonlyargs
                 + getattr(args, "posonlyargs", [])}
        names.discard("self")
        return names

    def _detect_spawner(self, own: Sequence[ast.AST]) -> bool:
        params = self._param_names()
        if not params:
            return False
        for node in own:
            if isinstance(node, ast.Call) and _is_process_call(node):
                if node.args and isinstance(node.args[0], ast.Name) \
                        and node.args[0].id in params:
                    return True
        return False

    def spawner_forward_targets(self) -> Iterator[Tuple[str, str]]:
        """(param, callee_name) pairs where a parameter is forwarded as
        the first argument of another project call — candidate
        transitive spawners, resolved by the index's fixed point."""
        params = self._param_names()
        if not params:
            return
        for node in self._own_nodes():
            if (isinstance(node, ast.Call) and not _is_process_call(node)
                    and node.args and isinstance(node.args[0], ast.Name)
                    and node.args[0].id in params):
                name = _call_name(node)
                if name is not None:
                    yield node.args[0].id, name

    # -- lock spans --------------------------------------------------------

    def _extract_lock_spans(self, own: Sequence[ast.AST]
                            ) -> List[Tuple[str, str, int, int]]:
        """``var = <recv>.acquire()/.request()`` → (unparse(recv), var,
        acquire line, last release/abort/cancel(var) line — or the end
        of the function when no textual release exists)."""
        spans = []
        releases: Dict[str, int] = {}
        for node in own:
            if (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr in ("release", "abort", "cancel")
                    and node.args and isinstance(node.args[0], ast.Name)):
                var = node.args[0].id
                releases[var] = max(releases.get(var, 0), node.lineno)
        for node in own:
            if (isinstance(node, ast.Assign)
                    and len(node.targets) == 1
                    and isinstance(node.targets[0], ast.Name)
                    and isinstance(node.value, ast.Call)
                    and isinstance(node.value.func, ast.Attribute)
                    and node.value.func.attr in ("acquire", "request")):
                var = node.targets[0].id
                lock_id = ast.unparse(node.value.func.value)
                end = releases.get(var, self.end_line)
                spans.append((lock_id, var, node.lineno, max(end,
                                                             node.lineno)))
        spans.sort(key=lambda s: s[2])
        return spans


class CallGraphIndex:
    """Project-wide function summaries plus the fixed points over them."""

    def __init__(self, modules: Sequence[Module]):
        self.summaries: List[FunctionSummary] = []
        self.by_name: Dict[str, List[FunctionSummary]] = {}
        for module in sorted(modules, key=lambda m: m.path):
            for func in module.functions():
                summary = FunctionSummary(module, func)
                self.summaries.append(summary)
                self.by_name.setdefault(summary.name, []).append(summary)
        # Class name → every project definition declares __slots__
        # (PERF001 needs to know whether a *base* is slotted: a
        # __dict__-carrying base makes slots in the subclass cosmetic).
        self._class_slots: Dict[str, bool] = {}
        for module in sorted(modules, key=lambda m: m.path):
            self._index_class_slots(module)
        self._propagate_may_yield()
        self._spawner_names = self._propagate_spawners()

    def _index_class_slots(self, module: Module) -> None:
        for node in module.nodes_of_type(ast.ClassDef):
            has = any(
                isinstance(target, ast.Name) and target.id == "__slots__"
                for stmt in node.body
                if isinstance(stmt, (ast.Assign, ast.AnnAssign))
                for target in (stmt.targets if isinstance(stmt, ast.Assign)
                               else [stmt.target]))
            previous = self._class_slots.get(node.name, True)
            self._class_slots[node.name] = previous and has

    # -- queries -----------------------------------------------------------

    def class_has_slots(self, name: str) -> bool:
        """True when every project definition of class ``name``
        declares ``__slots__`` (unknown names are False)."""
        return self._class_slots.get(name, False)

    def may_yield_name(self, name: str) -> bool:
        """True when every known definition of ``name`` can suspend the
        calling process (ambiguous names are excluded)."""
        defs = self.by_name.get(name)
        return bool(defs) and all(s.may_yield for s in defs)

    def is_spawner_name(self, name: str) -> bool:
        """True when some definition of ``name`` forwards an argument
        into ``sim.process`` (erring toward not flagging)."""
        return name in self._spawner_names

    def summary_for(self, node: ast.FunctionDef
                    ) -> Optional[FunctionSummary]:
        """The summary of a specific def node."""
        for summary in self.by_name.get(node.name, ()):
            if summary.node is node:
                return summary
        return None

    # -- fixed points ------------------------------------------------------

    def _propagate_may_yield(self) -> None:
        """A plain def may-yield if it returns a may-yield call's result
        (a delegation wrapper: the caller gets the generator to drive).
        Monotonic, so iterate to the fixed point."""
        changed = True
        while changed:
            changed = False
            for summary in self.summaries:
                if summary.may_yield or summary.is_generator:
                    continue
                for node in summary._own_nodes():
                    if (isinstance(node, ast.Return)
                            and isinstance(node.value, ast.Call)):
                        name = _call_name(node.value)
                        if name is not None and self.may_yield_name(name):
                            summary.may_yield = True
                            changed = True
                            break

    def _propagate_spawners(self) -> Set[str]:
        """Names that (possibly through one another) forward an argument
        into ``sim.process``."""
        spawners = {s.name for s in self.summaries if s.is_spawner}
        changed = True
        while changed:
            changed = False
            for summary in self.summaries:
                if summary.name in spawners:
                    continue
                for _param, callee in summary.spawner_forward_targets():
                    if callee in spawners:
                        spawners.add(summary.name)
                        changed = True
                        break
        return spawners
