"""Yield-point atomicity and coroutine-driving rules (SIM006, SIM007).

These rules consume the project-wide :class:`~repro.analyze.callgraph.
CallGraphIndex` (built by the driver and attached as
``module.callgraph``):

=======  ==========================================================
Code     What it catches
=======  ==========================================================
SIM006   a coroutine writes the same ``self.*`` field both before
         and after a yield point with no lock held across it — the
         read-modify-write is torn by whatever ran in between
SIM007   a may-yield call whose coroutine is never driven: its
         result discarded as a statement (in any function), or, in
         a plain function, bound or consumed without spawning it —
         the simulated work is silently skipped or runs outside
         the kernel
=======  ==========================================================

Both inherit the driver's precision-first stance: name-level
resolution, every-definition-agrees semantics, and mutually exclusive
branches (if/else arms, distinct except handlers) never pair.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Tuple

from repro.analyze.callgraph import (CallGraphIndex, SYNC_DRIVERS,
                                     _BUILTIN_METHOD_NAMES, _call_name,
                                     _is_process_call)
from repro.analyze.linter import Finding, Module

__all__ = ["rule_sim006", "rule_sim007"]


# ---------------------------------------------------------------------------
# branch exclusivity — shared by SIM006
# ---------------------------------------------------------------------------

def _in_block(block, node: ast.AST) -> bool:
    return any(stmt is node or node in ast.walk(stmt) for stmt in block)


def _branch_marks(module: Module, node: ast.AST) -> Dict[int, Tuple[str, str]]:
    """For each If/Try ancestor, which arm ``node`` sits in."""
    marks: Dict[int, Tuple[str, str]] = {}
    child: ast.AST = node
    for anc in module.ancestors(node):
        if isinstance(anc, ast.If):
            if _in_block(anc.body, child):
                marks[id(anc)] = ("if", "body")
            elif _in_block(anc.orelse, child):
                marks[id(anc)] = ("if", "orelse")
        elif isinstance(anc, ast.Try):
            for i, handler in enumerate(anc.handlers):
                if child is handler or _in_block([handler], child):
                    marks[id(anc)] = ("try", f"handler{i}")
                    break
        elif isinstance(anc, (ast.FunctionDef, ast.AsyncFunctionDef)):
            break
        child = anc
    return marks


def _mutually_exclusive(module: Module, a: ast.AST, b: ast.AST) -> bool:
    """Can ``a`` and ``b`` never both execute in one pass?  True when a
    common If ancestor puts them in opposite arms, or a common Try puts
    them in different except handlers."""
    marks_a = _branch_marks(module, a)
    marks_b = _branch_marks(module, b)
    for key, arm_a in marks_a.items():
        arm_b = marks_b.get(key)
        if arm_b is not None and arm_a != arm_b:
            return True
    return False


# ---------------------------------------------------------------------------
# SIM006
# ---------------------------------------------------------------------------

def _self_attr_key(target: ast.AST) -> Optional[str]:
    """``self.x`` or ``self.x[...]`` as an assignment target → 'self.x'."""
    node = target
    if isinstance(node, ast.Subscript):
        node = node.value
    if (isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name) and node.value.id == "self"):
        return f"self.{node.attr}"
    return None


def rule_sim006(module: Module) -> Iterator[Finding]:
    """SIM006: non-atomic read-modify-write of shared state across a
    yield point.

    In a coroutine, everything between two yields runs atomically; a
    write to ``self.x`` before a yield and again after it is only
    correct if no other process touches ``self.x`` in between — which
    nothing enforces unless a lock is held across the yield.  Flags
    the pattern *unless* the intervening yield lies inside a lock span
    (``token = lock.acquire()`` … ``lock.release(token)``) of this
    function, or the two writes are on mutually exclusive branches.
    """
    cg: Optional[CallGraphIndex] = getattr(module, "callgraph", None)
    if cg is None:
        return
    for func in module.functions():
        summary = cg.summary_for(func)
        if summary is None or not summary.is_sim_coroutine:
            continue
        # Writes to self.* fields, in textual order.
        writes: Dict[str, List[ast.AST]] = {}
        for node in summary._own_nodes():
            targets = []
            if isinstance(node, ast.Assign):
                targets = node.targets
            elif isinstance(node, ast.AugAssign):
                targets = [node.target]
            for target in targets:
                key = _self_attr_key(target)
                if key is not None:
                    writes.setdefault(key, []).append(node)
        covered = summary.lock_spans  # (lock_id, var, start, end)
        for key, nodes in sorted(writes.items()):
            if len(nodes) < 2:
                continue
            nodes.sort(key=lambda n: n.lineno)
            found = _uncovered_pair(module, nodes, summary.yield_lines,
                                    covered)
            if found is not None:
                first, yline, second = found
                yield module.finding(
                    second, "SIM006",
                    f"{key!r} is written before the yield at line {yline} "
                    f"and again here with no lock held across it — the "
                    f"update is torn by whatever runs at the yield; hold a "
                    f"lock across the section or recompute after the yield")
                break  # one finding per function per field set


def _uncovered_pair(module: Module, writes: List[ast.AST],
                    yield_lines: List[int],
                    spans) -> Optional[Tuple[ast.AST, int, ast.AST]]:
    """The first (write, yield-line, write) triple whose yield is not
    inside any lock span and whose nodes are not branch-exclusive."""
    for i, first in enumerate(writes):
        for second in writes[i + 1:]:
            for yline in yield_lines:
                if not first.lineno < yline < second.lineno:
                    continue
                if any(start <= yline <= end
                       for _lock, _var, start, end in spans):
                    continue
                if (_mutually_exclusive(module, first, second)
                        or _yield_exclusive(module, first, second, yline)):
                    continue
                return first, yline, second
    return None


def _yield_exclusive(module: Module, first: ast.AST, second: ast.AST,
                     yline: int) -> bool:
    """Is the yield at ``yline`` branch-exclusive with either write?"""
    for node in ast.walk(module.tree):
        if (isinstance(node, (ast.Yield, ast.YieldFrom))
                and node.lineno == yline):
            if (_mutually_exclusive(module, first, node)
                    or _mutually_exclusive(module, node, second)):
                return True
    return False


# ---------------------------------------------------------------------------
# SIM007
# ---------------------------------------------------------------------------

def rule_sim007(module: Module) -> Iterator[Finding]:
    """SIM007: a may-yield call whose coroutine is never driven.

    Calling a sim-coroutine (or a wrapper that returns one) only
    creates a generator object.  As a bare statement — in any
    function, coroutine or not — that object is discarded and the
    simulated work silently never happens.  In a plain function,
    consuming it with ``list``/``sum``/a ``for`` loop executes the body
    *without the kernel* — yields of Events come back as opaque objects
    and no simulated time passes.  ``yield from``, passing it into
    ``sim.process(...)`` (or any spawner) and returning it to a caller
    are the legitimate exits and are never flagged.
    """
    cg: Optional[CallGraphIndex] = getattr(module, "callgraph", None)
    if cg is None:
        return
    for func in module.functions():
        summary = cg.summary_for(func)
        if summary is None:
            continue
        for node in summary._own_nodes():
            if not isinstance(node, ast.Call):
                continue
            name = _call_name(node)
            if name is None or not cg.may_yield_name(name):
                continue
            if (isinstance(node.func, ast.Attribute)
                    and name in _BUILTIN_METHOD_NAMES):
                continue
            if isinstance(module.parent(node), ast.Expr):
                verdict = (f"call to may-yield {name!r} is discarded — the "
                           f"coroutine it returns never runs; 'yield from' "
                           f"it or spawn it with 'sim.process(...)'")
            elif summary.is_generator:
                continue  # a coroutine may 'yield from' what it binds
            else:
                verdict = _classify_context(module, cg, summary, node, name)
            if verdict is not None:
                yield module.finding(node, "SIM007", verdict)


def _classify_context(module: Module, cg: CallGraphIndex, summary,
                      call: ast.Call, name: str) -> Optional[str]:
    """A message when this may-yield call in a plain function is
    misused, else None."""
    parent = module.parent(call)
    if isinstance(parent, ast.Return):
        return None  # delegation: the caller decides how to drive it
    if isinstance(parent, ast.For) and parent.iter is call:
        return (f"iterating may-yield {name!r} in a non-generator drives "
                f"the coroutine without the kernel — Events are never "
                f"waited on and simulated time does not advance; spawn it "
                f"with 'sim.process(...)'")
    if isinstance(parent, ast.Call) and call in parent.args:
        if _is_process_call(parent):
            return None
        outer = _call_name(parent)
        if outer is not None and cg.is_spawner_name(outer):
            return None
        if (isinstance(parent.func, ast.Name)
                and parent.func.id in SYNC_DRIVERS):
            return (f"'{parent.func.id}(...)' consumes may-yield {name!r} "
                    f"synchronously — the coroutine runs outside the "
                    f"kernel; spawn it with 'sim.process(...)'")
        return None  # handed to an unknown callee: assume it spawns
    if (isinstance(parent, ast.Assign) and len(parent.targets) == 1
            and isinstance(parent.targets[0], ast.Name)):
        var = parent.targets[0].id
        if _var_escapes(module, summary, var, parent):
            return None
        return (f"result of may-yield {name!r} is bound to {var!r} but "
                f"never spawned or returned — the coroutine never runs; "
                f"pass it to 'sim.process(...)' or return it")
    return None


def _var_escapes(module: Module, summary, var: str,
                 binding: ast.Assign) -> bool:
    """Does ``var`` reach a spawner, a return, or any other call?"""
    for node in summary._own_nodes():
        if isinstance(node, ast.Return) and node.value is not None:
            if any(isinstance(n, ast.Name) and n.id == var
                   for n in ast.walk(node.value)):
                return True
        if isinstance(node, ast.Call) and node is not binding.value:
            in_args = any(isinstance(a, ast.Name) and a.id == var
                          for a in list(node.args)
                          + [k.value for k in node.keywords])
            if in_args:
                return True  # spawned, stored, or at least handed off
    return False
