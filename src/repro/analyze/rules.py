"""The SIM rules: DES-specific correctness checks.

Each rule is a callable ``rule(module) -> Iterator[Finding]``.  They
are deliberately high-precision: every pattern flagged here is a bug
class that has *no* runtime symptom in the kernel — the simulation
keeps running and produces wrong numbers.

=======  ==========================================================
Code     What it catches
=======  ==========================================================
SIM002   ``acquire``/``request`` whose wait or release is not
         protected by ``try/finally`` on all paths (lock leak on
         the interrupt path)
SIM003   nondeterminism: ``random.*`` / wall-clock reads /
         ``os.urandom`` / iteration over an unordered ``set``
SIM004   ``except Interrupt:`` that swallows the interrupt and
         keeps running (breaks crash-injection semantics)
SIM005   wall-clock vs simulated-time confusion: accumulating
         ``sim.now`` deltas in a loop, or ``time.sleep`` in
         simulation code
SIM006   same ``self.*`` field written before and after a yield
         with no lock held across it (torn read-modify-write) —
         see :mod:`repro.analyze.atomicity`
SIM007   coroutine created and never driven: a discarded call, or
         a non-generator that binds or consumes it without spawning
         it — see :mod:`repro.analyze.atomicity`
=======  ==========================================================
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro.analyze.atomicity import rule_sim006, rule_sim007
from repro.analyze.linter import Finding, Module

__all__ = ["ALL_RULES", "RULE_CODES", "rule_sim002", "rule_sim003",
           "rule_sim004", "rule_sim005", "rule_sim006", "rule_sim007"]


# ---------------------------------------------------------------------------
# SIM002
# ---------------------------------------------------------------------------

def _call_attr(node: ast.AST) -> Optional[str]:
    """``x.y(...)`` → ``'y'``, else None."""
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
        return node.func.attr
    return None


def _first_arg_name(call: ast.Call) -> Optional[str]:
    if call.args and isinstance(call.args[0], ast.Name):
        return call.args[0].id
    return None


def _handler_reraises(handler: ast.ExceptHandler) -> bool:
    return any(isinstance(n, ast.Raise) for n in ast.walk(handler))


def rule_sim002(module: Module) -> Iterator[Finding]:
    """SIM002: ``var = x.acquire()`` / ``x.request()`` without a
    try/finally-protected release on all paths.

    Three things must hold inside the acquiring function:

    1. the request is released (``release``/``abort``/``cancel``)
       somewhere;
    2. some ``release``/``abort`` sits in a ``finally`` block (or in an
       ``except`` handler that re-raises) — a bare release after the
       critical section leaks the lock whenever the body raises;
    3. every direct ``yield var`` wait on the request is inside a
       ``try`` whose ``finally`` or re-raising ``except`` cleans ``var``
       up — an :class:`~repro.sim.kernel.Interrupt` delivered *while
       waiting* otherwise leaks the queued request.
    """
    for func in module.functions():
        acquires: List[Tuple[str, ast.Assign]] = []
        for node in ast.walk(func):
            if module.enclosing_function(node) is not func:
                continue
            if (isinstance(node, ast.Assign)
                    and len(node.targets) == 1
                    and isinstance(node.targets[0], ast.Name)
                    and _call_attr(node.value) in ("acquire", "request")):
                acquires.append((node.targets[0].id, node))

        if not acquires:
            continue

        # All cleanup calls in this function, by request variable name.
        releases: Dict[str, List[ast.Call]] = {}
        for node in ast.walk(func):
            if module.enclosing_function(node) is not func:
                continue
            attr = _call_attr(node)
            if attr in ("release", "abort", "cancel"):
                var = _first_arg_name(node)
                if var is not None:
                    releases.setdefault(var, []).append(node)

        for var, assign in acquires:
            cleanup = releases.get(var, [])
            if not cleanup:
                yield module.finding(
                    assign, "SIM002",
                    f"{var!r} is acquired but never released/aborted in "
                    f"this function — wrap the critical section in "
                    f"try/finally")
                continue
            if not any(_is_protected_cleanup(module, call, var)
                       for call in cleanup):
                yield module.finding(
                    assign, "SIM002",
                    f"release of {var!r} is not in a 'finally' block — an "
                    f"exception inside the critical section leaks the lock")
                continue
            bad_wait = _unprotected_wait(module, func, var)
            if bad_wait is not None:
                yield module.finding(
                    bad_wait, "SIM002",
                    f"'yield {var}' waits on the acquired request outside "
                    f"try/finally — an Interrupt during the wait leaks it; "
                    f"guard with 'except BaseException: abort; raise' or a "
                    f"finally that releases {var!r}")


def _is_protected_cleanup(module: Module, call: ast.Call, var: str) -> bool:
    """Is this release/abort call inside a finally, or inside an except
    handler that re-raises?"""
    node: ast.AST = call
    for anc in module.ancestors(call):
        if isinstance(anc, ast.Try) and _in_block(anc.finalbody, node):
            return True
        if isinstance(anc, ast.ExceptHandler) and _handler_reraises(anc):
            return True
        if isinstance(anc, (ast.FunctionDef, ast.AsyncFunctionDef)):
            break
        node = anc
    return False


def _in_block(block: Sequence[ast.stmt], node: ast.AST) -> bool:
    return any(stmt is node or node in ast.walk(stmt) for stmt in block)


def _unprotected_wait(module: Module, func: ast.FunctionDef,
                      var: str) -> Optional[ast.AST]:
    """The first ``yield var`` not covered by a cleaning try, if any."""
    for node in ast.walk(func):
        if module.enclosing_function(node) is not func:
            continue
        if (isinstance(node, ast.Yield) and isinstance(node.value, ast.Name)
                and node.value.id == var):
            if not _wait_is_protected(module, node, var):
                return node
    return None


def _wait_is_protected(module: Module, wait: ast.Yield, var: str) -> bool:
    child: ast.AST = wait
    for anc in module.ancestors(wait):
        if isinstance(anc, ast.Try):
            in_body = _in_block(anc.body, child)
            if in_body and _try_cleans_up(anc, var):
                return True
        if isinstance(anc, (ast.FunctionDef, ast.AsyncFunctionDef)):
            break
        child = anc
    return False


def _try_cleans_up(try_node: ast.Try, var: str) -> bool:
    """Does this try's finally (or a re-raising except) release ``var``?"""
    def block_cleans(block: Sequence[ast.stmt]) -> bool:
        for stmt in block:
            for node in ast.walk(stmt):
                if (_call_attr(node) in ("release", "abort", "cancel")
                        and _first_arg_name(node) == var):
                    return True
        return False

    if block_cleans(try_node.finalbody):
        return True
    return any(_handler_reraises(h) and block_cleans(h.body)
               for h in try_node.handlers)


# ---------------------------------------------------------------------------
# SIM003
# ---------------------------------------------------------------------------

# module attribute → why it's banned
_FORBIDDEN_MODULE_CALLS = {
    ("random", None): "use a seeded RandomStream instead of the global "
                      "'random' module",
    ("time", "time"): "wall-clock read in simulation code — use 'sim.now'",
    ("time", "monotonic"): "wall-clock read — use 'sim.now'",
    ("time", "perf_counter"): "wall-clock read — use 'sim.now'",
    ("time", "time_ns"): "wall-clock read — use 'sim.now'",
    ("os", "urandom"): "OS entropy is unseedable — use RandomStream",
    ("uuid", "uuid4"): "random UUIDs are unseedable — derive ids from "
                       "RandomStream or a counter",
    ("uuid", "uuid1"): "uuid1 mixes in wall-clock and MAC — derive ids "
                       "deterministically",
}

_DATETIME_NOW = {"now", "utcnow", "today"}


def rule_sim003(module: Module) -> Iterator[Finding]:
    """SIM003: sources of nondeterminism.

    Flags the global ``random`` module (import and calls), wall-clock
    reads (``time.time()``, ``datetime.now()``, ...), ``os.urandom``,
    random UUIDs, and ``for``-iteration directly over an unordered
    ``set`` (when the iteration order can feed scheduling decisions,
    two runs with the same seed diverge).  Deterministic replacements:
    :class:`~repro.sim.distributions.RandomStream`, ``sim.now``, and
    ``sorted(...)``.
    """
    # Which local names are the modules we care about?
    aliases: Dict[str, str] = {}
    for local, modname in module.module_imports.items():
        root = modname.split(".")[0]
        if root in ("random", "time", "os", "uuid", "datetime"):
            aliases[local] = root

    for node in module.nodes:
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "random":
                    yield module.finding(
                        node, "SIM003",
                        "import of the global 'random' module — use a "
                        "seeded RandomStream")
        elif isinstance(node, ast.ImportFrom):
            if node.module and node.module.split(".")[0] == "random":
                yield module.finding(
                    node, "SIM003",
                    "import from the global 'random' module — use a "
                    "seeded RandomStream")
        elif isinstance(node, ast.Call):
            found = _forbidden_call(node, aliases)
            if found is not None:
                yield module.finding(node, "SIM003", found)
        elif isinstance(node, (ast.For, ast.comprehension)):
            target = node.iter
            reason = _unordered_set_iter(module, node, target)
            if reason is not None:
                anchor = node if isinstance(node, ast.For) else target
                yield module.finding(
                    anchor, "SIM003",
                    f"iteration over {reason} has no deterministic order — "
                    f"wrap it in sorted(...)")


def _forbidden_call(call: ast.Call, aliases: Dict[str, str]) -> Optional[str]:
    func = call.func
    if not isinstance(func, ast.Attribute):
        return None
    base = func.value
    # random.<anything>(...)
    if isinstance(base, ast.Name) and aliases.get(base.id) == "random":
        return (f"'random.{func.attr}()' breaks seeded reproducibility — "
                f"use RandomStream")
    if isinstance(base, ast.Name):
        root = aliases.get(base.id)
        why = _FORBIDDEN_MODULE_CALLS.get((root, func.attr))
        if why is not None:
            return f"'{base.id}.{func.attr}()': {why}"
        if root == "datetime" and func.attr in _DATETIME_NOW:
            return (f"'{base.id}.{func.attr}()' reads the wall clock — "
                    f"use 'sim.now'")
    # datetime.datetime.now(...)
    if (isinstance(base, ast.Attribute) and isinstance(base.value, ast.Name)
            and aliases.get(base.value.id) == "datetime"
            and func.attr in _DATETIME_NOW):
        return (f"'{base.value.id}.{base.attr}.{func.attr}()' reads the "
                f"wall clock — use 'sim.now'")
    return None


def _unordered_set_iter(module: Module, loop: ast.AST,
                        target: ast.AST) -> Optional[str]:
    """Name the unordered set being iterated, or None."""
    if isinstance(target, ast.Set):
        return "a set literal"
    if isinstance(target, ast.SetComp):
        return "a set comprehension"
    if (isinstance(target, ast.Call) and isinstance(target.func, ast.Name)
            and target.func.id in ("set", "frozenset")):
        return f"a {target.func.id}(...)"
    if isinstance(target, ast.Name):
        func = module.enclosing_function(loop)
        if func is None:
            return None
        assigned_set = False
        for node in ast.walk(func):
            if (isinstance(node, ast.Assign)
                    and any(isinstance(t, ast.Name) and t.id == target.id
                            for t in node.targets)):
                value = node.value
                if (isinstance(value, (ast.Set, ast.SetComp))
                        or (isinstance(value, ast.Call)
                            and isinstance(value.func, ast.Name)
                            and value.func.id in ("set", "frozenset"))):
                    assigned_set = True
                else:
                    return None  # rebound to something else: ambiguous
        if assigned_set:
            return f"set {target.id!r}"
    return None


# ---------------------------------------------------------------------------
# SIM004
# ---------------------------------------------------------------------------

def _catches_interrupt(handler: ast.ExceptHandler) -> bool:
    t = handler.type
    names: List[ast.AST] = []
    if t is None:
        return False
    if isinstance(t, ast.Tuple):
        names.extend(t.elts)
    else:
        names.append(t)
    for name in names:
        if isinstance(name, ast.Name) and name.id == "Interrupt":
            return True
        if isinstance(name, ast.Attribute) and name.attr == "Interrupt":
            return True
    return False


def _is_trivial_body(body: Sequence[ast.stmt]) -> bool:
    """Only pass / constants / continue / break — no cleanup action."""
    for stmt in body:
        if isinstance(stmt, (ast.Pass, ast.Continue, ast.Break)):
            continue
        if isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Constant):
            continue  # docstring/ellipsis
        return False
    return True


def _execution_continues_after(module: Module, try_node: ast.Try) -> bool:
    """Does control keep running in this process after the handler?

    True when the ``try`` sits inside a loop, or when any enclosing
    block has statements after it — i.e. swallowing the interrupt does
    *not* simply fall off the end of the generator (which would be a
    clean process death, the kernel's normal crash path).
    """
    node: ast.AST = try_node
    for anc in module.ancestors(try_node):
        if isinstance(anc, (ast.For, ast.While)):
            return True
        for block in (getattr(anc, "body", None), getattr(anc, "orelse", None),
                      getattr(anc, "finalbody", None)):
            if block and node in block and block[-1] is not node:
                return True
        if isinstance(anc, (ast.FunctionDef, ast.AsyncFunctionDef)):
            return False
        node = anc
    return False


def rule_sim004(module: Module) -> Iterator[Finding]:
    """SIM004: ``except Interrupt:`` that swallows the kill signal.

    Crash injection delivers an :class:`Interrupt`; a handler with no
    cleanup, no re-raise and no return *inside a loop* (or with code
    after it) keeps the process alive — the "crashed" server keeps
    serving, and recovery measurements are garbage.  Swallowing at the
    very end of a generator is fine: the process falls off the end and
    dies cleanly (the kernel's documented fire-and-forget idiom).
    """
    for node in module.nodes:
        if not isinstance(node, ast.ExceptHandler):
            continue
        if not _catches_interrupt(node):
            continue
        if any(isinstance(n, (ast.Raise, ast.Return)) for n in ast.walk(node)):
            continue
        if not _is_trivial_body(node.body):
            continue  # performs some cleanup action
        try_node = module.parent(node)
        if isinstance(try_node, ast.Try) and _execution_continues_after(
                module, try_node):
            yield module.finding(
                node, "SIM004",
                "'except Interrupt:' swallows the kill signal and the "
                "process keeps running — re-raise, return, or clean up")


# ---------------------------------------------------------------------------
# SIM005
# ---------------------------------------------------------------------------

def _mentions_sim_now(node: ast.AST) -> bool:
    for sub in ast.walk(node):
        if isinstance(sub, ast.Attribute) and sub.attr == "now":
            base = sub.value
            if isinstance(base, ast.Name) and base.id in ("sim", "env"):
                return True
            if isinstance(base, ast.Attribute) and base.attr in ("sim", "env"):
                return True
    return False


def rule_sim005(module: Module) -> Iterator[Finding]:
    """SIM005: simulated-time arithmetic where scheduling belongs.

    * ``x += ... sim.now ...`` inside a loop — accumulating float
      deltas of the clock drifts (and reads the clock at the wrong
      instants); sleep (``yield sim.sleep(...)``) and let the kernel advance
      time exactly.
    * ``time.sleep(...)`` — wall-clock sleep inside simulation code
      stalls the real process and does nothing to simulated time.
    """
    aliases = {local: mod for local, mod in module.module_imports.items()
               if mod.split(".")[0] == "time"}
    for node in module.nodes:
        if isinstance(node, ast.AugAssign) and isinstance(
                node.op, (ast.Add, ast.Sub)):
            if _mentions_sim_now(node.value) and any(
                    isinstance(anc, (ast.For, ast.While))
                    for anc in module.ancestors(node)):
                yield module.finding(
                    node, "SIM005",
                    "accumulating 'sim.now' deltas in a loop — schedule "
                    "'yield sim.sleep(...)' instead of clock arithmetic")
        elif isinstance(node, ast.Call):
            func = node.func
            if (isinstance(func, ast.Attribute) and func.attr == "sleep"
                    and isinstance(func.value, ast.Name)
                    and func.value.id in aliases):
                yield module.finding(
                    node, "SIM005",
                    "'time.sleep()' sleeps the wall clock, not simulated "
                    "time — use 'yield sim.sleep(...)'")


ALL_RULES = (rule_sim002, rule_sim003, rule_sim004, rule_sim005,
             rule_sim006, rule_sim007)
RULE_CODES = {
    "SIM002": rule_sim002,
    "SIM003": rule_sim003,
    "SIM004": rule_sim004,
    "SIM005": rule_sim005,
    "SIM006": rule_sim006,
    "SIM007": rule_sim007,
}
