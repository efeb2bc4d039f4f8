"""The PERF rules: profile-guided hot-path waste detection.

Where the SIM rules catch *correctness* bugs with no runtime symptom,
the PERF rules catch *cost* with no correctness symptom: allocation,
indirection, and formatting work that the interpreter performs on
every kernel event and throws away.  Each pattern here was found by
profiling the canonical fig4 cell (``python -m repro.analyze.profilehot``)
and each is scoped to the profile's hot set (:mod:`repro.analyze.profilehot`)
— outside the hot set the same code is fine and flagging it would be
noise.  Without a hot set (``module.hotset is None``) the rules run
unscoped, which is how the fixtures exercise them.

=======  ==========================================================
Code     What it catches
=======  ==========================================================
PERF001  an event-path class without ``__slots__`` (per-instance
         ``__dict__`` allocation + slower attribute access)
PERF002  per-event allocation: a lambda / nested def rebuilt per
         call, or a dict built per loop iteration
PERF003  the same ``a.b.c`` attribute chain read 3+ times in one
         loop body — hoist the receiver into a local
PERF004  a generator that only delegates (``yield from`` one call)
         — a pure trampoline frame on every resume
PERF005  an f-string race label built even when recording is off —
         guard with ``if x.race.enabled:``
=======  ==========================================================

Intentional instances carry ``# simlint: disable=PERFxxx <why>`` on
the flagged line, same as the SIM rules.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Set, Tuple

from repro.analyze.linter import Finding, Module

__all__ = ["PERF_RULES", "PERF_RULE_CODES", "rule_perf001", "rule_perf002",
           "rule_perf003", "rule_perf004", "rule_perf005"]


def _function_in_scope(module: Module, func: ast.AST) -> bool:
    """Whether a def is in the PERF rules' scope (hot, or no profile)."""
    hotset = module.hotset
    return hotset is None or hotset.function_is_hot(module.path, func)


def _class_in_scope(module: Module, cls: ast.ClassDef) -> bool:
    hotset = module.hotset
    return hotset is None or hotset.class_is_hot(module.path, cls)


def _scoped_functions(module: Module) -> Iterator[ast.FunctionDef]:
    for func in module.functions():
        if _function_in_scope(module, func):
            yield func


# ---------------------------------------------------------------------------
# PERF001 — missing __slots__ on event-path classes
# ---------------------------------------------------------------------------

# Base classes that make __slots__ pointless, wrong, or someone else's
# decision: exception hierarchies allocate rarely and carry args;
# typing/enum machinery manages its own layout.
_SLOTS_EXEMPT_BASES = frozenset({
    "BaseException", "Exception", "Protocol", "Enum", "IntEnum", "Flag",
    "IntFlag", "NamedTuple", "TypedDict", "ABC", "SimpleNamespace",
})

# Class decorators that manage instance layout themselves (dataclasses
# need slots=True at the decorator, not a __slots__ statement) — skip,
# except @guarded_by, which only sets a class attribute.
_LAYOUT_DECORATORS_OK = frozenset({"guarded_by"})


def _has_slots(cls: ast.ClassDef) -> bool:
    for stmt in cls.body:
        targets = []
        if isinstance(stmt, ast.Assign):
            targets = stmt.targets
        elif isinstance(stmt, ast.AnnAssign):
            targets = [stmt.target]
        for target in targets:
            if isinstance(target, ast.Name) and target.id == "__slots__":
                return True
    return False


def _base_name(base: ast.AST) -> Optional[str]:
    if isinstance(base, ast.Name):
        return base.id
    if isinstance(base, ast.Attribute):
        return base.attr
    return None


def _decorator_name(dec: ast.AST) -> Optional[str]:
    node = dec.func if isinstance(dec, ast.Call) else dec
    return _base_name(node)


def rule_perf001(module: Module) -> Iterator[Finding]:
    """PERF001: an event-path class without ``__slots__``.

    A slot-less instance carries a per-instance ``__dict__`` — one
    extra allocation at construction and a hash lookup on every
    attribute access.  For classes instantiated or exercised per event
    (requests, log entries, probes) that cost is paid millions of
    times per run.  Flagged only when the class is in the hot set and
    every base is itself slotted (a ``__dict__``-carrying base makes
    ``__slots__`` cosmetic); exception types and typing/enum machinery
    are exempt.
    """
    callgraph = module.callgraph
    for node in module.nodes_of_type(ast.ClassDef):
        if _has_slots(node):
            continue
        if not _class_in_scope(module, node):
            continue
        decorators = [_decorator_name(d) for d in node.decorator_list]
        if any(d not in _LAYOUT_DECORATORS_OK for d in decorators):
            continue
        skip = False
        for base in node.bases:
            name = _base_name(base)
            if name is None or name in _SLOTS_EXEMPT_BASES \
                    or name.endswith(("Error", "Warning", "Exception")):
                skip = True
                break
            if name != "object" and not (
                    callgraph is not None
                    and callgraph.class_has_slots(name)):
                # Unknown or unslotted base: slots here buy nothing.
                skip = True
                break
        if skip:
            continue
        yield module.finding(
            node, "PERF001",
            f"class {node.name!r} is on the event path but has no "
            f"'__slots__' — every instance allocates a __dict__; "
            f"declare '__slots__ = (...)'")


# ---------------------------------------------------------------------------
# PERF002 — per-event allocation
# ---------------------------------------------------------------------------

def _own_nodes_of(func: ast.AST) -> List[ast.AST]:
    """Nodes in a def's own scope, nested defs/lambdas excluded (but
    the nested def/lambda node itself included, for flagging)."""
    found: List[ast.AST] = []
    stack: List[ast.AST] = list(ast.iter_child_nodes(func))
    while stack:
        node = stack.pop()
        found.append(node)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.Lambda)):
            continue
        stack.extend(ast.iter_child_nodes(node))
    return found


def _enclosing_loop(module: Module, node: ast.AST,
                    within: ast.AST) -> Optional[ast.AST]:
    """The nearest For/While around ``node`` that is inside ``within``."""
    for anc in module.ancestors(node):
        if anc is within:
            return None
        if isinstance(anc, (ast.For, ast.While)):
            return anc
    return None


def rule_perf002(module: Module) -> Iterator[Finding]:
    """PERF002: allocation performed per event that could happen once.

    Two shapes, both in hot functions only:

    * a ``lambda`` or nested ``def`` — CPython materializes a fresh
      function (and closure cells) every time the enclosing call runs;
      hoist it to module/class level or pass a bound method;
    * a dict display or dict/set comprehension *inside a loop* whose
      contents don't depend on the loop variable's identity — build it
      once before the loop.
    """
    for func in _scoped_functions(module):
        own = _own_nodes_of(func)
        for node in own:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield module.finding(
                    node, "PERF002",
                    f"nested def {node.name!r} is rebuilt (with closure "
                    f"cells) on every call of {func.name!r} — hoist it or "
                    f"use a bound method")
            elif isinstance(node, ast.Lambda):
                yield module.finding(
                    node, "PERF002",
                    f"lambda allocated on every call of {func.name!r} — "
                    f"hoist it or use a bound method")
            elif isinstance(node, (ast.Dict, ast.DictComp, ast.SetComp)):
                if _enclosing_loop(module, node, func) is not None:
                    kind = ("dict display" if isinstance(node, ast.Dict)
                            else "comprehension")
                    yield module.finding(
                        node, "PERF002",
                        f"{kind} built on every iteration of a loop in "
                        f"{func.name!r} — build it once before the loop")


# ---------------------------------------------------------------------------
# PERF003 — repeated attribute chains in tight loops
# ---------------------------------------------------------------------------

_PERF003_MIN_REPEATS = 3


def _chain_text(node: ast.AST) -> Optional[str]:
    """``a.b.c`` → ``"a.b.c"`` for pure Name/Attribute chains."""
    parts: List[str] = []
    cur = node
    while isinstance(cur, ast.Attribute):
        parts.append(cur.attr)
        cur = cur.value
    if not isinstance(cur, ast.Name):
        return None
    parts.append(cur.id)
    return ".".join(reversed(parts))


def rule_perf003(module: Module) -> Iterator[Finding]:
    """PERF003: the same attribute chain dereferenced 3+ times in one
    loop body.

    ``self.stats.reads`` costs two dict/descriptor lookups every time
    it is evaluated; in a per-event loop the interpreter repeats them
    thousands of times for the same object.  Hoist the receiver into a
    local before the loop (locals are array lookups).  Chains whose
    root or prefix is assigned inside the loop are skipped — hoisting
    those would change behaviour.
    """
    for func in _scoped_functions(module):
        own = _own_nodes_of(func)
        for loop in own:
            if not isinstance(loop, (ast.For, ast.While)):
                continue
            # Receiver chains read inside this loop (depth >= 1 dot),
            # i.e. `self.x` in `self.x.y`: the hoistable prefix.
            counts: Dict[str, List[ast.AST]] = {}
            stored: Set[str] = set()
            for node in ast.walk(loop):
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                     ast.Lambda)):
                    continue
                if isinstance(node, ast.Attribute):
                    text = _chain_text(node)
                    if text is None:
                        continue
                    if isinstance(node.ctx, (ast.Store, ast.Del)):
                        stored.add(text)
                    elif isinstance(node.value, ast.Attribute):
                        recv = _chain_text(node.value)
                        if recv is not None:
                            counts.setdefault(recv, []).append(node.value)
                elif isinstance(node, ast.Name) and isinstance(
                        node.ctx, (ast.Store, ast.Del)):
                    stored.add(node.id)
            repeated = {text: nodes for text, nodes in counts.items()
                        if len(nodes) >= _PERF003_MIN_REPEATS}
            for text in sorted(repeated):
                # Skip chains invalidated by a write to any prefix.
                prefixes = text.split(".")
                if any(".".join(prefixes[:i]) in stored
                       for i in range(1, len(prefixes) + 1)):
                    continue
                # Report only minimal chains: `self.stats` subsumes
                # `self.stats.reads` (hoisting the short one fixes both).
                if any(other != text and text.startswith(other + ".")
                       for other in repeated):
                    continue
                first = min(repeated[text], key=lambda n: (n.lineno,
                                                           n.col_offset))
                yield module.finding(
                    first, "PERF003",
                    f"attribute chain '{text}' dereferenced "
                    f"{len(repeated[text])}x in one loop in "
                    f"{func.name!r} — hoist it into a local before "
                    f"the loop")


# ---------------------------------------------------------------------------
# PERF004 — needless generator trampolines
# ---------------------------------------------------------------------------

def _body_sans_docstring(func: ast.FunctionDef) -> List[ast.stmt]:
    body = list(func.body)
    if (body and isinstance(body[0], ast.Expr)
            and isinstance(body[0].value, ast.Constant)
            and isinstance(body[0].value.value, str)):
        body = body[1:]
    return body


def rule_perf004(module: Module) -> Iterator[Finding]:
    """PERF004: a generator that only delegates to another generator.

    ``def f(...): yield from g(...)`` adds a frame that CPython must
    walk on *every* resume of the inner generator — pure per-event
    overhead.  Call ``g`` directly at the spawn/delegation site, or
    make ``f`` a plain function returning ``g(...)``'s generator.
    Flagged shapes (hot set only):

    * ``yield from call(...)`` as the entire body;
    * ``return (yield from call(...))`` as the entire body;
    * ``x = yield expr`` followed by ``return x`` (a one-event wait
      wrapper — inline the yield at the call sites).
    """
    for func in _scoped_functions(module):
        if func not in module.generator_defs:
            continue
        body = _body_sans_docstring(func)
        if len(body) == 1:
            stmt = body[0]
            inner = None
            if isinstance(stmt, ast.Expr) and isinstance(stmt.value,
                                                         ast.YieldFrom):
                inner = stmt.value.value
            elif isinstance(stmt, ast.Return) and isinstance(stmt.value,
                                                             ast.YieldFrom):
                inner = stmt.value.value
            if isinstance(inner, ast.Call):
                yield module.finding(
                    func, "PERF004",
                    f"generator {func.name!r} only delegates with 'yield "
                    f"from' — a trampoline frame on every resume; call "
                    f"the inner generator directly")
        elif len(body) == 2:
            first, second = body
            if (isinstance(first, ast.Assign)
                    and len(first.targets) == 1
                    and isinstance(first.targets[0], ast.Name)
                    and isinstance(first.value, ast.Yield)
                    and isinstance(second, ast.Return)
                    and isinstance(second.value, ast.Name)
                    and second.value.id == first.targets[0].id):
                yield module.finding(
                    func, "PERF004",
                    f"generator {func.name!r} wraps a single yield — "
                    f"inline 'yield ...' at the call sites instead of "
                    f"paying a 'yield from' frame per event")


# ---------------------------------------------------------------------------
# PERF005 — eager f-string work on debug-disabled paths
# ---------------------------------------------------------------------------

def _race_receiver(call: ast.Call) -> Optional[str]:
    """For ``<recv>.read/write(...)`` where recv is a race handle
    (named ``race`` or ending ``.race``), the receiver's text."""
    func = call.func
    if not (isinstance(func, ast.Attribute)
            and func.attr in ("read", "write")):
        return None
    recv = func.value
    if isinstance(recv, ast.Name) and recv.id == "race":
        return recv.id
    if isinstance(recv, ast.Attribute) and recv.attr == "race":
        return _chain_text(recv)
    return None


def _guarded_by_enabled(module: Module, node: ast.AST, recv: str) -> bool:
    """Whether an ancestor ``if`` tests the handle's ``enabled`` flag."""
    want = f"{recv}.enabled"
    for anc in module.ancestors(node):
        if isinstance(anc, ast.If):
            for sub in ast.walk(anc.test):
                if isinstance(sub, ast.Attribute) and sub.attr == "enabled":
                    text = _chain_text(sub)
                    if text == want or (text is not None
                                        and text.endswith(".enabled")):
                        return True
    return False


def rule_perf005(module: Module) -> Iterator[Finding]:
    """PERF005: a race-label f-string built even when recording is off.

    ``self.race.write(f"t{table_id}/{key}")`` formats the label
    *before* the no-op call — in production mode (``NULL_SHARED``) the
    f-string is pure waste on every hot-path access.  Guard the call::

        if self.race.enabled:
            self.race.write(f"t{table_id}/{key}")

    Only f-string arguments are flagged: a constant label costs
    nothing to pass.
    """
    for func in _scoped_functions(module):
        for node in ast.walk(func):
            if not isinstance(node, ast.Call):
                continue
            recv = _race_receiver(node)
            if recv is None:
                continue
            if not any(isinstance(arg, ast.JoinedStr) for arg in node.args):
                continue
            if _guarded_by_enabled(module, node, recv):
                continue
            yield module.finding(
                node, "PERF005",
                f"f-string label built eagerly for '{recv}.{node.func.attr}' "
                f"even when recording is off — guard with "
                f"'if {recv}.enabled:'")


PERF_RULES = (rule_perf001, rule_perf002, rule_perf003, rule_perf004,
              rule_perf005)
PERF_RULE_CODES = {
    "PERF001": rule_perf001,
    "PERF002": rule_perf002,
    "PERF003": rule_perf003,
    "PERF004": rule_perf004,
    "PERF005": rule_perf005,
}
