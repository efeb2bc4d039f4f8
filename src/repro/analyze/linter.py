"""The ``simlint`` driver: parsing, suppressions, and the file walker.

A *rule* is a callable ``rule(module) -> Iterable[Finding]`` operating
on a parsed :class:`Module`.  The driver adds what individual rules
cannot know on their own:

* a **call-graph index** (SIM006 and SIM007 need project-wide
  may-yield and lock-span summaries, the PERF rules its class and
  call-edge queries);
* **suppression comments** — ``# simlint: ignore[SIM003]`` on the
  flagged line (or ``# simlint: ignore`` to silence every rule there).
  ``# simlint: disable=SIM006 <justification>`` is an equivalent
  spelling that leaves room for a trailing one-line justification,
  which reviewers should insist on;
* deterministic ordering of findings (path, line, column, code).
"""

from __future__ import annotations

import ast
import os
import tokenize
from dataclasses import dataclass, field
from io import StringIO
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

__all__ = [
    "Finding",
    "Module",
    "analyze_paths",
    "analyze_source",
    "iter_python_files",
]

_IGNORE_MARKER = "simlint:"


@dataclass(frozen=True, order=True)
class Finding:
    """One rule violation at a source location."""

    path: str
    line: int
    col: int
    code: str
    message: str

    def render(self) -> str:
        """The CLI's one-line representation."""
        return f"{self.path}:{self.line}:{self.col}: {self.code} {self.message}"


class Suppressions:
    """Per-line ``# simlint: ignore[...]`` directives of one file."""

    def __init__(self, source: str):
        # line number → set of suppressed codes; empty set = all codes.
        self._lines: Dict[int, Set[str]] = {}
        try:
            tokens = tokenize.generate_tokens(StringIO(source).readline)
            for tok in tokens:
                if tok.type == tokenize.COMMENT:
                    self._parse(tok.start[0], tok.string)
        except (tokenize.TokenError, IndentationError):  # pragma: no cover
            pass  # an unparseable file produces no suppressions

    def _parse(self, line: int, comment: str) -> None:
        text = comment.lstrip("#").strip()
        if not text.startswith(_IGNORE_MARKER):
            return
        directive = text[len(_IGNORE_MARKER):].strip()
        if not directive.startswith(("ignore", "disable")):
            return
        if directive.startswith("ignore"):
            rest = directive[len("ignore"):].strip()
            if rest.startswith("[") and "]" in rest:
                codes = {c.strip().upper()
                         for c in rest[1:rest.index("]")].split(",")
                         if c.strip()}
                self._lines[line] = codes
            else:
                self._lines[line] = set()  # blanket ignore
        else:  # disable=CODE[,CODE...] <optional justification>
            rest = directive[len("disable"):].strip()
            if rest.startswith("="):
                spec = rest[1:].split(None, 1)[0] if rest[1:].strip() else ""
                codes = {c.strip().upper()
                         for c in spec.split(",") if c.strip()}
                self._lines[line] = codes or set()
            else:
                self._lines[line] = set()  # bare 'disable': everything

    def suppresses(self, line: int, code: str) -> bool:
        """Whether ``code`` is silenced on ``line``."""
        codes = self._lines.get(line)
        if codes is None:
            return False
        return not codes or code.upper() in codes


@dataclass
class Module:
    """One parsed source file plus the derived maps rules need."""

    path: str
    source: str
    tree: ast.Module
    suppressions: Suppressions
    parents: Dict[ast.AST, ast.AST] = field(default_factory=dict)
    # Every node of the tree, in ast.walk order, collected ONCE at parse
    # time.  Rules iterate this (or the per-type views below) instead of
    # re-walking the tree — with three rule families the tree used to be
    # walked tens of times per file.
    nodes: List[ast.AST] = field(default_factory=list)
    _type_views: Dict[tuple, List[ast.AST]] = field(default_factory=dict)
    # Function defs that are generators (yield in their own scope).
    generator_defs: Set[ast.FunctionDef] = field(default_factory=set)
    # Names the file imports as modules: local alias → module name.
    module_imports: Dict[str, str] = field(default_factory=dict)
    # from-imports: local name → "module.attr".
    from_imports: Dict[str, str] = field(default_factory=dict)
    # Project-wide may-yield / lock summaries (repro.analyze.callgraph.
    # CallGraphIndex), attached by the driver.
    callgraph: Optional[object] = None
    # Benchmark hot set (repro.analyze.profilehot.HotSet), attached by
    # the driver when a profile was supplied; None = PERF rules run
    # unscoped.
    hotset: Optional[object] = None

    @classmethod
    def parse(cls, source: str, path: str) -> "Module":
        tree = ast.parse(source, filename=path)
        mod = cls(path=path, source=source, tree=tree,
                  suppressions=Suppressions(source))
        mod.nodes = list(ast.walk(tree))
        for parent in mod.nodes:
            for child in ast.iter_child_nodes(parent):
                mod.parents[child] = parent
        mod._build_scopes()
        mod._build_imports()
        return mod

    # -- derived maps ---------------------------------------------------

    def nodes_of_type(self, *types: type) -> List[ast.AST]:
        """All nodes of the given AST types, from the parse-time walk.

        Views are cached per type tuple, so every rule family shares one
        traversal of each file instead of re-walking the whole tree.
        """
        view = self._type_views.get(types)
        if view is None:
            view = [n for n in self.nodes if isinstance(n, types)]
            self._type_views[types] = view
        return view

    def _build_scopes(self) -> None:
        """Find the FunctionDefs whose own scope contains a yield."""
        for node in self.nodes_of_type(ast.Yield, ast.YieldFrom):
            func = self.enclosing_function(node)
            if func is not None:
                self.generator_defs.add(func)

    def _build_imports(self) -> None:
        for node in self.nodes_of_type(ast.Import, ast.ImportFrom):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    self.module_imports[alias.asname or
                                        alias.name.split(".")[0]] = alias.name
            elif node.module:
                for alias in node.names:
                    self.from_imports[alias.asname or alias.name] = (
                        f"{node.module}.{alias.name}")

    # -- navigation helpers --------------------------------------------

    def parent(self, node: ast.AST) -> Optional[ast.AST]:
        """The syntactic parent, or None for the module root."""
        return self.parents.get(node)

    def ancestors(self, node: ast.AST) -> Iterator[ast.AST]:
        """Walk outward from ``node`` (excluded) to the module root."""
        cur = self.parents.get(node)
        while cur is not None:
            yield cur
            cur = self.parents.get(cur)

    def enclosing_function(self, node: ast.AST) -> Optional[ast.FunctionDef]:
        """The nearest enclosing function def, if any."""
        for anc in self.ancestors(node):
            if isinstance(anc, (ast.FunctionDef, ast.AsyncFunctionDef)):
                return anc
            if isinstance(anc, ast.Lambda):
                return None
        return None

    def functions(self) -> Iterator[ast.FunctionDef]:
        """Every function def in the module, outermost first."""
        for node in self.nodes_of_type(ast.FunctionDef, ast.AsyncFunctionDef):
            yield node

    def finding(self, node: ast.AST, code: str, message: str) -> Finding:
        """A :class:`Finding` anchored at ``node``."""
        return Finding(path=self.path, line=getattr(node, "lineno", 1),
                       col=getattr(node, "col_offset", 0) + 1,
                       code=code, message=message)


def iter_python_files(paths: Sequence[str]) -> List[str]:
    """Expand files/directories into a sorted list of ``.py`` files."""
    found: List[str] = []
    for path in paths:
        if os.path.isfile(path):
            found.append(path)
        elif os.path.isdir(path):
            for root, dirs, files in os.walk(path):
                dirs[:] = sorted(d for d in dirs
                                 if d not in ("__pycache__", ".git"))
                for name in sorted(files):
                    if name.endswith(".py"):
                        found.append(os.path.join(root, name))
        else:
            raise FileNotFoundError(f"no such file or directory: {path}")
    return sorted(found)


def _run_rules(module: Module, rules: Iterable) -> List[Finding]:
    findings: List[Finding] = []
    for rule in rules:
        for finding in rule(module):
            if not module.suppressions.suppresses(finding.line, finding.code):
                findings.append(finding)
    return sorted(findings)


def analyze_source(source: str, path: str = "<string>",
                   rules: Optional[Iterable] = None,
                   hotset: Optional[object] = None) -> List[Finding]:
    """Lint one source string (the unit-test entry point)."""
    from repro.analyze.callgraph import CallGraphIndex
    from repro.analyze.rules import ALL_RULES
    module = Module.parse(source, path)
    module.callgraph = CallGraphIndex([module])
    module.hotset = hotset
    if hotset is not None:
        hotset.expand(module.callgraph)
    return _run_rules(module, rules if rules is not None else ALL_RULES)


def analyze_paths(paths: Sequence[str],
                  rules: Optional[Iterable] = None,
                  hotset: Optional[object] = None
                  ) -> Tuple[List[Finding], List[str]]:
    """Lint files/directories.

    Returns ``(findings, errors)`` where ``errors`` are files that
    could not be read or parsed (reported, never silently skipped).
    ``hotset`` (a :class:`repro.analyze.profilehot.HotSet`) scopes the
    PERF rules to profiled-hot code; it is expanded one call-graph
    level before the rules run.
    """
    from repro.analyze.callgraph import CallGraphIndex
    from repro.analyze.rules import ALL_RULES
    modules: List[Module] = []
    errors: List[str] = []
    for path in iter_python_files(paths):
        try:
            with open(path, "r", encoding="utf-8") as fh:
                source = fh.read()
            modules.append(Module.parse(source, path))
        except (OSError, SyntaxError, ValueError) as exc:
            errors.append(f"{path}: {exc}")
    callgraph = CallGraphIndex(modules)
    if hotset is not None:
        hotset.expand(callgraph)
    findings: List[Finding] = []
    for module in modules:
        module.callgraph = callgraph
        module.hotset = hotset
        findings.extend(_run_rules(module,
                                   rules if rules is not None else ALL_RULES))
    return sorted(findings), errors
