"""Profile-guided scoping for the PERF rules.

Micro-optimization advice is only worth a reviewer's time where the
program actually spends it: a dict built per call is waste in the
kernel's event loop and irrelevant in a plot script.  This module
ingests the cProfile dump written by ``tools/bench_kernel.py
--profile-json`` and turns it into a :class:`HotSet` — the set of
source locations that showed up in the benchmark's hot rows — which
the linter attaches to every :class:`~repro.analyze.linter.Module` so
the PERF rules can confine themselves to code that is demonstrably on
the event path.

Profile rows carry the *absolute* path, the name and the first line
(a decorator's, if any) of each code object; both paths are normalized
to their ``repro/``-rooted suffix, and a row marks a def of its name
whose span, decorators included, holds its line.  A stale profile's
row may miss its def after an edit above it, but never marks another.
A row of an anonymous code object (``<genexpr>``, ``<listcomp>``,
``<lambda>``) has no def name to match: it marks the innermost def
whose span holds its line, the def its cost is spent in.

Thresholds are relative (fractions of total self-time / total calls),
so the same profile semantics hold at smoke and full scale.  A final
one-level expansion over the project call graph marks the project
functions a hot function calls as hot too: a helper that the profiler
attributes to its inlined caller still deserves scrutiny.

Without a profile (``hotset=None``) the PERF rules run unscoped — the
mode the rule fixtures use.
"""

from __future__ import annotations

import ast
import json
from typing import Dict, List, Optional, Set, Tuple

__all__ = ["HotSet", "load_hotset"]

# A row is hot when it holds at least this fraction of total self-time
# or of total call count.  0.5 % of a benchmark run is far above noise
# (the seed profile's top ~60 rows) while still catching
# high-frequency cheap functions whose cost is all allocation.
HOT_TIME_FRAC = 0.005
HOT_CALL_FRAC = 0.005

_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _suffix(path: str) -> str:
    """Normalize a path to its ``repro/``-rooted suffix.

    Profile rows are absolute (``/home/ci/repo/src/repro/sim/kernel.py``),
    lint paths repo-relative (``src/repro/sim/kernel.py``); both reduce
    to ``repro/sim/kernel.py``.  Paths outside the package (tools,
    tests, fixtures) fall back to their basename.
    """
    norm = path.replace("\\", "/")
    idx = norm.rfind("repro/")
    if idx >= 0:
        return norm[idx:]
    return norm.rsplit("/", 1)[-1]


class HotSet:
    """The benchmark-hot source locations, queryable by the PERF rules."""

    def __init__(self, rows: List[Dict], total_tottime: float,
                 total_calls: int, source: str = "",
                 hot_time_frac: float = HOT_TIME_FRAC,
                 hot_call_frac: float = HOT_CALL_FRAC):
        self.source = source
        time_floor = hot_time_frac * total_tottime
        call_floor = hot_call_frac * max(total_calls, 1)
        #: suffix → [(func name, first line)] of hot rows in that file.
        self._by_suffix: Dict[str, List[Tuple[str, int]]] = {}
        #: Names marked hot by call-graph expansion (see :meth:`expand`).
        self.hot_names: Set[str] = set()
        self.hot_rows = 0
        for row in rows:
            if row["tottime"] < time_floor and row["ncalls"] < call_floor:
                continue
            self.hot_rows += 1
            self._by_suffix.setdefault(_suffix(row["path"]), []).append(
                (row["func"], row["line"]))

    @classmethod
    def load(cls, path: str, **kwargs) -> "HotSet":
        """Read a ``bench_kernel.py --profile-json`` dump."""
        with open(path, "r", encoding="utf-8") as fh:
            payload = json.load(fh)
        return cls(rows=payload.get("rows", []),
                   total_tottime=payload.get("total_tottime", 0.0),
                   total_calls=payload.get("total_calls", 0),
                   source=path, **kwargs)

    # -- queries ----------------------------------------------------------

    def file_is_hot(self, path: str) -> bool:
        """Whether any hot row maps into this file."""
        return _suffix(path) in self._by_suffix

    def _row_marks(self, path: str, node: ast.AST) -> bool:
        """Whether a hot row starts in this def's span and names it, or
        is anonymous and no def nested in this one holds its line."""
        return any(
            _holds(node, line) and (func == node.name or (func[0] == "<" and not any(
                _holds(inner, line) for inner in ast.walk(node)
                if inner is not node and isinstance(inner, _DEFS))))
            for func, line in self._by_suffix.get(_suffix(path), ()))

    def function_is_hot(self, path: str, node: ast.AST) -> bool:
        """Whether a def was profiled hot (a row of its own) or was
        marked hot by call-graph expansion (by name)."""
        return (self._row_marks(path, node)
                or node.name in self.hot_names)

    def class_is_hot(self, path: str, node: ast.AST) -> bool:
        """Whether one of the class's defs (typically ``__init__``) has
        a hot row — the PERF001 notion of "event-path"."""
        return any(self._row_marks(path, child) for child in ast.walk(node)
                   if isinstance(child, _DEFS))

    # -- call-graph expansion ---------------------------------------------

    def expand(self, callgraph) -> None:
        """One-level closure over the project call graph: project
        functions called from a hot def are hot by name.

        cProfile attributes a ``yield from``-flattened helper or an
        inlined wrapper to its caller's row; expansion keeps such
        callees in scope.  One level is deliberate — a transitive
        closure would drag most of the project into the hot set and
        destroy the scoping this module exists to provide.
        """
        for summary in getattr(callgraph, "summaries", ()):
            if not self.function_is_hot(summary.path, summary.node):
                continue
            for node in summary._own_nodes():
                if isinstance(node, ast.Call):
                    name = _project_callee_name(node)
                    if name is not None and name in callgraph.by_name:
                        self.hot_names.add(name)


def _holds(node: ast.AST, line: int) -> bool:
    """Whether a def's span, decorators included, holds ``line``."""
    start = min([d.lineno for d in node.decorator_list] + [node.lineno])
    return start <= line <= node.end_lineno


def _project_callee_name(call: ast.Call) -> Optional[str]:
    from repro.analyze.callgraph import _project_callee
    return _project_callee(call)


def load_hotset(path: Optional[str]) -> Optional[HotSet]:
    """``HotSet.load`` tolerating ``None`` (no profile: unscoped run)."""
    if path is None:
        return None
    return HotSet.load(path)
