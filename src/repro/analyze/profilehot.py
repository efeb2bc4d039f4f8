"""Profile-guided scoping for the PERF rules.

Micro-optimization advice is only worth a reviewer's time where the
program actually spends it: a dict built per call is waste in the
kernel's event loop and irrelevant in a plot script.  This module
writes the cProfile dump of the canonical fig4 cell (``python -m
repro.analyze.profilehot --write BENCH_profile.json``) and turns a
dump into a :class:`HotSet` — the set of source locations that showed
up in its hot rows — which the linter attaches to every
:class:`~repro.analyze.linter.Module` so the PERF rules can confine
themselves to code that is demonstrably on the event path.

Profile rows carry the path, the name and the first line (a
decorator's, if any) of each code object; the row's path and the lint
input's are both normalized to their ``repro/``-rooted suffix, and a
row marks a def of its name whose span, decorators included, holds
its line.  A stale profile's row may miss its def after an edit above
it, but never marks another.
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

The dump is taken on the production kernel: ``main`` refuses to write
one while ``Simulator()`` would attach the runtime sanitizers
(``REPRO_SIM_DEBUG=1``), whose own code would otherwise fill the hot
set.
"""

from __future__ import annotations

import argparse
import ast
import cProfile
import json
import os
import pstats
import sys
from typing import Dict, List, Optional, Set, Tuple

__all__ = ["HotSet", "profile_payload"]

# A row is hot when it holds at least this fraction of total self-time
# or of total call count.  0.5 % of a benchmark run is far above noise
# (the seed profile's top ~60 rows) while still catching
# high-frequency cheap functions whose cost is all allocation.
HOT_TIME_FRAC = 0.005
HOT_CALL_FRAC = 0.005

_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _suffix(path: str) -> str:
    """Normalize a path to its ``repro/``-rooted suffix.

    A row's path may be absolute (``/home/ci/repo/src/repro/sim/kernel.py``)
    or repo-relative like a lint path (``src/repro/sim/kernel.py``); both
    reduce to ``repro/sim/kernel.py``.  Paths outside the package (tools,
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
                 total_calls: int, source: str = ""):
        self.source = source
        time_floor = HOT_TIME_FRAC * total_tottime
        call_floor = HOT_CALL_FRAC * max(total_calls, 1)
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
    def load(cls, path: str) -> "HotSet":
        """Read a dump written by :func:`main` (``--write PATH``)."""
        with open(path, "r", encoding="utf-8") as fh:
            payload = json.load(fh)
        return cls(rows=payload.get("rows", []),
                   total_tottime=payload.get("total_tottime", 0.0),
                   total_calls=payload.get("total_calls", 0),
                   source=path)

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


# -- writing the dump ---------------------------------------------------

# Rows kept in a dump, by self time: well past the ~80 that clear the
# hot thresholds on the fig4 cell.
_TOP_ROWS = 120
_REPO_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.dirname(os.path.abspath(__file__)))))


def _portable_path(path: str) -> str:
    """A profiled file's path without the checkout's or interpreter's
    location: repo files repo-relative (``src/repro/sim/kernel.py``, as
    the linter sees them), standard-library files under ``<python>/``."""
    for root, prefix in ((_REPO_ROOT, ""), (sys.base_prefix, "<python>/")):
        if path.startswith(root + os.sep):
            return prefix + os.path.relpath(path, root).replace(os.sep, "/")
    return path.replace(os.sep, "/")


def profile_payload(spec, bench: str, scale: str) -> Dict:
    """Run ``spec`` (an ``ExperimentSpec``) under cProfile and return
    the dump: its hot rows ordered by ``tottime`` (self time, the
    quantity the PERF rules care about), each with enough identity
    (path, function name, first line) for :class:`HotSet` to map it
    back onto a def.  ``bench`` and ``scale`` label the dump."""
    from repro.cluster import run_experiment

    profiler = cProfile.Profile()
    profiler.enable()
    try:
        result = run_experiment(spec)
    finally:
        profiler.disable()
    expected = spec.workload.ops_per_client * spec.cluster.num_clients
    if result.total_ops + result.client_errors < expected:
        raise RuntimeError(
            f"{bench}: completed {result.total_ops} + {result.client_errors} "
            f"errors < expected {expected} ops — workload shrank")
    stats = pstats.Stats(profiler)
    total_tt = 0.0
    rows: List[Dict] = []
    for (path, line, func), (_cc, nc, tt, ct, _callers) in stats.stats.items():
        total_tt += tt
        if path.startswith("<") or func.startswith("<module>"):
            continue
        rows.append({
            "path": _portable_path(path),
            "func": func,
            "line": line,
            "ncalls": nc,
            "tottime": round(tt, 6),
            "cumtime": round(ct, 6),
        })
    rows.sort(key=lambda r: (-r["tottime"], r["path"], r["line"]))
    return {
        "schema": 1,
        "bench": bench,
        "scale": scale,
        "total_tottime": round(total_tt, 6),
        "total_calls": stats.total_calls,
        "rows": rows[:_TOP_ROWS],
    }


def main(argv: Optional[List[str]] = None) -> int:
    """``python -m repro.analyze.profilehot --write PATH``: profile the
    fig4 cell (workload A, 20 servers, 30 clients, RF 0, default scale,
    seed 1) and write the dump the PERF lint reads."""
    from repro.experiments.scale import DEFAULT
    from repro.experiments.sweep import ycsb_spec
    from repro.sim.kernel import Simulator
    from repro.ycsb.workload import WORKLOAD_A

    parser = argparse.ArgumentParser(
        prog="python -m repro.analyze.profilehot",
        description="write the cProfile hot set that scopes the PERF rules")
    parser.add_argument("--write", metavar="PATH", required=True,
                        help="where to write the profile JSON")
    args = parser.parse_args(argv)
    if Simulator().debug:
        print("error: the runtime sanitizers are on (REPRO_SIM_DEBUG); "
              "a profile must be taken on the production kernel",
              file=sys.stderr)
        return 2
    payload = profile_payload(ycsb_spec(WORKLOAD_A, 20, 30, DEFAULT),
                              bench="fig4", scale=DEFAULT.name)
    with open(args.write, "w") as fh:
        json.dump(payload, fh, indent=1)
        fh.write("\n")
    print(f"wrote profile ({len(payload['rows'])} rows) to {args.write}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
