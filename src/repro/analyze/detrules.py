"""The DET rule: the process environment stays with the sweep layer.

The sweep runner's contract (see :mod:`repro.experiments.sweep`) is
that cells are pure functions of ``(experiment, params, seed, scale)``
— serial and parallel execution merge to bit-identical digests.  State
isolation between cells is enforced at run time: the debug-mode
cell-state sanitizer (:func:`repro.sim.sanitize.check_cell_state`),
the env snapshot/restore around every cell, and the serial-vs-parallel
digest check.  The one precondition checked statically is the one
those mechanisms cannot see: a configuration read that is the same in
every process on one host, and so never shows up as a digest mismatch.

=======  ==========================================================
Code     What it catches
=======  ==========================================================
DET002   ``os.environ`` / ``getenv`` touched outside the
         sanctioned config modules (the sweep/scale layer owns the
         environment; everyone else must take parameters)
=======  ==========================================================

Sanctioned instances carry ``# simlint: disable=DET002 <why>`` on the
flagged line, same as the SIM and PERF rules.
"""

from __future__ import annotations

import ast
from typing import Iterator, Optional, Set

from repro.analyze.linter import Finding, Module

__all__ = ["DET_RULES", "DET_RULE_CODES", "rule_det002"]


def _root_name(node: ast.AST) -> Optional[str]:
    """The leftmost ``Name`` of an attribute/subscript chain."""
    while isinstance(node, (ast.Attribute, ast.Subscript)):
        node = node.value
    if isinstance(node, ast.Name):
        return node.id
    return None


# The modules that own the process environment: the sweep runner (whose
# snapshot/restore IS the isolation mechanism) and the scale resolver
# (the one sanctioned read/write funnel for REPRO_* knobs).
_ENVIRON_SANCTIONED_SUFFIXES = (
    "experiments/sweep.py",
    "experiments/scale.py",
)

_ENVIRON_FUNCS = frozenset({"getenv", "putenv", "unsetenv"})


def _is_environ_node(module: Module, node: ast.AST) -> Optional[str]:
    """A description when ``node`` touches the process environment."""
    if isinstance(node, ast.Attribute) and node.attr == "environ":
        return "os.environ" if _root_name(node.value) == "os" else None
    if isinstance(node, ast.Name) and node.id == "environ":
        if module.from_imports.get("environ") == "os.environ":
            return "os.environ"
    if isinstance(node, ast.Call):
        func = node.func
        if isinstance(func, ast.Attribute) and func.attr in _ENVIRON_FUNCS:
            if _root_name(func.value) == "os":
                return f"os.{func.attr}()"
        elif isinstance(func, ast.Name) and func.id in _ENVIRON_FUNCS:
            if module.from_imports.get(func.id, "").startswith("os."):
                return f"os.{func.id}()"
    return None


def rule_det002(module: Module) -> Iterator[Finding]:
    """DET002: the process environment touched outside sweep/scale.

    ``os.environ`` is process-global state with none of the isolation
    machinery module globals get: the sweep runner snapshots and
    restores it around every cell precisely because nothing else is
    allowed to depend on it mid-run.  Reads hide configuration from
    the digest (two hosts, two answers); writes leak into sibling
    cells.  Code that needs a knob takes it as a parameter resolved by
    the sweep/scale layer; genuinely init-time reads carry a pragma.
    """
    path = module.path.replace("\\", "/")
    if path.endswith(_ENVIRON_SANCTIONED_SUFFIXES):
        return
    seen_lines: Set[int] = set()
    for node in module.nodes_of_type(ast.Attribute, ast.Name, ast.Call):
        desc = _is_environ_node(module, node)
        if desc is None:
            continue
        line = getattr(node, "lineno", 1)
        if line in seen_lines:
            continue  # `os.environ[...]` is an Attribute and a Name walk
        seen_lines.add(line)
        yield module.finding(
            node, "DET002",
            f"{desc} touched outside the sanctioned sweep/scale modules "
            f"— environment is process-global state the sweep isolates "
            f"per cell; take the value as a parameter instead")


DET_RULES = (rule_det002,)
DET_RULE_CODES = {"DET002": rule_det002}
