"""``repro.analyze`` — DES-aware static analysis for the reproduction.

The simulation kernel's idioms fail *silently*: a generator called
without ``yield from`` never runs, an ``acquire`` without a guarded
``release`` leaks a lock only on the error path, and a stray
``random.random()`` quietly destroys run-to-run determinism.  None of
these crash — they just produce wrong throughput/energy numbers, which
is fatal for a measurement-study reproduction.

``simlint`` (this package) machine-checks those idioms:

* :mod:`repro.analyze.rules` — the SIM002–SIM005 rule implementations,
  and :mod:`repro.analyze.atomicity` — SIM006 and SIM007 on top of the
  may-yield call graph in :mod:`repro.analyze.callgraph`;
* :mod:`repro.analyze.perfrules` — the PERF001–PERF005 hot-path rules,
  scoped by :mod:`repro.analyze.profilehot` to the fig4 cell's
  cProfile hot set (``python -m repro.analyze --select SIM,PERF``;
  ``python -m repro.analyze.profilehot --write PATH`` writes it);
* :mod:`repro.analyze.detrules` — DET002, the environment rule of the
  sweep runner's determinism contract (``--select DET``);
* :mod:`repro.analyze.linter` — file walking, suppression comments,
  the driver;
* ``python -m repro.analyze [paths]`` — the CLI, non-zero exit on
  findings (wired into CI).

The companion *runtime* sanitizers live in :mod:`repro.sim.sanitize`
and are enabled with ``Simulator(debug=True)`` (or the
``REPRO_SIM_DEBUG`` environment variable).  An invariant one of them
already enforces gets no lint rule; ``docs/ANALYSIS.md`` keeps the
per-rule ledger.
"""

from repro.analyze.detrules import DET_RULE_CODES, DET_RULES
from repro.analyze.linter import (
    Finding,
    analyze_paths,
    analyze_source,
    iter_python_files,
)
from repro.analyze.perfrules import PERF_RULE_CODES, PERF_RULES
from repro.analyze.rules import ALL_RULES, RULE_CODES

__all__ = [
    "Finding",
    "analyze_paths",
    "analyze_source",
    "iter_python_files",
    "ALL_RULES",
    "RULE_CODES",
    "PERF_RULES",
    "PERF_RULE_CODES",
    "DET_RULES",
    "DET_RULE_CODES",
]
