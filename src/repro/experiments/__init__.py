"""Per-figure/table reproduction experiments.

Each module reproduces one section of the paper's evaluation and knows
the paper's reported numbers, so every table is a paper-vs-measured
comparison:

* :mod:`repro.experiments.peak` — §IV: Fig. 1a/1b, Table I, Fig. 2
* :mod:`repro.experiments.workloads` — §V: Table II, Fig. 3, Fig. 4a/4b
* :mod:`repro.experiments.replication` — §VI: Fig. 5, 6a/6b, 7, 8
* :mod:`repro.experiments.recovery` — §VII: Fig. 9a/9b, 10, 11a/11b, 12
* :mod:`repro.experiments.throttling` — §IX: Fig. 13
* :mod:`repro.experiments.ablations` — §IX design-choice ablations
  (segment size, worker threads, relaxed-consistency replication)
* :mod:`repro.experiments.extensions`,
  :mod:`~repro.experiments.energy_proportionality`,
  :mod:`~repro.experiments.durability`,
  :mod:`~repro.experiments.indexing` — §X future-work extensions

Every experiment — a grid figure or a single crash run — is a plan
factory (grid × seeds → cells) plus a renderer over that plan's merged
aggregates, plus a check of the paper's claims on the rendered tables
(``check_*`` beside each ``render_*``);
:mod:`repro.experiments.sweep` is the only thing that
executes cells, and :mod:`repro.experiments.registry` is the one
ordered list of every experiment that the CLI,
``tools/generate_experiments_md.py`` and ``tools/sweep.py`` read
(``registry.tables(name, scale, **grid)`` renders one from Python).

Every plan takes a :class:`~repro.experiments.scale.Scale` so a run
can trade fidelity for runtime (DESIGN.md §5); the claims are
calibrated at DEFAULT.
"""

from repro.experiments.scale import Scale, SMOKE, DEFAULT, FULL
from repro.experiments.reporting import ComparisonTable

__all__ = ["ComparisonTable", "Scale", "SMOKE", "DEFAULT", "FULL"]
