"""The one list of experiments.

``python -m repro list|run``, ``tools/generate_experiments_md.py`` and
``tools/sweep.py`` all read :data:`EXPERIMENTS`: its order is the CLI's
listing order and EXPERIMENTS.md's section order, and its names are the
only experiment names there are.

An entry says how a name becomes comparison tables:

* a grid figure is a **plan factory plus a renderer** over that plan's
  merged aggregates.  Figures that measure the same cells name the same
  factory (Fig. 2 renders from Fig. 1's plan, Fig. 3 from Table II's,
  Figs. 7 and 8 from Fig. 6's), and :func:`run_experiments` renders them
  from one report, so no cell runs twice;
* a single-run probe (a crash timeline, a scale-down, a power cap) is a
  **plain runner** ``run(scale)``;
* ``energy`` is both: its table comes from one whole governor sweep, and
  that whole sweep is also a cell, so seeds fan out through
  ``tools/sweep.py``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (Callable, Dict, Iterable, Iterator, List, Optional,
                    Sequence, Tuple)

from repro.experiments import (ablations, durability, energy_proportionality,
                               extensions, indexing, peak, recovery,
                               replication, sweep, throttling, workloads)
from repro.experiments.reporting import ComparisonTable
from repro.experiments.scale import DEFAULT, Scale
from repro.experiments.sweep import CellResult, SweepPlan, run_sweep

__all__ = ["CELLS", "EXPERIMENTS", "Experiment", "plan_for",
           "run_experiments", "sweep_names"]


@dataclass(frozen=True)
class Experiment:
    """How one experiment name becomes tables (see the module docstring)."""

    #: ``plan(scale, seeds=None, **grid) -> SweepPlan``
    plan: Optional[Callable[..., SweepPlan]] = None
    #: ``render(plan, merged_aggregates) -> table(s)``
    render: Optional[Callable] = None
    #: ``run(scale) -> table(s)``, possibly with non-table payloads
    run: Optional[Callable] = None


EXPERIMENTS: Dict[str, Experiment] = {
    "fig1": Experiment(peak.fig1_sweep_plan, peak.render_fig1),
    "table1": Experiment(peak.table1_sweep_plan, peak.render_table1),
    "fig2": Experiment(peak.fig1_sweep_plan, peak.render_fig2),
    "table2": Experiment(workloads.table2_sweep_plan,
                         workloads.render_table2),
    "fig3": Experiment(workloads.table2_sweep_plan, workloads.render_fig3),
    "fig4": Experiment(workloads.fig4_sweep_plan, workloads.render_fig4),
    "fig5": Experiment(replication.fig5_sweep_plan, replication.render_fig5),
    "fig6": Experiment(replication.fig6_sweep_plan, replication.render_fig6),
    "fig7": Experiment(replication.fig6_sweep_plan, replication.render_fig7),
    "fig8": Experiment(replication.fig6_sweep_plan, replication.render_fig8),
    "fig9": Experiment(run=recovery.run_fig9_crash_timeline),
    "fig10": Experiment(run=recovery.run_fig10_latency_crash),
    "fig11": Experiment(recovery.fig11_sweep_plan, recovery.render_fig11),
    "fig12": Experiment(run=recovery.run_fig12_disk_activity),
    "fig13": Experiment(throttling.fig13_sweep_plan,
                        throttling.render_fig13),
    "worker-threads": Experiment(ablations.worker_threads_sweep_plan,
                                 ablations.render_worker_threads),
    "async-replication": Experiment(ablations.async_replication_sweep_plan,
                                    ablations.render_async_replication),
    "segment-size": Experiment(ablations.segment_size_sweep_plan,
                               ablations.render_segment_size),
    "distributions": Experiment(extensions.distributions_sweep_plan,
                                extensions.render_distributions),
    "transports": Experiment(extensions.transports_sweep_plan,
                             extensions.render_transports),
    "scans": Experiment(extensions.scans_sweep_plan,
                        extensions.render_scans),
    "elastic": Experiment(run=extensions.run_elastic_sizing_extension),
    "correlated": Experiment(
        run=extensions.run_correlated_failures_extension),
    "energy": Experiment(
        plan=energy_proportionality.energy_sweep_plan,
        run=energy_proportionality.run_energy_proportionality),
    "powercap": Experiment(run=energy_proportionality.run_power_cap),
    "frontier": Experiment(durability.frontier_sweep_plan,
                           durability.render_frontier),
    "durability-gap": Experiment(run=durability.run_durability_gap_table),
    "fig_index": Experiment(indexing.fig_index_sweep_plan,
                            indexing.render_fig_index),
    "tenant_mix": Experiment(indexing.tenant_mix_sweep_plan,
                             indexing.render_tenant_mix),
}

#: plan name → cell runner, for the sweep workers
#: (:func:`repro.experiments.sweep.cell_registry`).
CELLS: Dict[str, Callable] = {
    name: cell
    for module in (sweep, peak, workloads, replication, recovery, throttling,
                   ablations, extensions, energy_proportionality, durability,
                   indexing)
    for name, cell in module.SWEEP_CELLS.items()}


def sweep_names() -> List[str]:
    """The experiments that own a plan (``tools/sweep.py --list``): the
    first name of each plan factory, which is also that plan's
    ``experiment``."""
    owners: Dict[Callable, str] = {}
    for name, entry in EXPERIMENTS.items():
        if entry.plan is not None:
            owners.setdefault(entry.plan, name)
    return list(owners.values())


def plan_for(experiment: str, scale: Scale = DEFAULT,
             seeds: Optional[Sequence[int]] = None, **grid) -> SweepPlan:
    """The :class:`SweepPlan` of a registered experiment (its default
    grid unless ``grid`` overrides the factory's keywords)."""
    if experiment == "_selftest":  # the harness's own, hidden from listings
        entry = Experiment(plan=sweep._selftest_plan)
    else:
        entry = EXPERIMENTS.get(experiment)
    if entry is None or entry.plan is None:
        raise ValueError(f"unknown sweep experiment {experiment!r}: "
                         f"choose from {sweep_names()}")
    return entry.plan(scale, seeds=tuple(seeds) if seeds else None, **grid)


def run_experiments(names: Iterable[str], scale: Scale, workers: int = 0,
                    on_cell: Optional[Callable[[CellResult], None]] = None,
                    ) -> Iterator[Tuple[str, List[ComparisonTable]]]:
    """Run ``names`` in order, yielding each one's tables as it finishes.

    Every plan is swept once — entries naming the same plan factory
    render from the same report — serially, or across ``workers``
    processes when that is positive (bit-identical tables either way).
    """
    reports = {}
    for name in names:
        entry = EXPERIMENTS[name]
        if entry.render is None:
            result = entry.run(scale)
        else:
            if entry.plan not in reports:
                reports[entry.plan] = run_sweep(
                    entry.plan(scale), parallel=workers > 0,
                    workers=workers or None, on_cell=on_cell)
            report = reports[entry.plan]
            result = entry.render(report.plan, report.checked_aggregates())
        items = result if isinstance(result, tuple) else (result,)
        yield name, [item for item in items
                     if isinstance(item, ComparisonTable)]
