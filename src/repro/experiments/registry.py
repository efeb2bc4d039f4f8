"""The one list of experiments, and the one way to run them.

``python -m repro list|run``, ``tools/generate_experiments_md.py`` and
``tools/sweep.py`` all read :data:`EXPERIMENTS`: its order is the CLI's
listing order and EXPERIMENTS.md's section order, and its names are the
only experiment names there are.

Every entry is a **plan factory plus a renderer** over that plan's
merged aggregates — a 40-point grid figure and a single crash run
alike, so every table comes from seeded cells that
:mod:`repro.experiments.sweep` can fan out across workers and check
digest for digest against the serial path.  Figures that measure the
same cells name the same factory (Fig. 2 renders from Fig. 1's plan,
Fig. 3 from Table II's, Figs. 7 and 8 from Fig. 6's), and
:func:`run_experiments` renders them from one report, so no cell runs
twice.  :func:`tables` renders one experiment at a non-default grid.

Each entry's **check** returns the paper claims (who wins, where a
curve saturates, how a ratio grows) that its rendered tables do not
hold; :func:`run_experiments` runs it on every table it renders.
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

__all__ = ["CELLS", "EXPERIMENTS", "Experiment", "no_claims", "plan_for",
           "run_experiments", "sweep_names", "tables"]


def no_claims(tables, merged) -> List[str]:  # an entry that claims nothing
    return []


@dataclass(frozen=True)
class Experiment:
    """How one experiment name becomes tables (see the module docstring)."""

    #: ``plan(scale, seeds=None, **grid) -> SweepPlan``
    plan: Callable[..., SweepPlan]
    #: ``render(plan, merged_aggregates) -> table or tuple of tables``
    render: Callable
    #: ``check(tables, merged_aggregates) -> [failed claim, ...]``
    #: (calibrated at DEFAULT scale on the default grid)
    check: Callable[..., List[str]] = no_claims


EXPERIMENTS: Dict[str, Experiment] = {
    "fig1": Experiment(peak.fig1_sweep_plan, peak.render_fig1,
                       peak.check_fig1),
    "table1": Experiment(peak.table1_sweep_plan, peak.render_table1,
                         peak.check_table1),
    "fig2": Experiment(peak.fig1_sweep_plan, peak.render_fig2,
                       peak.check_fig2),
    "table2": Experiment(workloads.table2_sweep_plan, workloads.render_table2,
                         workloads.check_table2),
    "fig3": Experiment(workloads.table2_sweep_plan, workloads.render_fig3,
                       workloads.check_fig3),
    "fig4": Experiment(workloads.fig4_sweep_plan, workloads.render_fig4,
                       workloads.check_fig4),
    "fig5": Experiment(replication.fig5_sweep_plan, replication.render_fig5,
                       replication.check_fig5),
    "fig6": Experiment(replication.fig6_sweep_plan, replication.render_fig6,
                       replication.check_fig6),
    "fig7": Experiment(replication.fig6_sweep_plan, replication.render_fig7,
                       replication.check_fig7),
    "fig8": Experiment(replication.fig6_sweep_plan, replication.render_fig8,
                       replication.check_fig8),
    "fig9": Experiment(recovery.fig9_sweep_plan, recovery.render_fig9,
                       recovery.check_fig9),
    "fig10": Experiment(recovery.fig10_sweep_plan, recovery.render_fig10,
                        recovery.check_fig10),
    "fig11": Experiment(recovery.fig11_sweep_plan, recovery.render_fig11,
                        recovery.check_fig11),
    "fig12": Experiment(recovery.fig12_sweep_plan, recovery.render_fig12,
                        recovery.check_fig12),
    "fig13": Experiment(throttling.fig13_sweep_plan, throttling.render_fig13,
                        throttling.check_fig13),
    "worker-threads": Experiment(ablations.worker_threads_sweep_plan,
                                 ablations.render_worker_threads,
                                 ablations.check_worker_threads),
    "async-replication": Experiment(ablations.async_replication_sweep_plan,
                                    ablations.render_async_replication,
                                    ablations.check_async_replication),
    "segment-size": Experiment(ablations.segment_size_sweep_plan,
                               ablations.render_segment_size,
                               ablations.check_segment_size),
    "distributions": Experiment(extensions.distributions_sweep_plan,
                                extensions.render_distributions,
                                extensions.check_distributions),
    "transports": Experiment(extensions.transports_sweep_plan,
                             extensions.render_transports,
                             extensions.check_transports),
    "scans": Experiment(extensions.scans_sweep_plan, extensions.render_scans,
                        extensions.check_scans),
    "elastic": Experiment(extensions.elastic_sweep_plan,
                          extensions.render_elastic, extensions.check_elastic),
    "correlated": Experiment(extensions.correlated_sweep_plan,
                             extensions.render_correlated,
                             extensions.check_correlated),
    "energy": Experiment(energy_proportionality.energy_sweep_plan,
                         energy_proportionality.render_energy,
                         energy_proportionality.check_energy),
    "powercap": Experiment(energy_proportionality.powercap_sweep_plan,
                           energy_proportionality.render_powercap,
                           energy_proportionality.check_powercap),
    "frontier": Experiment(durability.frontier_sweep_plan,
                           durability.render_frontier,
                           durability.check_frontier),
    "durability-gap": Experiment(durability.durability_gap_sweep_plan,
                                 durability.render_durability_gap,
                                 durability.check_durability_gap),
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
        owners.setdefault(entry.plan, name)
    return list(owners.values())


def plan_for(experiment: str, scale: Scale = DEFAULT,
             seeds: Optional[Sequence[int]] = None, **grid) -> SweepPlan:
    """The :class:`SweepPlan` of a registered experiment (its default
    grid unless ``grid`` overrides the factory's keywords)."""
    if experiment == "_selftest":  # the harness's own, hidden from listings
        factory = sweep._selftest_plan
    elif experiment in EXPERIMENTS:
        factory = EXPERIMENTS[experiment].plan
    else:
        raise ValueError(f"unknown sweep experiment {experiment!r}: "
                         f"choose from {sweep_names()}")
    return factory(scale, seeds=tuple(seeds) if seeds else None, **grid)


def tables(name: str, scale: Scale = DEFAULT, **grid):
    """Experiment ``name``'s table(s) at ``grid`` (its plan factory's
    keywords, ``seeds`` included), run on the serial reference path."""
    plan = plan_for(name, scale, **grid)
    report = run_sweep(plan, parallel=False)
    return EXPERIMENTS[name].render(plan, report.checked_aggregates())


def run_experiments(names: Iterable[str], scale: Scale, workers: int = 0,
                    on_cell: Optional[Callable[[CellResult], None]] = None,
                    ) -> Iterator[Tuple[str, List[ComparisonTable],
                                        List[str]]]:
    """Run ``names`` in order, yielding each one's tables and failed
    claims as it finishes.

    Every plan is swept once — entries naming the same plan factory
    render from the same report — serially, or across ``workers``
    processes when that is positive (bit-identical tables either way).
    A check that raises (say, on a renamed row label) fails as one
    claim naming the exception.
    """
    reports = {}
    for name in names:
        entry = EXPERIMENTS[name]
        if entry.plan not in reports:
            reports[entry.plan] = run_sweep(
                entry.plan(scale), parallel=workers > 0,
                workers=workers or None, on_cell=on_cell)
        report = reports[entry.plan]
        merged = report.checked_aggregates()
        result = entry.render(report.plan, merged)
        rendered = list(result) if isinstance(result, tuple) else [result]
        try:
            failed = entry.check(rendered, merged)
        except Exception as exc:
            failed = [f"check raised {type(exc).__name__}: {exc}"]
        yield name, rendered, failed
