"""§IV — the energy footprint of peak performance.

Reproduces Fig. 1a (aggregated read-only throughput), Fig. 1b (average
power per server), Table I (per-node CPU usage) and Fig. 2 (energy
efficiency), with the paper's methodology: replication disabled,
read-only workload, uniform data and request distribution, one client
per machine, Infiniband.
"""

from __future__ import annotations

import hashlib
from typing import Dict, Optional, Sequence, Tuple

from repro.cluster import Cluster
from repro.experiments.reporting import ComparisonTable
from repro.experiments.scale import DEFAULT, Scale
from repro.experiments.sweep import (
    CellOutcome,
    SweepPlan,
    SweepPoint,
    measure,
    run_cell,
    ycsb_spec,
)
from repro.ycsb.workload import WORKLOAD_C

__all__ = ["run_fig1_peak", "run_table1_cpu", "run_fig2_efficiency",
           "fig1_sweep_plan", "table1_sweep_plan",
           "render_fig1", "render_table1", "render_fig2"]

# Paper values.  Text-sourced numbers are exact; curve points without a
# number in the text are digitized from the figures (marked ~ in notes).
PAPER_FIG1A_KOPS = {  # (servers, clients) → Kop/s
    (1, 1): 30, (1, 10): 300, (1, 30): 372,
    (5, 1): 30, (5, 10): 310, (5, 30): 900,
    (10, 1): 30, (10, 10): 310, (10, 30): 910,
}
PAPER_FIG1B_WATTS = {  # (servers, clients) → W/server
    (1, 1): 92, (1, 10): 127, (1, 30): 127,
    (5, 1): 93, (5, 10): 124, (5, 30): 124,
    (10, 1): 95, (10, 10): 122, (10, 30): 122,
}
PAPER_TABLE1_CPU = {  # (servers, clients) → average CPU %
    (1, 0): 25.0, (1, 1): 49.81, (1, 2): 74.16, (1, 3): 79.66,
    (1, 4): 89.80, (1, 5): 94.34, (1, 10): 98.35, (1, 30): 99.26,
    (5, 1): 49.7, (5, 5): 85.4, (5, 10): 97.2, (5, 30): 97.0,
    (10, 1): 49.8, (10, 5): 76.4, (10, 10): 92.5, (10, 30): 95.4,
}
PAPER_FIG2_OPS_PER_JOULE = {  # (servers, clients) → op/joule
    (1, 1): 320, (1, 10): 2400, (1, 30): 3000,
    (5, 1): 65, (5, 10): 500, (5, 30): 1450,
    (10, 1): 32, (10, 10): 250, (10, 30): 395,
}


def _fig1_cell(params: Dict[str, int], seed: int, scale: Scale):
    """Sweep cell runner: one (servers, clients, seed) point of the
    §IV read-only grid."""
    return run_cell(ycsb_spec(WORKLOAD_C, scale=scale, **params), seed)


def _table1_cell(params: Dict[str, int], seed: int, scale: Scale):
    """Sweep cell runner: one Table I row — the Fig. 1 cell, except
    that ``clients=0`` is the idle measurement: no workload (and so no
    use for the seed), just the running servers."""
    spec = ycsb_spec(WORKLOAD_C, scale=scale, **params)
    if params["clients"]:
        return run_cell(spec, seed)
    cluster = Cluster(spec.cluster)
    cluster.run(until=5.0)
    # The window is [0, 5 s]; no busy time has accrued at t=0.
    idle = sum(100.0 * n.cpu.busy_core_seconds() / (5.0 * n.cpu.cores)
               for n in cluster.server_nodes) / params["servers"]
    cluster.sim.close()
    return CellOutcome(
        metrics={"cpu_util_avg": idle},
        digest=hashlib.sha256(repr(idle).encode()).hexdigest())


SWEEP_CELLS = {"fig1": _fig1_cell, "table1": _table1_cell}


def _peak_plan(experiment: str, scale: Scale,
               seeds: Optional[Sequence[int]],
               grid: Sequence[Tuple[int, int]]) -> SweepPlan:
    points = tuple(
        SweepPoint.of(f"{servers} servers / {clients} clients",
                      servers=servers, clients=clients)
        for servers, clients in grid)
    return SweepPlan(experiment, points, tuple(seeds or scale.seeds), scale)


def fig1_sweep_plan(scale: Scale = DEFAULT,
                    seeds: Optional[Sequence[int]] = None,
                    server_counts: Sequence[int] = (1, 5, 10),
                    client_counts: Sequence[int] = (1, 10, 30),
                    ) -> SweepPlan:
    """The Fig. 1/Fig. 2 grid as a :class:`SweepPlan` (one sweep feeds
    both renderers — they measure the same cells)."""
    return _peak_plan("fig1", scale, seeds,
                      [(servers, clients) for servers in server_counts
                       for clients in client_counts])


def table1_sweep_plan(scale: Scale = DEFAULT,
                      seeds: Optional[Sequence[int]] = None,
                      grid: Sequence[Tuple[int, int]] = (
                          (1, 0), (1, 1), (1, 2), (1, 3), (1, 4), (1, 5),
                          (1, 10), (1, 30), (5, 5), (5, 30), (10, 5),
                          (10, 30)),
                      ) -> SweepPlan:
    """The Table I rows as a :class:`SweepPlan`."""
    return _peak_plan("table1", scale, seeds, grid)


def _grid_key(point: SweepPoint) -> Tuple[int, int]:
    params = point.as_dict()
    return params["servers"], params["clients"]


def render_fig1(plan: SweepPlan, merged,
                ) -> Tuple[ComparisonTable, ComparisonTable]:
    """Fig. 1a (throughput) and Fig. 1b (average power per server)."""
    throughput = ComparisonTable(
        "Fig. 1a", "read-only aggregated throughput (Kop/s)")
    power = ComparisonTable(
        "Fig. 1b", "average power per server (W)")
    for point in plan.points:
        metrics = merged[point.label]
        throughput.add(point.label, PAPER_FIG1A_KOPS.get(_grid_key(point)),
                       metrics["throughput"].mean / 1000.0, "K")
        power.add(point.label, PAPER_FIG1B_WATTS.get(_grid_key(point)),
                  metrics["avg_power_per_server"].mean, "W")
    throughput.note("paper points without an exact number in the text "
                    "are digitized from the figure")
    power.note("power model calibrated on the paper's (CPU%, W) anchors "
               "— DESIGN.md §4")
    return throughput, power


def render_table1(plan: SweepPlan, merged) -> ComparisonTable:
    """Table I: average CPU usage per node for the read-only grid."""
    table = ComparisonTable(
        "Table I", "average per-node CPU usage, read-only workload (%)")
    for point in plan.points:
        table.add(point.label, PAPER_TABLE1_CPU.get(_grid_key(point)),
                  merged[point.label]["cpu_util_avg"].mean, "%")
    table.note("the idle row is the pinned dispatch core: 1 of 4 cores "
               "busy-polling = 25 %")
    return table


def render_fig2(plan: SweepPlan, merged) -> ComparisonTable:
    """Fig. 2: energy efficiency (operations per joule), from the
    Fig. 1 cells."""
    table = ComparisonTable("Fig. 2", "energy efficiency (op/joule)")
    measured: Dict[Tuple[int, int], float] = {}
    for point in plan.points:
        eff = merged[point.label]["energy_efficiency"].mean
        measured[_grid_key(point)] = eff
        table.add(point.label,
                  PAPER_FIG2_OPS_PER_JOULE.get(_grid_key(point)), eff,
                  " op/J")
    # The paper's headline: 1 server at 30 clients is ≈7.6× more
    # efficient than 10 servers at 30 clients.
    if (1, 30) in measured and (10, 30) in measured:
        table.add("efficiency ratio 1 vs 10 servers (30 clients)",
                  7.6, measured[(1, 30)] / measured[(10, 30)])
    return table


def run_fig1_peak(scale: Scale = DEFAULT,
                  server_counts: Sequence[int] = (1, 5, 10),
                  client_counts: Sequence[int] = (1, 10, 30),
                  ) -> Tuple[ComparisonTable, ComparisonTable]:
    """Fig. 1a (throughput) and Fig. 1b (average power per server)."""
    plan = fig1_sweep_plan(scale, None, server_counts, client_counts)
    return render_fig1(plan, measure(plan))


def run_table1_cpu(scale: Scale = DEFAULT,
                   grid: Sequence[Tuple[int, int]] = (
                       (1, 0), (1, 1), (1, 2), (1, 3), (1, 4), (1, 5),
                       (1, 10), (1, 30), (5, 5), (5, 30), (10, 5), (10, 30)),
                   ) -> ComparisonTable:
    """Table I: average CPU usage per node for the read-only grid."""
    plan = table1_sweep_plan(scale, None, grid)
    return render_table1(plan, measure(plan))


def run_fig2_efficiency(scale: Scale = DEFAULT,
                        server_counts: Sequence[int] = (1, 5, 10),
                        client_counts: Sequence[int] = (1, 10, 30),
                        ) -> ComparisonTable:
    """Fig. 2: energy efficiency (operations per joule)."""
    plan = fig1_sweep_plan(scale, None, server_counts, client_counts)
    return render_fig2(plan, measure(plan))
