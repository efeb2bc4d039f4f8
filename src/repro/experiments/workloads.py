"""§V — the energy footprint with read-update workloads.

Reproduces Table II (aggregated throughput of 10 servers for workloads
A/B/C at 10–90 clients), Fig. 3 (scalability factors vs the 10-client
baseline), Fig. 4a (average power per node for 20 servers) and Fig. 4b
(total energy at 90 clients).  Replication is disabled throughout, as
in the paper.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence, Tuple

from repro.experiments.reporting import ComparisonTable
from repro.experiments.scale import DEFAULT, Scale
from repro.experiments.sweep import (
    SweepPlan,
    SweepPoint,
    measure,
    run_cell,
    ycsb_spec,
)
from repro.ycsb.workload import WORKLOAD_A, WORKLOAD_B, WORKLOAD_C

__all__ = ["run_table2_throughput", "run_fig3_scalability", "run_fig4_power",
           "table2_sweep_plan", "fig4_sweep_plan",
           "render_table2", "render_fig3", "render_fig4"]

WORKLOADS = {"A": WORKLOAD_A, "B": WORKLOAD_B, "C": WORKLOAD_C}

# Table II, exact values from the paper (Kop/s).
PAPER_TABLE2_KOPS = {
    ("A", 10): 98, ("A", 20): 106, ("A", 30): 64, ("A", 60): 63, ("A", 90): 64,
    ("B", 10): 236, ("B", 20): 454, ("B", 30): 622, ("B", 60): 816,
    ("B", 90): 844,
    ("C", 10): 236, ("C", 20): 482, ("C", 30): 753, ("C", 60): 1433,
    ("C", 90): 2004,
}
# Fig. 4a, digitized (W per node, 20 servers).
PAPER_FIG4A_WATTS = {
    ("C", 10): 82, ("C", 30): 82, ("C", 60): 82, ("C", 90): 93,
    ("B", 10): 92, ("B", 30): 92, ("B", 60): 92, ("B", 90): 100,
    ("A", 10): 90, ("A", 30): 95, ("A", 60): 103, ("A", 90): 110,
}
# Fig. 4b, digitized (total energy at 90 clients, kJ): B is +28 % over C,
# A is +492 % over C (both ratios are stated exactly in the text).
PAPER_FIG4B_KILOJOULES = {"C": 25.0, "B": 32.0, "A": 148.0}


def _workload_cell(params: Dict[str, object], seed: int, scale: Scale):
    """Sweep cell runner: one (workload, servers, clients, seed) point
    of the §V grids."""
    return run_cell(ycsb_spec(WORKLOADS[params["workload"]],
                              params["servers"], params["clients"], scale),
                    seed)


SWEEP_CELLS = {"table2": _workload_cell, "fig4": _workload_cell}


def _workload_plan(experiment: str, scale: Scale,
                   seeds: Optional[Sequence[int]],
                   workload_names: Sequence[str],
                   client_counts: Sequence[int], servers: int) -> SweepPlan:
    points = tuple(
        SweepPoint.of(f"workload {name} / {clients} clients",
                      workload=name, servers=servers, clients=clients)
        for name in workload_names for clients in client_counts)
    return SweepPlan(experiment, points, tuple(seeds or scale.seeds), scale)


def table2_sweep_plan(scale: Scale = DEFAULT,
                      seeds: Optional[Sequence[int]] = None,
                      client_counts: Sequence[int] = (10, 20, 30, 60, 90),
                      workload_names: Sequence[str] = ("A", "B", "C"),
                      servers: int = 10) -> SweepPlan:
    """The Table II/Fig. 3 grid as a :class:`SweepPlan` (one sweep
    feeds both renderers)."""
    return _workload_plan("table2", scale, seeds, workload_names,
                          client_counts, servers)


def fig4_sweep_plan(scale: Scale = DEFAULT,
                    seeds: Optional[Sequence[int]] = None,
                    client_counts: Sequence[int] = (10, 30, 60, 90),
                    servers: int = 20,
                    workload_names: Sequence[str] = ("C", "B", "A"),
                    ) -> SweepPlan:
    """The Fig. 4a/4b grid as a :class:`SweepPlan`."""
    return _workload_plan("fig4", scale, seeds, workload_names,
                          client_counts, servers)


def _grid_key(point: SweepPoint) -> Tuple[str, int]:
    params = point.as_dict()
    return params["workload"], params["clients"]


def _measured_kops(plan: SweepPlan, merged) -> Dict[Tuple[str, int], float]:
    return {_grid_key(point): merged[point.label]["throughput"].mean / 1000.0
            for point in plan.points}


def render_table2(plan: SweepPlan, merged) -> ComparisonTable:
    """Table II: throughput of 10 servers for workloads A, B, C."""
    servers = plan.points[0].as_dict()["servers"]
    table = ComparisonTable(
        "Table II", f"aggregated throughput, {servers} servers (Kop/s)")
    measured = _measured_kops(plan, merged)
    for point in plan.points:
        table.add(point.label, PAPER_TABLE2_KOPS.get(_grid_key(point)),
                  measured[_grid_key(point)], "K")
    table.note("replication disabled; 100 K records scaled to "
               f"{plan.scale.num_records}")
    return table


def render_fig3(plan: SweepPlan, merged) -> ComparisonTable:
    """Fig. 3: throughput scaling factor relative to the first client
    count, from the Table II cells.

    The paper's reading: read-only scales perfectly (factor ≈
    clients/10), read-heavy collapses between 30 and 60 clients,
    update-heavy never scales at all.
    """
    measured = _measured_kops(plan, merged)
    baseline = plan.points[0].as_dict()["clients"]
    table = ComparisonTable(
        "Fig. 3", f"scalability factor vs {baseline}-client baseline")
    for name in ("C", "B", "A"):
        base_paper = PAPER_TABLE2_KOPS.get((name, baseline))
        for point in plan.points:
            workload, clients = _grid_key(point)
            if workload != name:
                continue
            paper_point = PAPER_TABLE2_KOPS.get((name, clients))
            paper_factor = (paper_point / base_paper
                            if paper_point and base_paper else None)
            table.add(point.label, paper_factor,
                      measured[(name, clients)] / measured[(name, baseline)],
                      "x", note=f"perfect = {clients / baseline:.0f}x")
    return table


def render_fig4(plan: SweepPlan, merged,
                ) -> Tuple[ComparisonTable, ComparisonTable]:
    """Fig. 4a (power per node vs clients) and Fig. 4b (total energy at
    the highest client count, same total work per configuration)."""
    servers = plan.points[0].as_dict()["servers"]
    power = ComparisonTable(
        "Fig. 4a", f"average power per node, {servers} servers (W)")
    energy = ComparisonTable(
        "Fig. 4b", "total energy at 90 clients (kJ, scaled run)")
    most_clients = max(_grid_key(point)[1] for point in plan.points)
    energy_measured: Dict[str, float] = {}
    for point in plan.points:
        metrics = merged[point.label]
        name, clients = _grid_key(point)
        power.add(point.label, PAPER_FIG4A_WATTS.get((name, clients)),
                  metrics["avg_power_per_server"].mean, "W")
        if clients == most_clients:
            energy_measured[name] = metrics["total_energy_joules"].mean
    # Our runs are scaled down, so absolute joules are not comparable —
    # compare the paper's stated ratios instead.
    c_joules = energy_measured.get("C")
    for name in ("C", "B", "A"):
        joules = energy_measured.get(name)
        if joules is None or c_joules is None:
            continue
        energy.add(f"workload {name} energy ratio vs C",
                   PAPER_FIG4B_KILOJOULES[name] / PAPER_FIG4B_KILOJOULES["C"],
                   joules / c_joules, "x")
        energy.add(f"workload {name} total energy (this run)",
                   None, joules / 1000.0, " kJ")
    energy.note("paper ratios: B consumes 28 % more than C, A consumes "
                "4.92x C (§V)")
    return power, energy


def run_table2_throughput(scale: Scale = DEFAULT,
                          client_counts: Sequence[int] = (10, 20, 30, 60, 90),
                          workload_names: Sequence[str] = ("A", "B", "C"),
                          servers: int = 10,
                          ) -> Tuple[ComparisonTable,
                                     Dict[Tuple[str, int], float]]:
    """Table II, plus the measured Kop/s keyed by (workload, clients)."""
    plan = table2_sweep_plan(scale, None, client_counts, workload_names,
                             servers)
    merged = measure(plan)
    return render_table2(plan, merged), _measured_kops(plan, merged)


def run_fig3_scalability(scale: Scale = DEFAULT,
                         client_counts: Sequence[int] = (10, 20, 30, 60, 90),
                         ) -> ComparisonTable:
    """Fig. 3: throughput scaling factor relative to 10 clients."""
    plan = table2_sweep_plan(scale, None, client_counts)
    return render_fig3(plan, measure(plan))


def run_fig4_power(scale: Scale = DEFAULT,
                   client_counts: Sequence[int] = (10, 30, 60, 90),
                   servers: int = 20,
                   ) -> Tuple[ComparisonTable, ComparisonTable]:
    """Fig. 4a (power per node vs clients) and Fig. 4b (total energy at
    90 clients, same total work per configuration)."""
    plan = fig4_sweep_plan(scale, None, client_counts, servers)
    return render_fig4(plan, measure(plan))
