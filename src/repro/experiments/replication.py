"""§VI — replication's impact on performance and energy efficiency.

Reproduces Fig. 5 (throughput vs replication factor for 20 servers),
Fig. 6a (throughput vs RF for 10–40 servers at 60 clients), Fig. 6b
(total energy for the same grid), Fig. 7 (average power per node, 40
servers) and Fig. 8 (energy efficiency vs RF).

All runs use the update-heavy workload A, as in the paper.
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
from repro.ycsb.workload import WORKLOAD_A

__all__ = ["run_fig5_replication", "run_fig6_replication_scale",
           "run_fig7_power_rf", "run_fig8_efficiency_rf",
           "fig5_sweep_plan", "fig6_sweep_plan",
           "render_fig5", "render_fig6", "render_fig7", "render_fig8"]

# Fig. 5 (20 servers): exact where stated in the text, digitized (~)
# elsewhere.  Kop/s.
PAPER_FIG5_KOPS = {
    (10, 1): 78, (10, 2): 65, (10, 3): 52, (10, 4): 43,
    (30, 1): 140, (30, 2): 115, (30, 3): 75, (30, 4): 41,
    (60, 1): 160, (60, 2): 120, (60, 3): 80, (60, 4): 50,
}
# Fig. 6a (60 clients): RF>2 at 10 servers crashed in the paper (None).
PAPER_FIG6A_KOPS = {
    (10, 1): 128, (10, 2): 95, (10, 3): None, (10, 4): None,
    (20, 1): 160, (20, 2): 120, (20, 3): 80, (20, 4): 50,
    (30, 1): 200, (30, 2): 150, (30, 3): 105, (30, 4): 70,
    (40, 1): 237, (40, 2): 180, (40, 3): 130, (40, 4): 90,
}
# Fig. 6b (total energy, kJ): anchors from the text — 20 servers: 81 kJ
# at RF1 rising 351 % to 285 kJ at RF4; 40 servers rises 345 %.
PAPER_FIG6B_KILOJOULES = {
    (20, 1): 81, (20, 4): 285,
    (30, 1): 94, (30, 4): 330,
    (40, 1): 104, (40, 4): 463,
}
# Fig. 7 (40 servers, 60 clients): 103 W at RF1 up to 115 W at RF4.
PAPER_FIG7_WATTS = {1: 103, 2: 108, 3: 112, 4: 115}
# Fig. 8 (op/joule): text gives RF1 values 1500/1900/2300 for 20/30/40
# servers, declining toward ~500 at RF4.
PAPER_FIG8_OPS_PER_JOULE = {
    (20, 1): 1500, (20, 4): 550,
    (30, 1): 1900, (30, 4): 600,
    (40, 1): 2300, (40, 4): 650,
}


def _replication_cell(params: Dict[str, int], seed: int, scale: Scale):
    """Sweep cell runner: one (servers, clients, rf, seed) point of the
    §VI replication grids.  Clients give up on an op unserviceable for
    5 s — the paper's "crashed" runs."""
    spec = ycsb_spec(WORKLOAD_A, params["servers"], params["clients"], scale,
                     replication_factor=params["rf"])
    return run_cell(spec.with_(give_up_after=5.0), seed)


SWEEP_CELLS = {"fig5": _replication_cell, "fig6": _replication_cell}


def fig5_sweep_plan(scale: Scale = DEFAULT,
                    seeds: Optional[Sequence[int]] = None,
                    client_counts: Sequence[int] = (10, 30, 60),
                    rfs: Sequence[int] = (1, 2, 3, 4),
                    servers: int = 20) -> SweepPlan:
    """The Fig. 5 grid as a :class:`SweepPlan`."""
    points = tuple(
        SweepPoint.of(f"{clients} clients / RF {rf}",
                      servers=servers, clients=clients, rf=rf)
        for clients in client_counts for rf in rfs)
    return SweepPlan("fig5", points, tuple(seeds or scale.seeds), scale)


def fig6_sweep_plan(scale: Scale = DEFAULT,
                    seeds: Optional[Sequence[int]] = None,
                    server_counts: Sequence[int] = (10, 20, 30, 40),
                    rfs: Sequence[int] = (1, 2, 3, 4),
                    clients: int = 60) -> SweepPlan:
    """The Fig. 6 grid as a :class:`SweepPlan`; Fig. 7 (its largest
    cluster) and Fig. 8 (all but its smallest) render from the same
    cells."""
    points = tuple(
        SweepPoint.of(f"{servers} servers / RF {rf}",
                      servers=servers, clients=clients, rf=rf)
        for servers in server_counts for rf in rfs)
    return SweepPlan("fig6", points, tuple(seeds or scale.seeds), scale)


def _crashed(metrics) -> bool:
    return any(flag > 0 for flag in metrics["crashed"].values)


def render_fig5(plan: SweepPlan, merged) -> ComparisonTable:
    """Fig. 5: throughput of 20 servers vs replication factor."""
    servers = plan.points[0].as_dict()["servers"]
    table = ComparisonTable(
        "Fig. 5", f"workload A throughput vs RF, {servers} servers (Kop/s)")
    for point in plan.points:
        params, metrics = point.as_dict(), merged[point.label]
        table.add(point.label,
                  PAPER_FIG5_KOPS.get((params["clients"], params["rf"])),
                  metrics["throughput"].mean / 1000.0, "K",
                  note="run crashed (timeouts)" if _crashed(metrics) else "")
    return table


def render_fig6(plan: SweepPlan, merged,
                ) -> Tuple[ComparisonTable, ComparisonTable]:
    """Fig. 6a (throughput) and Fig. 6b (total energy), 60 clients."""
    clients = plan.points[0].as_dict()["clients"]
    throughput = ComparisonTable(
        "Fig. 6a", f"workload A throughput vs RF at {clients} clients (Kop/s)")
    energy = ComparisonTable(
        "Fig. 6b", "total energy vs RF (ratios; absolute kJ is run-scaled)")
    energy_measured: Dict[Tuple[int, int], float] = {}
    for point in plan.points:
        params, metrics = point.as_dict(), merged[point.label]
        key = (params["servers"], params["rf"])
        paper = PAPER_FIG6A_KOPS.get(key)
        note = ""
        if paper is None:
            note = "paper run crashed (excessive timeouts)"
        if _crashed(metrics):
            note = (note + "; " if note else "") + "our run crashed too"
        throughput.add(point.label, paper,
                       metrics["throughput"].mean / 1000.0, "K", note=note)
        energy_measured[key] = metrics["total_energy_joules"].mean
    rfs = [rf for _servers, rf in energy_measured]
    lo, hi = min(rfs), max(rfs)
    for servers in dict.fromkeys(s for s, _rf in energy_measured):
        base = energy_measured.get((servers, lo))
        peak = energy_measured.get((servers, hi))
        paper_base = PAPER_FIG6B_KILOJOULES.get((servers, lo))
        paper_peak = PAPER_FIG6B_KILOJOULES.get((servers, hi))
        paper_ratio = (paper_peak / paper_base
                       if paper_base and paper_peak else None)
        if base and peak:
            energy.add(f"{servers} servers energy ratio RF4/RF1",
                       paper_ratio, peak / base, "x")
            energy.add(f"{servers} servers energy RF1 (this run)",
                       None, base / 1000.0, " kJ")
    energy.note("paper: RF 1→4 costs 3.51x at 20 servers, 3.45x at 40 "
                "servers (§VI)")
    return throughput, energy


def render_fig7(plan: SweepPlan, merged, servers: int = 40,
                ) -> ComparisonTable:
    """Fig. 7: average power per node of 40 servers vs RF, from the
    Fig. 6 cells of that cluster size."""
    clients = plan.points[0].as_dict()["clients"]
    table = ComparisonTable(
        "Fig. 7", f"average power per node, {servers} servers / "
        f"{clients} clients (W)")
    for point in plan.points:
        params = point.as_dict()
        if params["servers"] == servers:
            table.add(f"RF {params['rf']}",
                      PAPER_FIG7_WATTS.get(params["rf"]),
                      merged[point.label]["avg_power_per_server"].mean, "W")
    return table


def render_fig8(plan: SweepPlan, merged,
                server_counts: Sequence[int] = (20, 30, 40),
                ) -> ComparisonTable:
    """Fig. 8: energy efficiency vs RF — more servers are MORE efficient
    with replication on (Finding 4, the reverse of Finding 1).  From the
    Fig. 6 cells; the paper drops the 10-server cluster, whose RF > 2
    runs crashed."""
    clients = plan.points[0].as_dict()["clients"]
    table = ComparisonTable(
        "Fig. 8", f"energy efficiency vs RF at {clients} clients (op/joule)")
    measured: Dict[Tuple[int, int], float] = {}
    for point in plan.points:
        params = point.as_dict()
        key = (params["servers"], params["rf"])
        if key[0] not in server_counts:
            continue
        eff = merged[point.label]["energy_efficiency"].mean
        measured[key] = eff
        table.add(point.label, PAPER_FIG8_OPS_PER_JOULE.get(key), eff,
                  " op/J")
    # Finding 4 check: at RF1, efficiency increases with server count.
    if all((s, 1) in measured for s in server_counts):
        ordered = [measured[(s, 1)] for s in sorted(server_counts)]
        table.note("Finding 4 (more servers → better efficiency at RF1): "
                   + ("HOLDS" if ordered == sorted(ordered) else "VIOLATED")
                   + f" ({', '.join(f'{v:.0f}' for v in ordered)} op/J)")
    table.note("the paper's absolute op/J scale cannot be reconciled with "
               "its own Fig. 6a/6b (which imply ≈74 op/J for the same "
               "runs); compare orderings, not absolutes")
    return table


def run_fig5_replication(scale: Scale = DEFAULT,
                         client_counts: Sequence[int] = (10, 30, 60),
                         rfs: Sequence[int] = (1, 2, 3, 4),
                         servers: int = 20) -> ComparisonTable:
    """Fig. 5: throughput of 20 servers vs replication factor."""
    plan = fig5_sweep_plan(scale, None, client_counts, rfs, servers)
    return render_fig5(plan, measure(plan))


def run_fig6_replication_scale(scale: Scale = DEFAULT,
                               server_counts: Sequence[int] = (10, 20, 30, 40),
                               rfs: Sequence[int] = (1, 2, 3, 4),
                               clients: int = 60,
                               ) -> Tuple[ComparisonTable, ComparisonTable]:
    """Fig. 6a (throughput) and Fig. 6b (total energy), 60 clients."""
    plan = fig6_sweep_plan(scale, None, server_counts, rfs, clients)
    return render_fig6(plan, measure(plan))


def run_fig7_power_rf(scale: Scale = DEFAULT,
                      rfs: Sequence[int] = (1, 2, 3, 4),
                      servers: int = 40, clients: int = 60,
                      ) -> ComparisonTable:
    """Fig. 7: average power per node of 40 servers vs RF."""
    plan = fig6_sweep_plan(scale, None, (servers,), rfs, clients)
    return render_fig7(plan, measure(plan), servers)


def run_fig8_efficiency_rf(scale: Scale = DEFAULT,
                           server_counts: Sequence[int] = (20, 30, 40),
                           rfs: Sequence[int] = (1, 2, 3, 4),
                           clients: int = 60) -> ComparisonTable:
    """Fig. 8: energy efficiency vs RF at 60 clients."""
    plan = fig6_sweep_plan(scale, None, server_counts, rfs, clients)
    return render_fig8(plan, measure(plan), server_counts)
