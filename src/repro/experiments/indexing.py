"""§X — secondary-index scans and multi-tenant admission.

The paper leaves indexing as future work ("one could think of scans to
assess the indexing mechanism", §X) and never shares a testbed between
tenants, so these tables have no paper column: they characterize the
repro's own log-structured indexlets (ROADMAP item 2) the same way the
§V grids characterize the point workloads.

* ``fig_index`` — throughput/latency of the indexed workload mixes
  (workload E over a secondary index, and a point-lookup-heavy mix) as
  the index is split over 1/2/4 indexlets;
* ``tenant_mix`` — two tenants on one cluster, one throttled by
  per-tenant admission control, with the per-tenant SLA breakout.

Both grids are registered sweep plans (``fig_index``, ``tenant_mix``),
so the parallel runner fans them out with the same serial-equivalence
guarantees as ``fig4``.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

from repro.experiments.reporting import ComparisonTable
from repro.experiments.scale import DEFAULT, Scale
from repro.experiments.sweep import (
    SweepPlan,
    SweepPoint,
    run_cell,
    ycsb_spec,
)
from repro.ramcloud.tenancy import TenantSpec
from repro.ycsb.workload import (WORKLOAD_A, WORKLOAD_E_INDEXED,
                                 WORKLOAD_LOOKUP_HEAVY, WorkloadSpec)

__all__ = ["fig_index_sweep_plan",
           "tenant_mix_sweep_plan", "render_fig_index", "render_tenant_mix"]

INDEXED_WORKLOADS: Dict[str, WorkloadSpec] = {
    "E-indexed": WORKLOAD_E_INDEXED,
    "lookup-heavy": WORKLOAD_LOOKUP_HEAVY,
}

# The tenant-mix defaults: an unthrottled "gold" tenant next to a
# "bronze" tenant admitted at this many ops/s per master.
BRONZE_ADMISSION_RATE = 2000.0


def _index_cell(params: Dict[str, object], seed: int, scale: Scale):
    """Sweep cell: one (workload, indexlets, seed) point of fig_index."""
    workload = INDEXED_WORKLOADS[params["workload"]].scaled(
        num_indexlets=params["indexlets"])
    return run_cell(ycsb_spec(workload, params["servers"], params["clients"],
                              scale), seed)


def _tenant_cell(params: Dict[str, float], seed: int, scale: Scale):
    """Sweep cell: one seeded tenant-mix run (its headline metrics
    carry each tenant's SLA columns; the digest already covers them)."""
    spec = ycsb_spec(WORKLOAD_A, params["servers"], params["clients"], scale)
    return run_cell(spec.with_(tenants=(
        TenantSpec("gold"),
        TenantSpec("bronze", admission_rate=params["bronze_rate"]))), seed)


SWEEP_CELLS = {"fig_index": _index_cell, "tenant_mix": _tenant_cell}


def fig_index_sweep_plan(scale: Scale = DEFAULT,
                         seeds: Optional[Sequence[int]] = None,
                         indexlet_counts: Sequence[int] = (1, 2, 4),
                         servers: int = 4, clients: int = 4) -> SweepPlan:
    """The ``fig_index`` grid as a :class:`SweepPlan`."""
    points = tuple(
        SweepPoint.of(f"workload {name} / {indexlets} indexlet(s)",
                      workload=name, indexlets=indexlets,
                      servers=servers, clients=clients)
        for name in INDEXED_WORKLOADS for indexlets in indexlet_counts)
    return SweepPlan("fig_index", points, tuple(seeds or scale.seeds),
                     scale)


def tenant_mix_sweep_plan(scale: Scale = DEFAULT,
                          seeds: Optional[Sequence[int]] = None,
                          servers: int = 4, clients: int = 4,
                          bronze_rate: float = BRONZE_ADMISSION_RATE,
                          ) -> SweepPlan:
    """The :func:`run_tenant_mix` cell as a :class:`SweepPlan`."""
    point = SweepPoint.of("gold + bronze", servers=servers,
                          clients=clients, bronze_rate=bronze_rate)
    return SweepPlan("tenant_mix", (point,), tuple(seeds or scale.seeds),
                     scale)


def render_fig_index(plan: SweepPlan, merged) -> ComparisonTable:
    """Indexed workload mixes vs indexlet count (no paper column)."""
    servers = plan.points[0].as_dict()["servers"]
    table = ComparisonTable(
        "Fig. index", f"secondary-index mixes, {servers} servers "
                      f"(Kop/s; mean op latency noted)")
    for point in plan.points:
        metrics = merged[point.label]
        table.add(point.label, None, metrics["throughput"].mean / 1000.0,
                  "K", note=f"mean latency "
                            f"{metrics['mean_latency'].mean * 1e6:.0f} µs")
    table.note("index entries are log records: maintained through the "
               "write path, cleaned and recovered like data (§X future "
               "work in the paper; ROADMAP item 2 here)")
    return table


def render_tenant_mix(plan: SweepPlan, merged) -> ComparisonTable:
    """Two tenants on one cluster; bronze is admission-throttled."""
    point, = plan.points
    params, metrics = point.as_dict(), merged[point.label]
    table = ComparisonTable(
        "Tenant mix", f"workload A split across 2 tenants, "
                      f"{params['servers']} servers (bronze admitted at "
                      f"{params['bronze_rate']:.0f} ops/s per master)")
    for tenant in ("gold", "bronze"):
        table.add(f"tenant {tenant} ops", None,
                  metrics[f"tenant[{tenant}].ops"].mean, "")
        table.add(f"tenant {tenant} p99 latency", None,
                  metrics[f"tenant[{tenant}].p99_latency"].mean * 1e6,
                  " µs")
        table.add(f"tenant {tenant} throttle drops", None,
                  metrics[f"tenant[{tenant}].throttle_drops"].mean, "")
    table.note("admission control drops non-admitted requests at the "
               "dispatch path; clients retry with backoff, so bronze "
               "trades p99 latency for the cap")
    return table
