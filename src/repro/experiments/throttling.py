"""§IX — request throttling (Fig. 13).

"while limiting the throughput at client level we could run the
scenario with 10 servers presented in Section VI while avoiding crashes
and having linear throughput increase."
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.experiments.reporting import ComparisonTable, failed_claims
from repro.experiments.scale import DEFAULT, Scale
from repro.experiments.sweep import (
    SweepPlan,
    SweepPoint,
    run_cell,
    ycsb_spec,
)
from repro.ycsb.workload import WORKLOAD_A

__all__ = ["fig13_sweep_plan", "render_fig13"]

# Fig. 13: perfectly linear — clients × rate (op/s).
PAPER_FIG13_OPS = {
    (200, 10): 2_000, (200, 30): 6_000, (200, 60): 12_000,
    (500, 10): 5_000, (500, 30): 15_000, (500, 60): 30_000,
}


def _fig13_cell(params: Dict[str, float], seed: int, scale: Scale):
    """Sweep cell runner: one (rate, clients, seed) throttled run."""
    # Each client must run long enough to establish the rate:
    # ops_per_client / rate seconds of pacing.
    ops = max(50, min(scale.ops_per_client, 300))
    return run_cell(ycsb_spec(
        WORKLOAD_A.throttled(params["rate"]), params["servers"],
        params["clients"], scale.with_(ops_per_client=ops),
        replication_factor=params["rf"]), seed)


SWEEP_CELLS = {"fig13": _fig13_cell}


def fig13_sweep_plan(scale: Scale = DEFAULT,
                     seeds: Optional[Sequence[int]] = None,
                     rates: Sequence[float] = (200.0, 500.0),
                     client_counts: Sequence[int] = (10, 30, 60),
                     servers: int = 10, rf: int = 2) -> SweepPlan:
    """The Fig. 13 grid as a :class:`SweepPlan` (one seed per point
    unless ``seeds`` says otherwise: pacing, not chance, sets the
    throughput)."""
    points = tuple(
        SweepPoint.of(f"rate {rate:.0f}/s / {clients} clients",
                      rate=rate, clients=clients, servers=servers, rf=rf)
        for rate in rates for clients in client_counts)
    return SweepPlan("fig13", points, tuple(seeds or scale.seeds[:1]), scale)


def render_fig13(plan: SweepPlan, merged) -> ComparisonTable:
    """Fig. 13: throttled update-heavy clients on 10 servers at RF 2."""
    first = plan.points[0].as_dict()
    table = ComparisonTable(
        "Fig. 13", f"throttled workload A throughput "
        f"({first['servers']} servers, RF {first['rf']})")
    for point in plan.points:
        params = point.as_dict()
        table.add(point.label,
                  PAPER_FIG13_OPS.get((params["rate"], params["clients"])),
                  merged[point.label]["throughput"].mean, " op/s")
    table.note("linear in clients at both rates = the cluster is never "
               "saturated, so no timeouts/crashes (§IX)")
    return table


def check_fig13(tables, merged) -> List[str]:
    ops = tables[0].measured_by_label()
    claims = {}
    for rate in (200, 500):
        n10, n30, n60 = (ops[f"rate {rate}/s / {n} clients"]
                         for n in (10, 30, 60))
        claims[f"rate {rate}/s: 30 clients > 2.5x 10"] = n30 > 2.5 * n10
        claims[f"rate {rate}/s: 60 clients > 1.7x 30"] = n60 > 1.7 * n30
        claims[f"rate {rate}/s / 10 clients within 15 % of the rate"] = (
            abs(n10 - rate * 10) < 0.15 * rate * 10)
    claims["rate 500/s / 60 clients > 2x rate 200/s"] = (
        ops["rate 500/s / 60 clients"] > 2.0 * ops["rate 200/s / 60 clients"])
    return failed_claims(claims)
