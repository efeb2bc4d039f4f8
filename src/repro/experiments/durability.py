"""Extension — the consistency/durability frontier.

The paper measures RAMCloud's write path only at full synchronous
replication (§VI: every ack waits for RF backups).  The tunable
consistency levels (docs/CONSISTENCY.md) expose the frontier the paper
could not see: what does each notch of relaxed durability buy in
latency, throughput and energy efficiency — and what exactly does a
crash cost at that notch?

Two tables:

* ``frontier`` — workload A at each level on the same cluster:
  throughput, mean op latency, ops/joule;
* ``durability-gap`` — the measured crash-loss guarantee per level (the
  :mod:`repro.cluster.durability` harness): acked writes, acked-write
  loss, observed staleness vs the bound, recovery time.

Both are registered sweep plans, so ``tools/sweep.py --experiment
frontier`` (or ``durability-gap``) fans them out across workers with
the same serial-equivalence digests as every other sweep.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.cluster import (ClusterSpec, DurabilityGapSpec,
                           durability_gap_digest, run_durability_gap)
from repro.experiments.reporting import ComparisonTable, failed_claims
from repro.experiments.scale import DEFAULT, Scale
from repro.experiments.sweep import (
    CellOutcome,
    SweepPlan,
    SweepPoint,
    run_cell,
    ycsb_spec,
)
from repro.hardware.specs import MB
from repro.ramcloud.config import ServerConfig
from repro.ramcloud.consistency import ASYNC_BOUNDED, EVENTUAL, LEVELS, SYNC_RF
from repro.ycsb.workload import WORKLOAD_A

__all__ = ["frontier_sweep_plan", "durability_gap_sweep_plan",
           "render_frontier", "render_durability_gap"]


def _frontier_cell(params: Dict[str, object], seed: int, scale: Scale):
    """Sweep cell runner: one (level, rf, seed) frontier point."""
    spec = ycsb_spec(WORKLOAD_A, params["servers"], params["clients"], scale,
                     replication_factor=params["rf"],
                     default_consistency=params["level"])
    return run_cell(spec.with_(give_up_after=5.0), seed)


def frontier_sweep_plan(scale: Scale = DEFAULT,
                        seeds: Optional[Sequence[int]] = None,
                        levels: Sequence[str] = LEVELS,
                        rfs: Sequence[int] = (2,),
                        servers: int = 10,
                        clients: int = 10) -> SweepPlan:
    """The consistency frontier grid as a :class:`SweepPlan`."""
    points = tuple(
        SweepPoint.of(f"{level} / RF {rf}",
                      level=level, rf=rf, servers=servers, clients=clients)
        for level in levels for rf in rfs)
    return SweepPlan("frontier", points, tuple(seeds or scale.seeds), scale)


def render_frontier(plan: SweepPlan, merged) -> ComparisonTable:
    """Latency/throughput/ops-per-joule at each consistency level."""
    first = plan.points[0].as_dict()
    table = ComparisonTable(
        "Ext. frontier",
        f"workload A per consistency level, {first['servers']} servers / "
        f"{first['clients']} clients / RF {first['rf']}")
    for point in plan.points:
        level, metrics = point.as_dict()["level"], merged[point.label]
        table.add(f"{level} throughput", None,
                  metrics["throughput"].mean / 1000.0, " Kop/s")
        table.add(f"{level} mean latency", None,
                  metrics["mean_latency"].mean * 1e6, " us")
        table.add(f"{level} efficiency", None,
                  metrics["energy_efficiency"].mean, " op/J")
    table.note("no paper column: the paper only measures the sync_rf "
               "point of this frontier (§VI)")
    table.note("scaling note: relaxed levels buy the most at high RF "
               "and write fraction — the ack path drops RF round trips")
    return table


def check_frontier(tables, merged) -> List[str]:
    rows = tables[0].measured_by_label()
    return failed_claims({
        f"{ASYNC_BOUNDED} throughput >= {SYNC_RF}":
            rows[f"{ASYNC_BOUNDED} throughput"]
            >= rows[f"{SYNC_RF} throughput"],
        f"{ASYNC_BOUNDED} mean latency <= {SYNC_RF}":
            rows[f"{ASYNC_BOUNDED} mean latency"]
            <= rows[f"{SYNC_RF} mean latency"],
        f"{EVENTUAL} efficiency >= {SYNC_RF}":
            rows[f"{EVENTUAL} efficiency"] >= rows[f"{SYNC_RF} efficiency"],
    })


def _durability_gap_cell(params: Dict[str, object], seed: int,
                         scale: Scale):
    """Sweep cell runner: one level's write stream across a master
    crash (the :mod:`repro.cluster.durability` harness)."""
    spec = DurabilityGapSpec(
        cluster=ClusterSpec(
            num_servers=params["servers"], num_clients=2,
            server_config=ServerConfig(log_memory_bytes=64 * MB,
                                       segment_size=1 * MB,
                                       replication_factor=params["rf"]),
            seed=seed),
        level=params["level"],
        # The stream must still be flowing when the crash lands
        # (default crash_at=0.25, one write per 4 ms ⇒ ≥100 writes
        # span it) or there is no in-flight tail to measure.
        writes_per_client=max(100, scale.ops_per_client // 4),
    )
    result = run_durability_gap(spec)
    metrics = {"acked_writes": float(result.acked_writes),
               "acked_write_loss": float(result.acknowledged_write_loss),
               "max_staleness": result.max_observed_staleness}
    if result.recovery_duration is not None:
        metrics["recovery_duration"] = result.recovery_duration
    return CellOutcome(metrics=metrics,
                       digest=durability_gap_digest(result))


def durability_gap_sweep_plan(scale: Scale = DEFAULT,
                              seeds: Optional[Sequence[int]] = None,
                              levels: Sequence[str] = LEVELS,
                              rf: int = 1,
                              servers: int = 4) -> SweepPlan:
    """The durability gap as a :class:`SweepPlan`: one point per level,
    at the scale's first seed unless ``seeds`` says otherwise."""
    points = tuple(SweepPoint.of(level, level=level, rf=rf, servers=servers)
                   for level in levels)
    return SweepPlan("durability-gap", points,
                     tuple(seeds or scale.seeds[:1]), scale)


def render_durability_gap(plan: SweepPlan, merged) -> ComparisonTable:
    """Measured crash-loss per level: what the ack was worth."""
    first = plan.points[0].as_dict()
    table = ComparisonTable(
        "Ext. durability gap",
        f"acked-write loss under a master crash, {first['servers']} "
        f"servers / RF {first['rf']}")
    for point in plan.points:
        level, metrics = point.label, merged[point.label]
        table.add(f"{level} acked writes", None,
                  metrics["acked_writes"].mean, "")
        table.add(f"{level} acked-write loss", None,
                  metrics["acked_write_loss"].mean, "")
        table.add(f"{level} observed staleness", None,
                  metrics["max_staleness"].mean * 1e3, " ms")
        if "recovery_duration" in metrics:
            table.add(f"{level} recovery time", None,
                      metrics["recovery_duration"].mean * 1e3, " ms")
    table.note("sync_rf loss must be exactly 0 (enforced by "
               "tests/integration/test_durability_gap.py); relaxed "
               "levels may lose at most the in-flight batch")
    table.note(f"staleness bound: "
               f"{ServerConfig().staleness_bound_seconds * 1e3:.0f} ms "
               f"sim-time / {ServerConfig().staleness_bound_bytes} bytes")
    return table


def check_durability_gap(tables, merged) -> List[str]:
    rows = tables[0].measured_by_label()
    claims = {f"{SYNC_RF} loses no acked write":
              rows[f"{SYNC_RF} acked-write loss"] == 0.0}
    for level in (ASYNC_BOUNDED, EVENTUAL):
        acked = rows[f"{level} acked writes"]
        claims[f"{level} acked writes > 0"] = acked > 0
        claims[f"{level} loses <= 25 % of acked writes"] = (
            rows[f"{level} acked-write loss"] <= acked * 0.25)
    return failed_claims(claims)


SWEEP_CELLS = {"frontier": _frontier_cell,
               "durability-gap": _durability_gap_cell}
