"""Extension — the consistency/durability frontier.

The paper measures RAMCloud's write path only at full synchronous
replication (§VI: every ack waits for RF backups).  The tunable
consistency levels (docs/CONSISTENCY.md) expose the frontier the paper
could not see: what does each notch of relaxed durability buy in
latency, throughput and energy efficiency — and what exactly does a
crash cost at that notch?

Two tables:

* :func:`run_consistency_frontier` — workload A at each level on the
  same cluster: throughput, mean op latency, ops/joule;
* :func:`run_durability_gap_table` — the measured crash-loss guarantee
  per level (the :mod:`repro.cluster.durability` harness): acked
  writes, acked-write loss, observed staleness vs the bound, recovery
  time.

The frontier grid is a registered sweep plan, so ``tools/sweep.py
--experiment frontier`` fans it out across workers with the same
serial-equivalence digests as every other sweep.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

from repro.cluster import ClusterSpec, DurabilityGapSpec, run_durability_gap
from repro.experiments.reporting import ComparisonTable
from repro.experiments.scale import DEFAULT, Scale
from repro.experiments.sweep import (
    SweepPlan,
    SweepPoint,
    measure,
    run_cell,
    ycsb_spec,
)
from repro.hardware.specs import MB
from repro.ramcloud.config import ServerConfig
from repro.ramcloud.consistency import LEVELS
from repro.ycsb.workload import WORKLOAD_A

__all__ = ["run_consistency_frontier", "run_durability_gap_table",
           "frontier_sweep_plan", "render_frontier"]


def _frontier_cell(params: Dict[str, object], seed: int, scale: Scale):
    """Sweep cell runner: one (level, rf, seed) frontier point."""
    spec = ycsb_spec(WORKLOAD_A, params["servers"], params["clients"], scale,
                     replication_factor=params["rf"],
                     default_consistency=params["level"])
    return run_cell(spec.with_(give_up_after=5.0), seed)


SWEEP_CELLS = {"frontier": _frontier_cell}


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


def run_consistency_frontier(scale: Scale = DEFAULT,
                             levels: Sequence[str] = LEVELS,
                             rf: int = 2,
                             servers: int = 10,
                             clients: int = 10) -> ComparisonTable:
    """Latency/throughput/ops-per-joule at each consistency level."""
    plan = frontier_sweep_plan(scale, None, levels, (rf,), servers, clients)
    return render_frontier(plan, measure(plan))


def run_durability_gap_table(scale: Scale = DEFAULT,
                             levels: Sequence[str] = LEVELS,
                             rf: int = 1,
                             servers: int = 4) -> ComparisonTable:
    """Measured crash-loss per level: what the ack was worth."""
    table = ComparisonTable(
        "Ext. durability gap",
        f"acked-write loss under a master crash, {servers} servers / "
        f"RF {rf}")
    for level in levels:
        spec = DurabilityGapSpec(
            cluster=ClusterSpec(
                num_servers=servers, num_clients=2,
                server_config=ServerConfig(log_memory_bytes=64 * MB,
                                           segment_size=1 * MB,
                                           replication_factor=rf),
                seed=scale.seeds[0]),
            level=level,
            # The stream must still be flowing when the crash lands
            # (default crash_at=0.25, one write per 4 ms ⇒ ≥100 writes
            # span it) or there is no in-flight tail to measure.
            writes_per_client=max(100, scale.ops_per_client // 4),
        )
        result = run_durability_gap(spec)
        table.add(f"{level} acked writes", None,
                  float(result.acked_writes), "")
        table.add(f"{level} acked-write loss", None,
                  float(result.acknowledged_write_loss), "")
        table.add(f"{level} observed staleness", None,
                  result.max_observed_staleness * 1e3, " ms")
        if result.recovery_duration is not None:
            table.add(f"{level} recovery time", None,
                      result.recovery_duration * 1e3, " ms")
    table.note("sync_rf loss must be exactly 0 (enforced by "
               "tests/integration/test_durability_gap.py); relaxed "
               "levels may lose at most the in-flight batch")
    table.note(f"staleness bound: "
               f"{ServerConfig().staleness_bound_seconds * 1e3:.0f} ms "
               f"sim-time / {ServerConfig().staleness_bound_bytes} bytes")
    return table
