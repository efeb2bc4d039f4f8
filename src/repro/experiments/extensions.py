"""Extensions the paper names as future work (§X).

* **Request distributions** — "We consider as well evaluating the
  system with different request distributions": uniform vs YCSB's
  scrambled-zipfian vs latest on the read-heavy workload.
* **Network transport** — the companion study [24] examines the network
  dimension; we compare the paper's Infiniband-20G against Gigabit
  Ethernet on the same read-only workload.
* **Scans** — "one could think of scans to assess the indexing
  mechanism of the system": YCSB workload E over RAMCloud's MultiRead,
  and its interaction with concurrent updates.
* **Elastic sizing** — §IX's coordinator-driven scale-down: drain and
  power off surplus servers under light load, measure the watts saved.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, List, Optional, Sequence

from repro.cluster import Cluster, ClusterSpec
from repro.experiments.reporting import ComparisonTable, failed_claims
from repro.experiments.scale import DEFAULT, Scale
from repro.experiments.sweep import (
    SweepPlan,
    SweepPoint,
    outcome_from_metrics,
    run_cell,
    ycsb_spec,
)
from repro.hardware.specs import (
    GIGABIT_ETHERNET,
    GRID5000_NANCY_NODE,
    INFINIBAND_20G,
)
from repro.ramcloud.config import ServerConfig
from repro.sim.distributions import RandomStream
from repro.ycsb.client import YcsbClient
from repro.ycsb.workload import WORKLOAD_B, WORKLOAD_C, WORKLOAD_E

__all__ = ["distributions_sweep_plan", "transports_sweep_plan",
           "scans_sweep_plan", "elastic_sweep_plan",
           "correlated_sweep_plan", "render_distributions",
           "render_transports", "render_scans", "render_elastic",
           "render_correlated"]

WORKLOADS = {"C": WORKLOAD_C, "B": WORKLOAD_B}
TRANSPORTS = {nic.name: nic for nic in (INFINIBAND_20G, GIGABIT_ETHERNET)}


def _distribution_cell(params: Dict[str, object], seed: int, scale: Scale):
    """Sweep cell runner: one workload under one request distribution."""
    workload = WORKLOADS[params["workload"]].scaled(
        request_distribution=params["distribution"])
    return run_cell(ycsb_spec(workload, params["servers"], params["clients"],
                              scale), seed)


def _transport_cell(params: Dict[str, object], seed: int, scale: Scale):
    """Sweep cell runner: read-only traffic over one NIC."""
    spec = ycsb_spec(WORKLOAD_C, params["servers"], params["clients"], scale)
    machine = replace(GRID5000_NANCY_NODE, nic=TRANSPORTS[params["nic"]])
    return run_cell(spec.with_(cluster=spec.cluster.with_(machine=machine)),
                    seed)


def _scan_workload(max_len: int):
    return WORKLOAD_E.scaled(max_scan_length=max_len)


def _scan_cell(params: Dict[str, int], seed: int, scale: Scale):
    """Sweep cell runner: workload E at one maximum scan length (a
    quarter of the scale's ops: each one moves many records)."""
    ops = max(50, scale.ops_per_client // 4)
    return run_cell(ycsb_spec(
        _scan_workload(params["max_scan_length"]), params["servers"],
        params["clients"], scale.with_(ops_per_client=ops)), seed)


def distributions_sweep_plan(scale: Scale = DEFAULT,
                             seeds: Optional[Sequence[int]] = None,
                             distributions: Sequence[str] = (
                                 "uniform", "zipfian", "latest"),
                             servers: int = 4, clients: int = 24,
                             ) -> SweepPlan:
    """The request-distribution extension as a :class:`SweepPlan`."""
    points = tuple(
        SweepPoint.of(f"workload {name} / {distribution}", workload=name,
                      distribution=distribution, servers=servers,
                      clients=clients)
        for name in WORKLOADS for distribution in distributions)
    return SweepPlan("distributions", points, tuple(seeds or scale.seeds),
                     scale)


def transports_sweep_plan(scale: Scale = DEFAULT,
                          seeds: Optional[Sequence[int]] = None,
                          servers: int = 5, clients: int = 10) -> SweepPlan:
    """The transport extension as a :class:`SweepPlan`."""
    points = tuple(SweepPoint.of(name, nic=name, servers=servers,
                                 clients=clients) for name in TRANSPORTS)
    return SweepPlan("transports", points, tuple(seeds or scale.seeds[:1]),
                     scale)


def scans_sweep_plan(scale: Scale = DEFAULT,
                     seeds: Optional[Sequence[int]] = None,
                     scan_lengths: Sequence[int] = (10, 100, 500),
                     servers: int = 5, clients: int = 10) -> SweepPlan:
    """The scan extension as a :class:`SweepPlan`."""
    points = tuple(
        SweepPoint.of(f"max scan length {max_len}", max_scan_length=max_len,
                      servers=servers, clients=clients)
        for max_len in scan_lengths)
    return SweepPlan("scans", points, tuple(seeds or scale.seeds[:1]), scale)


def render_distributions(plan: SweepPlan, merged) -> ComparisonTable:
    """Workloads under different request distributions, at saturation.

    Two opposing effects emerge:

    * read-only (C): skew imbalances per-server load, so the hottest
      master saturates first and aggregate throughput drops below
      uniform;
    * read-heavy (B): skew *concentrates the update contention* on a
      few masters, leaving the rest to serve cheap reads — aggregate
      throughput can exceed the uniform case.
    """
    first = plan.points[0].as_dict()
    table = ComparisonTable(
        "§X request distributions", f"throughput by request distribution "
        f"({first['servers']} servers, {first['clients']} clients, "
        f"saturated)")
    for point in plan.points:
        metrics = merged[point.label]
        # The spread is the first seed's, not an average of extremes.
        table.add(point.label, None,
                  metrics["throughput"].mean / 1000.0, "K",
                  note=f"CPU spread "
                       f"{metrics['cpu_util_min'].values[0]:.0f}–"
                       f"{metrics['cpu_util_max'].values[0]:.0f}%")
    table.note("read-only loses to imbalance under skew; read-heavy can "
               "gain because write contention concentrates on few masters")
    return table


def check_distributions(tables, merged) -> List[str]:
    kops = tables[0].measured_by_label()
    claims = {f"workload B / {d} > 0": kops[f"workload B / {d}"] > 0
              for d in ("uniform", "zipfian", "latest")}
    claims["workload C / zipfian <= 1.02x uniform"] = (
        kops["workload C / zipfian"] <= kops["workload C / uniform"] * 1.02)
    return failed_claims(claims)


def render_transports(plan: SweepPlan, merged) -> ComparisonTable:
    """Infiniband vs Gigabit Ethernet on read-only traffic.

    The paper runs everything on RAMCloud's Infiniband transport and
    defers the network dimension to [24]; this extension quantifies
    what the slower NIC costs in our substrate.
    """
    first = plan.points[0].as_dict()
    table = ComparisonTable(
        "§X transports", f"read-only throughput by transport "
        f"({first['servers']} servers, {first['clients']} clients)")
    for point in plan.points:
        metrics = merged[point.label]
        table.add(point.label, None, metrics["throughput"].mean / 1000.0,
                  "K", note=f"mean latency "
                            f"{metrics['mean_latency'].mean * 1e6:.1f} µs")
    table.note("one-way latency 2 µs vs 30 µs: Ethernet roughly doubles "
               "the closed-loop op time, halving per-client throughput")
    return table


def check_transports(tables, merged) -> List[str]:
    kops = tables[0].measured_by_label()
    return failed_claims({
        "infiniband-20g > 1.3x gigabit-ethernet":
            kops["infiniband-20g"] > 1.3 * kops["gigabit-ethernet"]})


def render_scans(plan: SweepPlan, merged) -> ComparisonTable:
    """Workload E (95 % scans / 5 % inserts) over MultiRead, by scan
    length — the indexing-mechanism assessment the paper defers (§X).

    Throughput is reported in *records* per second (a scan of length L
    returns L records) so lengths are comparable.
    """
    first = plan.points[0].as_dict()
    table = ComparisonTable(
        "§X scans", f"workload E: records/s by max scan length "
        f"({first['servers']} servers, {first['clients']} clients)")
    for point in plan.points:
        max_len = point.as_dict()["max_scan_length"]
        throughput = merged[point.label]["throughput"].mean
        # A scan of length L returns L records: expected records per op.
        workload = _scan_workload(max_len)
        records_per_op = (workload.scan_proportion * (max_len + 1) / 2
                          + workload.insert_proportion)
        table.add(point.label, None, throughput / 1000.0, "K ops/s",
                  note=f"≈{throughput * records_per_op:,.0f} records/s")
    table.note("longer scans amortize per-RPC costs: scans/s falls, "
               "records/s rises")
    return table


def check_scans(tables, merged) -> List[str]:
    ops = tables[0].measured_by_label()
    n10, n100, n500 = (ops[f"max scan length {n}"] for n in (10, 100, 500))
    return failed_claims({
        "scans/s fall with scan length 10 → 100 → 500": n10 > n100 > n500,
        "scan length 10 < 6x the scans/s of length 100": n10 / n100 < 6.0,
    })


def _elastic_cell(params: Dict[str, int], seed: int, scale: Scale):
    """Sweep cell runner: light read-only load on ``servers`` servers,
    then the coordinator drains and powers off all but ``keep`` of them
    and the same load runs again."""
    servers, keep = params["servers"], params["keep"]
    spec = ClusterSpec(num_servers=servers, num_clients=2,
                       server_config=ServerConfig(replication_factor=0),
                       seed=seed)
    with Cluster(spec) as cluster:
        table_id = cluster.create_table("cache")
        cluster.preload(table_id, scale.num_records, 1024)
        hashes = cluster.record_hashes[table_id]
        cluster.start_metering(interval=0.05)

        def run_load(tag):
            clients = [YcsbClient(cluster.sim, rc, table_id,
                                  WORKLOAD_C.scaled(
                                      num_records=scale.num_records,
                                      ops_per_client=scale.ops_per_client),
                                  RandomStream(seed, f"{tag}{i}"),
                                  record_hashes=hashes)
                       for i, rc in enumerate(cluster.clients)]
            procs = [cluster.sim.process(c.run()) for c in clients]
            cluster.sim.run_process(cluster.sim.all_of(procs))
            total = sum(c.stats.total_ops for c in clients)
            span = (max(c.stats.finished_at for c in clients)
                    - min(c.stats.started_at for c in clients))
            return total / span

        def fleet_watts():
            cluster.run(until=cluster.sim.now + 1.0)
            now = cluster.sim.now
            return sum(
                node.power.series.window(now - 0.5, now).mean()
                if len(node.power.series.window(now - 0.5, now)) else 0.0
                for node in cluster.server_nodes)

        before_thr = run_load("warm")
        before_watts = fleet_watts()

        def orchestrate():
            for i in range(keep, servers):
                yield from cluster.coordinator.decommission_server(
                    f"server{i}")

        cluster.sim.run_process(cluster.sim.process(orchestrate()))
        after_thr = run_load("post")
        after_watts = fleet_watts()
    return outcome_from_metrics({
        "before_watts": before_watts, "after_watts": after_watts,
        "before_throughput": before_thr, "after_throughput": after_thr})


def elastic_sweep_plan(scale: Scale = DEFAULT,
                       seeds: Optional[Sequence[int]] = None,
                       servers: int = 6, keep: int = 3) -> SweepPlan:
    """The §IX scale-down as a one-point :class:`SweepPlan` (seed 3
    unless ``seeds`` says otherwise)."""
    point = SweepPoint.of(f"{servers}→{keep} servers", servers=servers,
                          keep=keep)
    return SweepPlan("elastic", (point,), tuple(seeds or (3,)), scale)


def render_elastic(plan: SweepPlan, merged) -> ComparisonTable:
    """§IX elastic scale-down: drain and power off surplus servers under
    light read-only load; report the fleet watts before and after."""
    point = plan.points[0]
    params, metrics = point.as_dict(), merged[point.label]
    before_watts = metrics["before_watts"].mean
    after_watts = metrics["after_watts"].mean
    table = ComparisonTable(
        "§IX elastic sizing", f"scale {params['servers']}→{params['keep']} "
        "servers under light read-only load")
    table.add("fleet power before", None, before_watts, " W")
    table.add("fleet power after", None, after_watts, " W")
    table.add("power saved", None,
              100.0 * (1 - after_watts / before_watts), " %")
    table.add("throughput before", None,
              metrics["before_throughput"].mean / 1000.0, "K")
    table.add("throughput after", None,
              metrics["after_throughput"].mean / 1000.0, "K")
    table.note("live tablet migration: no crash recovery, no data loss; "
               "the §IX 'smart coordinator' the paper proposes")
    return table


def check_elastic(tables, merged) -> List[str]:
    rows = tables[0].measured_by_label()
    return failed_claims({
        "power saved > 35 %": rows["power saved"] > 35.0,
        "throughput after > 0.85x before":
            rows["throughput after"] > 0.85 * rows["throughput before"],
    })


def _correlated_cell(params: Dict[str, int], seed: int, scale: Scale):
    """Sweep cell runner: one seeded trial of ``simultaneous`` servers
    dying at the same instant (a rack/PDU event)."""
    servers = params["servers"]
    record_size = scale.recovery_record_size
    spec = ClusterSpec(
        num_servers=servers, num_clients=0,
        server_config=ServerConfig(replication_factor=params["rf"]),
        seed=seed, failure_detection=True)
    with Cluster(spec) as cluster:
        table_id = cluster.create_table("t")
        cluster.preload(table_id,
                        64 * 1024 * 1024 * servers // record_size,
                        record_size)
        cluster.run(until=1.0)
        victims = [cluster.kill_server()
                   for _ in range(params["simultaneous"])]
        total_segments = sum(len(v.log.segments) for v in victims)
        cluster.run(until=400.0)
        lost = sum(r.lost_segments for r in cluster.coordinator.recoveries)
    return outcome_from_metrics({
        "data_loss": 1.0 if lost else 0.0, "lost_segments": float(lost),
        "total_segments": float(total_segments)})


def correlated_sweep_plan(scale: Scale = DEFAULT,
                          seeds: Optional[Sequence[int]] = None,
                          rfs: Sequence[int] = (1, 2, 3),
                          simultaneous: int = 3, servers: int = 8,
                          trials: int = 5) -> SweepPlan:
    """The correlated-failure grid as a :class:`SweepPlan`: one point
    per RF, one seed per trial (100, 101, … unless ``seeds`` says
    otherwise)."""
    points = tuple(SweepPoint.of(f"RF {rf}", rf=rf,
                                 simultaneous=simultaneous, servers=servers)
                   for rf in rfs)
    return SweepPlan("correlated", points,
                     tuple(seeds or range(100, 100 + trials)), scale)


def render_correlated(plan: SweepPlan, merged) -> ComparisonTable:
    """Correlated failures — the paper's closing concern (§X: "An
    interesting aspect to consider then would be correlated failures").

    Kill ``simultaneous`` servers at the same instant and count how
    often some segment lost the master AND every replica.  Random
    replica placement makes loss likely at low RF — the Copysets
    problem the paper cites [28].
    """
    first = plan.points[0].as_dict()
    simultaneous, trials = first["simultaneous"], len(plan.seeds)
    table = ComparisonTable(
        "§X correlated failures",
        f"{simultaneous} simultaneous crashes on {first['servers']} "
        "servers: segment-loss probability by RF")
    for point in plan.points:
        metrics = merged[point.label]
        table.add(f"{point.label}: trials with data loss", None,
                  100.0 * sum(metrics["data_loss"].values) / trials, " %")
        table.add(f"{point.label}: segments lost", None,
                  100.0 * sum(metrics["lost_segments"].values)
                  / max(sum(metrics["total_segments"].values), 1), " %")
    table.note(f"{trials} seeded trials per RF; a segment dies only if "
               f"the master AND all RF backups are among the "
               f"{simultaneous} dead machines, so RF ≥ {simultaneous} is "
               "safe here — but random placement makes lower RFs lose "
               "data far more often than copyset placement would [28]")
    return table


def check_correlated(tables, merged) -> List[str]:
    rows = tables[0].measured_by_label()
    lost = [rows[f"RF {rf}: segments lost"] for rf in (1, 2, 3)]
    return failed_claims({
        "RF 1: trials with data loss >= 50 %":
            rows["RF 1: trials with data loss"] >= 50.0,
        "segments lost never grow with RF": lost[0] >= lost[1] >= lost[2],
        "RF 3 loses fewer segments than RF 1": lost[2] < lost[0],
        "RF 3 loses no segment": lost[2] == 0.0,
    })


SWEEP_CELLS = {"distributions": _distribution_cell,
               "transports": _transport_cell, "scans": _scan_cell,
               "elastic": _elastic_cell, "correlated": _correlated_cell}
