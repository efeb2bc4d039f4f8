"""Energy proportionality under adaptive power management (docs/POWER.md).

The paper's central negative result is that RAMCloud is nowhere near
energy-proportional: the pinned dispatch core busy-polls the NIC, so an
*idle* 4-core server burns 25 % CPU and ≈75 W, and ops/joule collapses
7× from 1 to 10 servers (Figs. 1–4, Table I).  The authors point at the
polling thread and defer an energy-aware redesign to future work (§X).

This experiment explores that fix space with the knobs
:mod:`repro.powermgmt` models:

* an idle→peak load sweep per governor (``static`` — the paper's
  machine, ``ondemand`` DVFS, ``poll-adaptive`` dispatch blocking +
  core parking), reporting watts, ops/joule, p99 latency and the
  energy-proportionality index per governor;
* a cluster power-cap run (:func:`run_power_cap`): the
  :class:`~repro.cluster.powercap.PowerCapController` throttles the
  Fig. 13 admission path until the fleet holds a configured wattage.

Unlike :func:`~repro.cluster.experiment.run_experiment` (which derives
watts analytically from busy-core seconds), every watt here comes from
the simulated PDU series — the only probe that sees DVFS state and
parked cores — so a governor's savings show up exactly the way the
paper's measurement harness would see them.

Determinism: everything is seeded; :meth:`EnergyProportionalityResult.digest`
is byte-identical across same-seed reruns (asserted by the benchmark).
"""

from __future__ import annotations

import hashlib
import math
from array import array
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.cluster import Cluster, ClusterSpec
from repro.experiments.reporting import (ComparisonTable,
                                        energy_proportionality_index)
from repro.experiments.scale import DEFAULT, Scale
from repro.experiments.sweep import CellOutcome, SweepPlan, SweepPoint
from repro.powermgmt import PowerPolicy
from repro.ramcloud.config import ServerConfig
from repro.sim.distributions import RandomStream
from repro.ycsb.client import YcsbClient
from repro.ycsb.stats import nearest_rank
from repro.ycsb.workload import WORKLOAD_C

__all__ = ["EnergyPoint", "EnergyProportionalityResult",
           "run_energy_proportionality", "PowerCapResult", "run_power_cap",
           "energy_sweep_plan"]

# The paper's idle anchor: 25 % CPU (Table I row 0) through the power
# model's calibration, 57.5 + 0.69 * 25 W.
PAPER_IDLE_WATTS = 74.75
PAPER_IDLE_CPU = 25.0


@dataclass(frozen=True)
class EnergyPoint:
    """One (governor, load) measurement of the sweep."""

    governor: str
    load_fraction: float      # 0.0 = idle, 1.0 = unthrottled peak
    throughput: float         # ops/s, aggregate
    watts_per_server: float   # PDU-measured average
    energy_joules: float      # fleet energy over the measured window
    ops_per_joule: float      # 0.0 at idle
    p99_latency: Optional[float]  # seconds; None at idle
    cpu_pct: float            # mean per-node CPU over the window
    dispatch_sleeps: int      # adaptive-dispatch naps across the fleet
    core_parks: int           # worker core-parking events


@dataclass
class EnergyProportionalityResult:
    """The full sweep plus per-governor summary metrics."""

    points: List[EnergyPoint] = field(default_factory=list)
    #: governor → energy-proportionality index (1 = proportional).
    ep_index: Dict[str, float] = field(default_factory=dict)

    def by_governor(self, governor: str) -> List[EnergyPoint]:
        """The sweep points of one governor, in load order."""
        return sorted((p for p in self.points if p.governor == governor),
                      key=lambda p: p.load_fraction)

    def point(self, governor: str, load_fraction: float) -> EnergyPoint:
        """The single point at (governor, load_fraction)."""
        for p in self.points:
            if p.governor == governor and p.load_fraction == load_fraction:
                return p
        raise KeyError(f"no point ({governor!r}, {load_fraction})")

    def digest(self) -> str:
        """Byte-exact digest of every measured value (same seed → same
        digest; the determinism acceptance check)."""
        h = hashlib.sha256()
        for p in sorted(self.points,
                        key=lambda p: (p.governor, p.load_fraction)):
            h.update(f"{p!r}\n".encode())
        for governor in sorted(self.ep_index):
            h.update(f"ep[{governor}]={self.ep_index[governor]!r}\n".encode())
        return h.hexdigest()


def _policy_for(governor: str) -> PowerPolicy:
    """The cluster policy for one sweep arm.  ``static`` uses the
    all-defaults policy, so that arm builds zero power-management
    machinery — it IS the paper's cluster, event for event."""
    return PowerPolicy(governor=governor)


def _fresh_cluster(governor: str, servers: int, clients: int,
                   seed: int) -> Cluster:
    return Cluster(ClusterSpec(
        num_servers=servers, num_clients=clients,
        server_config=ServerConfig(replication_factor=0),
        seed=seed, power_policy=_policy_for(governor)))


def _metered_window(cluster: Cluster, pdu_interval: float):
    """Start PDU metering; returns the closer that yields the window
    measurements: (makespan, energy_joules, cpu_pct)."""
    start = cluster.sim.now
    start_busy = [node.cpu.busy_core_seconds()
                  for node in cluster.server_nodes]
    for node in cluster.server_nodes:
        node.start_metering(interval=pdu_interval)

    def close():
        end = cluster.sim.now
        cluster.stop_metering()
        makespan = max(end - start, 1e-12)
        energy = sum(node.power.series.integral()
                     for node in cluster.server_nodes)
        cpu = sum(100.0 * (node.cpu.busy_core_seconds() - busy)
                  / (makespan * node.cpu.cores)
                  for node, busy in zip(cluster.server_nodes, start_busy)
                  ) / len(cluster.server_nodes)
        return makespan, energy, cpu

    return close


def _fleet_power_counters(cluster: Cluster) -> Tuple[int, int]:
    sleeps = sum(s.dispatch_sleeps for s in cluster.servers)
    parks = sum(s.core_parks for s in cluster.servers)
    return sleeps, parks


def _measure_idle(governor: str, servers: int, seed: int,
                  duration: float, pdu_interval: float) -> EnergyPoint:
    """No clients, no ops: just the running servers, metered."""
    cluster = _fresh_cluster(governor, servers, clients=0, seed=seed)
    # Let start-up transients (worker spin-up, first parking decisions,
    # the ondemand sampler's walk down the P-states) settle first.
    cluster.run(until=1.0)
    close = _metered_window(cluster, pdu_interval)
    cluster.run(until=cluster.sim.now + duration)
    makespan, energy, cpu = close()
    sleeps, parks = _fleet_power_counters(cluster)
    cluster.sim.close()
    return EnergyPoint(
        governor=governor, load_fraction=0.0, throughput=0.0,
        watts_per_server=energy / makespan / servers,
        energy_joules=energy, ops_per_joule=0.0, p99_latency=None,
        cpu_pct=cpu, dispatch_sleeps=sleeps, core_parks=parks)


def _measure_load(governor: str, servers: int, clients: int, seed: int,
                  scale: Scale, load_fraction: float,
                  per_client_rate: float, duration: float,
                  pdu_interval: float) -> EnergyPoint:
    """One throttled (or, at rate 0, unthrottled) load point."""
    cluster = _fresh_cluster(governor, servers, clients, seed)
    table_id = cluster.create_table("usertable")
    cluster.preload(table_id, scale.num_records, 1024)

    workload = WORKLOAD_C.scaled(num_records=scale.num_records,
                                 ops_per_client=1)
    if per_client_rate > 0:
        ops = max(60, int(per_client_rate * duration))
        workload = workload.scaled(ops_per_client=ops).throttled(
            per_client_rate)
    else:  # unthrottled peak: enough ops to fill the window
        ops = max(scale.ops_per_client, int(40_000 * duration))
        workload = workload.scaled(ops_per_client=ops)

    ycsb = [YcsbClient(cluster.sim, rc, table_id, workload,
                       RandomStream(seed, f"ycsb{i}"))
            for i, rc in enumerate(cluster.clients)]
    # Start metering only now: preload energy is setup, not workload.
    close = _metered_window(cluster, pdu_interval)
    procs = [cluster.sim.process(c.run(), name=f"ycsb:{i}")
             for i, c in enumerate(ycsb)]
    cluster.sim.run_process(cluster.sim.all_of(procs))
    makespan, energy, cpu = close()

    total_ops = sum(c.stats.total_ops for c in ycsb)
    # The p99 ignores order, so the clients' latencies are concatenated.
    latencies = array("d")
    for c in ycsb:
        latencies.extend(c.stats.all_latencies().latencies)
    sleeps, parks = _fleet_power_counters(cluster)
    cluster.sim.close()
    return EnergyPoint(
        governor=governor, load_fraction=load_fraction,
        throughput=total_ops / makespan,
        watts_per_server=energy / makespan / servers,
        energy_joules=energy,
        ops_per_joule=total_ops / energy if energy > 0 else 0.0,
        p99_latency=nearest_rank(latencies, 99.0), cpu_pct=cpu,
        dispatch_sleeps=sleeps, core_parks=parks)


def run_energy_proportionality(
        scale: Scale = DEFAULT,
        governors: Sequence[str] = ("static", "ondemand", "poll-adaptive"),
        servers: int = 3, clients: int = 6,
        fractions: Sequence[float] = (0.1, 0.5),
        seed: int = 1,
) -> Tuple[ComparisonTable, EnergyProportionalityResult]:
    """The idle→peak sweep per governor.

    Each governor is measured at idle (0.0), at throttled fractions of
    the static cluster's peak, and unthrottled (1.0).  Every fraction
    uses the same absolute target rate for every governor, so their
    watts and p99 columns are directly comparable.
    """
    smoke = scale.name == "smoke"
    idle_duration = 1.5 if smoke else 2.5
    point_duration = 0.4 if smoke else 0.7
    peak_duration = 0.15 if smoke else 0.3
    pdu_interval = 0.02

    result = EnergyProportionalityResult()

    # Anchor the sweep on the paper configuration's unthrottled peak.
    static_peak = _measure_load("static", servers, clients, seed, scale,
                                1.0, 0.0, peak_duration, pdu_interval)
    for governor in governors:
        points = [_measure_idle(governor, servers, seed, idle_duration,
                                pdu_interval)]
        for fraction in sorted(fractions):
            rate = fraction * static_peak.throughput / clients
            points.append(_measure_load(
                governor, servers, clients, seed, scale, fraction, rate,
                point_duration, pdu_interval))
        if governor == "static":
            points.append(static_peak)
        else:
            points.append(_measure_load(governor, servers, clients, seed,
                                        scale, 1.0, 0.0, peak_duration,
                                        pdu_interval))
        result.points.extend(points)
        result.ep_index[governor] = energy_proportionality_index(
            [p.throughput for p in points],
            [p.watts_per_server for p in points])

    table = ComparisonTable(
        "§X energy proportionality",
        f"idle→peak sweep per governor ({servers} servers, {clients} "
        f"clients, read-only)")
    light = min(fractions)
    for governor in governors:
        idle = result.point(governor, 0.0)
        peak = result.point(governor, 1.0)
        mid = result.point(governor, light)
        is_static = governor == "static"
        table.add(f"{governor}: idle watts/server",
                  PAPER_IDLE_WATTS if is_static else None,
                  idle.watts_per_server, " W")
        table.add(f"{governor}: idle CPU",
                  PAPER_IDLE_CPU if is_static else None, idle.cpu_pct, "%")
        table.add(f"{governor}: peak throughput", None,
                  peak.throughput / 1000.0, "K")
        table.add(f"{governor}: peak efficiency", None,
                  peak.ops_per_joule, " op/J")
        table.add(f"{governor}: p99 at {light:.0%} load", None,
                  mid.p99_latency * 1e6, " µs",
                  note=f"{mid.core_parks} parks, "
                       f"{mid.dispatch_sleeps} dispatch naps")
        table.add(f"{governor}: proportionality index", None,
                  result.ep_index[governor])
    table.note("watts come from the PDU series (DVFS- and parking-aware), "
               "not the analytic busy-seconds model")
    table.note("static = the paper's machine: flat ≈75 W idle floor from "
               "the busy-polling dispatch core")
    return table, result


# -- sweep integration --------------------------------------------------------


def _energy_cell(params, seed: int, scale: Scale):
    """Sweep cell runner: one full idle→peak governor sweep at ``seed``.

    The cell digest is :meth:`EnergyProportionalityResult.digest` — the
    byte-exact record of every measured point — so serial/parallel
    equivalence covers the whole sweep, not just the summary numbers.
    """
    governors = tuple(params.get("governors",
                                 ("static", "ondemand", "poll-adaptive")))
    _table, result = run_energy_proportionality(
        scale, governors=governors,
        servers=int(params.get("servers", 3)),
        clients=int(params.get("clients", 6)),
        fractions=tuple(params.get("fractions", (0.1, 0.5))),
        seed=seed)
    metrics = {}
    for governor in governors:
        peak = result.point(governor, 1.0)
        idle = result.point(governor, 0.0)
        metrics[f"ep_index[{governor}]"] = result.ep_index[governor]
        metrics[f"peak_throughput[{governor}]"] = peak.throughput
        metrics[f"idle_watts[{governor}]"] = idle.watts_per_server
    return CellOutcome(metrics=metrics, digest=result.digest())


def energy_sweep_plan(scale: Scale = DEFAULT, seeds=None,
                      governors: Sequence[str] = ("static", "ondemand",
                                                  "poll-adaptive"),
                      servers: int = 3, clients: int = 6,
                      fractions: Sequence[float] = (0.1, 0.5)):
    """The §X governor sweep as a single-point :class:`SweepPlan`
    (each seed is one whole idle→peak sweep)."""
    point = SweepPoint.of(
        f"{len(governors)} governors / {servers} servers",
        governors=tuple(governors), servers=servers, clients=clients,
        fractions=tuple(fractions))
    return SweepPlan("energy", (point,), tuple(seeds or scale.seeds), scale)


SWEEP_CELLS = {"energy": _energy_cell}


# -- cluster power capping ---------------------------------------------------


@dataclass
class PowerCapResult:
    """What the cap run measured (controller's own view of the fleet)."""

    cap_watts: float
    hysteresis_watts: float
    settled_mean_watts: float
    settled_max_watts: float
    uncapped_watts: float
    throughput: float
    admitted_rate: float
    #: (time, fleet watts) as the controller sampled them.
    watts_points: List[Tuple[float, float]] = field(default_factory=list)

    @property
    def held(self) -> bool:
        """Did the settled fleet power stay within the hysteresis band
        around the cap (one controller tick of overshoot allowed)?"""
        return self.settled_max_watts <= self.cap_watts \
            + self.hysteresis_watts


def _capped_load(servers: int, clients: int, seed: int, scale: Scale,
                 policy: Optional[PowerPolicy], duration: float,
                 settle: float) -> Tuple[Cluster, float, float]:
    """Drive unthrottled demand for ``duration``; returns the cluster,
    the settled-window PDU fleet watts, and the measured throughput."""
    spec = ClusterSpec(
        num_servers=servers, num_clients=clients,
        server_config=ServerConfig(replication_factor=0), seed=seed)
    if policy is not None:
        spec = spec.with_(power_policy=policy)
    cluster = Cluster(spec)
    table_id = cluster.create_table("usertable")
    cluster.preload(table_id, scale.num_records, 1024)
    workload = WORKLOAD_C.scaled(num_records=scale.num_records,
                                 ops_per_client=int(40_000 * duration))
    ycsb = [YcsbClient(cluster.sim, rc, table_id, workload,
                       RandomStream(seed, f"cap{i}"))
            for i, rc in enumerate(cluster.clients)]
    for c in ycsb:
        c.throttle = cluster.admission_throttle  # None when uncapped
    start = cluster.sim.now
    for node in cluster.server_nodes:
        node.start_metering(interval=0.02)
    for i, c in enumerate(ycsb):
        cluster.sim.process(c.run(), name=f"cap:{i}")
    cluster.run(until=start + duration)
    window = (start + settle, start + duration)
    fleet_watts = sum(
        node.power.series.window(*window).time_weighted_mean()
        for node in cluster.server_nodes)
    ops = sum(c.stats.total_ops for c in ycsb)
    return cluster, fleet_watts, ops / duration


def run_power_cap(scale: Scale = DEFAULT, servers: int = 2,
                  clients: int = 4, cap_watts: float = 185.0,
                  seed: int = 1) -> Tuple[ComparisonTable, PowerCapResult]:
    """Hold a fleet power cap on a Fig. 13-style throttled workload.

    Unthrottled demand from ``clients`` closed-loop clients would push
    the fleet well above ``cap_watts``; the
    :class:`~repro.cluster.powercap.PowerCapController` throttles the
    shared admission token bucket until the controller's own fleet
    measurement settles inside the hysteresis band.
    """
    smoke = scale.name == "smoke"
    duration = 1.2 if smoke else 2.0
    settle = 0.6 if smoke else 1.0

    # Baseline: same demand, no cap.
    uncapped, uncapped_watts, uncapped_rate = _capped_load(
        servers, clients, seed, scale, None, duration, settle)
    uncapped.sim.close()

    policy = PowerPolicy(power_cap_watts=cap_watts, cap_interval=0.05,
                         cap_hysteresis_watts=5.0)
    cluster, fleet_watts, throughput = _capped_load(
        servers, clients, seed, scale, policy, duration, settle)
    controller = cluster.power_cap
    settled = controller.watts_series.window(settle, duration)
    result = PowerCapResult(
        cap_watts=cap_watts,
        hysteresis_watts=policy.cap_hysteresis_watts,
        settled_mean_watts=settled.mean(),
        settled_max_watts=settled.max(),
        uncapped_watts=uncapped_watts,
        throughput=throughput,
        admitted_rate=cluster.admission_throttle.rate,
        watts_points=list(zip(settled.times, settled.values)))
    cluster.sim.close()

    table = ComparisonTable(
        "§X power cap",
        f"cluster cap {cap_watts:.0f} W on {servers} servers / "
        f"{clients} unthrottled clients")
    table.add("uncapped fleet watts", None, uncapped_watts, " W",
              note=f"{uncapped_rate / 1000.0:.0f}K op/s demand")
    table.add("configured cap", None, cap_watts, " W")
    table.add("settled fleet watts (mean)", None,
              result.settled_mean_watts, " W")
    table.add("settled fleet watts (max)", None,
              result.settled_max_watts, " W")
    table.add("throughput under cap", None, throughput / 1000.0, "K")
    rate = result.admitted_rate
    table.add("admitted rate", None,
              None if math.isinf(rate) else rate, " op/s",
              note="inf = cap never engaged" if math.isinf(rate) else "")
    table.note("the controller throttles the Fig. 13 admission path "
               "(client token bucket) — proportional decrease over the "
               "cap, 5 %/tick increase below the hysteresis band")
    return table, result
