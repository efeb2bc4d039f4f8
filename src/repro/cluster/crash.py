"""Crash-recovery experiment runner (paper §VII).

Methodology, following the paper: build a cluster with failure
detection on, insert data, start the PDU scripts, run idle (or with
foreground clients) while a fault schedule plays out — by default a
one-entry :meth:`~repro.faults.schedule.FaultSchedule.single_crash`
killing one server at ``kill_at``, but any schedule (partitions,
degraded disks, correlated crashes) can be passed via ``faults`` — and
record:

* the recovery time and per-phase statistics (Fig. 11a),
* 1 Hz cluster-average CPU and per-node power timelines (Fig. 9a/9b),
* aggregate disk read/write MB/s (Fig. 12),
* per-operation latency of foreground clients (Fig. 10),
* per-node energy during the recovery window (Fig. 11b).
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.cluster.deployment import Cluster, ClusterSpec
from repro.faults.schedule import FaultSchedule
from repro.ramcloud.coordinator import RecoveryStats, RepairStats
from repro.sim.distributions import RandomStream
from repro.sim.monitor import TimeSeries
from repro.ycsb.client import YcsbClient
from repro.ycsb.keyspace import format_key
from repro.ycsb.stats import LatencyRecorder
from repro.ycsb.workload import WorkloadSpec

__all__ = ["CrashExperimentSpec", "CrashExperimentResult",
           "run_crash_experiment"]


@dataclass(frozen=True)
class CrashExperimentSpec:
    """One crash-recovery run."""

    cluster: ClusterSpec
    num_records: int
    record_size: int
    kill_at: float = 60.0
    run_until: float = 240.0
    sample_interval: float = 1.0
    # Index of the server to kill; None = random (paper's default).
    victim_index: Optional[int] = None
    # Optional foreground workload (Fig. 10's two clients).  One YCSB
    # client per cluster client node.
    foreground: Optional[WorkloadSpec] = None
    # If set, foreground client 0 only requests keys owned by the victim
    # and client 1 only requests live keys (Fig. 10's setup).  Requires
    # victim_index.
    split_clients_by_victim: bool = False
    # Custom fault schedule; None = the paper's single kill at
    # ``kill_at`` (of ``victim_index``, random if that is None too).
    faults: Optional[FaultSchedule] = None


@dataclass
class CrashExperimentResult:
    """Timelines and statistics from one crash-recovery run."""
    spec: CrashExperimentSpec
    recovery: Optional[RecoveryStats] = None
    crashed_server: str = ""
    # One RepairStats per server eviction: how many segment replicas
    # the death cost, how far replication dropped, and how long the
    # surviving masters took to restore the replication factor.
    repairs: List[RepairStats] = field(default_factory=list)
    # 1 Hz timelines.
    cluster_cpu: TimeSeries = field(default_factory=lambda: TimeSeries("cpu%"))
    under_replicated: TimeSeries = field(
        default_factory=lambda: TimeSeries("under-replicated segments"))
    disk_read_mbps: TimeSeries = field(
        default_factory=lambda: TimeSeries("read MB/s"))
    disk_write_mbps: TimeSeries = field(
        default_factory=lambda: TimeSeries("write MB/s"))
    per_node_power: Dict[str, TimeSeries] = field(default_factory=dict)
    # One recorder per foreground client: its ops of every type, in
    # (time, latency) order.
    client_latencies: List[LatencyRecorder] = field(default_factory=list)
    # The injector's deterministic (time, description) applied-fault log.
    fault_log: List[Tuple[float, str]] = field(default_factory=list)
    # Unguarded-write reports (debug mode only; execution order,
    # which is deterministic under a fixed seed).  Empty otherwise.
    race_reports: List[str] = field(default_factory=list)

    @property
    def recovery_time(self) -> Optional[float]:
        """Recovery duration, or None if it never completed."""
        return self.recovery.duration if self.recovery else None

    @property
    def repair_time(self) -> Optional[float]:
        """Time from the first eviction to full re-replication, or None
        if no eviction happened or repair never completed."""
        if not self.repairs:
            return None
        return self.repairs[0].duration

    def avg_power_during_recovery(self) -> float:
        """Average per-node power over the recovery window, survivors
        only (the victim's RAMCloud process is dead).

        A PDU reading averages the interval before it, so when recovery
        ends between two readings (no sample inside the window) each
        survivor contributes its first reading at or after the end."""
        if self.recovery is None or self.recovery.finished_at is None:
            raise ValueError("no completed recovery in this run")
        start, end = self.recovery.started_at, self.recovery.finished_at
        survivors = [series for name, series in self.per_node_power.items()
                     if name != self.crashed_server]
        values = []
        for series in survivors:
            window = series.window(start, end)
            if len(window):
                values.append(window.mean())
        if not values:
            values = [next(v for t, v in series.items() if t >= end)
                      for series in survivors
                      if series.times and series.times[-1] >= end]
        if not values:
            raise ValueError(
                f"no power sample in or after the recovery window "
                f"[{start}, {end}]")
        return sum(values) / len(values)

    def energy_per_node_during_recovery(self) -> float:
        """Joules consumed by an average surviving node during recovery
        (Fig. 11b reports a single node's total)."""
        if self.recovery is None or self.recovery.finished_at is None:
            raise ValueError("no completed recovery in this run")
        return self.avg_power_during_recovery() * self.recovery.duration


def _victim_key_split(cluster: Cluster, table_id: int, victim):
    """Partition the preloaded record indices into (victim-owned,
    live) arrays, routing each record's kept hash as the preload did."""
    victim_records, live_records = array("i"), array("i")
    owners = cluster.coordinator.tablet_map.numbered_key_owners(
        table_id, cluster.record_hashes[table_id])
    victim_id = victim.server_id
    for i, owner in enumerate(owners):
        (victim_records if owner == victim_id else live_records).append(i)
    return victim_records, live_records


class _PinnedKeyChooser:
    """Cycles over a fixed list of record indices (Fig. 10's targeted
    clients).  Indices, not key strings: the preloaded keys already
    live in the masters' hash tables."""

    def __init__(self, records: Sequence[int]):
        if not records:
            raise ValueError("empty record list")
        self._records = records
        self._i = 0

    def next_index(self) -> int:
        """The index of the next record in the pinned cycle."""
        records = self._records
        index = records[self._i % len(records)]
        self._i += 1
        return index

    def next_key(self) -> str:
        """The key of the next record in the pinned cycle."""
        return format_key(self.next_index())


def run_crash_experiment(spec: CrashExperimentSpec) -> CrashExperimentResult:
    """Execute one §VII-style crash experiment (see module docstring)."""
    with Cluster(spec.cluster.with_(failure_detection=True)) as cluster:
        result = CrashExperimentResult(spec=spec)
        table_id = cluster.create_table("usertable")
        cluster.preload(table_id, spec.num_records, spec.record_size)

        for node in cluster.server_nodes:
            node.start_metering(interval=spec.sample_interval)
            result.per_node_power[node.name] = node.power.series

        # Timeline sampler: cluster-average CPU and aggregate disk I/O.
        state = {
            "busy": {n.name: n.cpu.busy_core_seconds()
                     for n in cluster.server_nodes},
            "io": {n.name: n.disk.io_counters() for n in cluster.server_nodes},
        }
        cores = spec.cluster.machine.cpu.cores

        def sampler():
            while True:
                yield cluster.sim.sleep(spec.sample_interval)
                now = cluster.sim.now
                cpu_total = 0.0
                read_delta = write_delta = 0
                for node in cluster.server_nodes:
                    busy = node.cpu.busy_core_seconds()
                    cpu_total += (busy - state["busy"][node.name])
                    state["busy"][node.name] = busy
                    reads, writes = node.disk.io_counters()
                    old_r, old_w = state["io"][node.name]
                    read_delta += reads - old_r
                    write_delta += writes - old_w
                    state["io"][node.name] = (reads, writes)
                n = len(cluster.server_nodes)
                interval = spec.sample_interval
                result.cluster_cpu.record(
                    now, 100.0 * cpu_total / (n * cores * interval))
                result.disk_read_mbps.record(
                    now, read_delta / interval / (1024 * 1024))
                result.disk_write_mbps.record(
                    now, write_delta / interval / (1024 * 1024))
                result.under_replicated.record(
                    now, cluster.coordinator.under_replicated_total())

        cluster.sim.process(sampler(), name="crash-sampler")

        # Foreground clients (Fig. 10).
        clients: List[YcsbClient] = []
        if spec.foreground is not None:
            for i, rc in enumerate(cluster.clients):
                stream = RandomStream(spec.cluster.seed, f"fg{i}")
                clients.append(YcsbClient(
                    cluster.sim, rc, table_id, spec.foreground, stream,
                    record_hashes=cluster.record_hashes[table_id]))

        # The victim must be decided before clients start if we pin keys.
        victim = (cluster.servers[spec.victim_index]
                  if spec.victim_index is not None else None)
        if spec.split_clients_by_victim:
            if victim is None:
                raise ValueError("split_clients_by_victim needs victim_index")
            if len(clients) < 2:
                raise ValueError("split_clients_by_victim needs >= 2 clients")
            victim_records, live_records = _victim_key_split(
                cluster, table_id, victim)
            clients[0].keys = _PinnedKeyChooser(victim_records)
            for extra in clients[1:]:
                extra.keys = _PinnedKeyChooser(live_records)

        for i, client in enumerate(clients):
            cluster.sim.process(client.run(), name=f"fg-client{i}")

        # The crash (or any richer fault sequence) is a schedule over the
        # repro.faults layer; the paper's methodology is the one-entry case.
        schedule = spec.faults
        if schedule is None:
            schedule = FaultSchedule.single_crash(spec.kill_at,
                                                  spec.victim_index)
        injector = cluster.inject_faults(schedule)

        # Run until every recovery completes (plus a settling tail) or the
        # hard cap — not always to run_until, which would burn simulated
        # hours on long-tailed configurations.
        while cluster.sim.now < spec.run_until:
            cluster.run(until=min(spec.run_until, cluster.sim.now + 5.0))
            recoveries = cluster.coordinator.recoveries
            if (recoveries
                    and all(r.finished_at is not None for r in recoveries)
                    and cluster.sim.now >= spec.kill_at):
                tail = min(spec.run_until,
                           max(r.finished_at for r in recoveries) + 10.0)
                if cluster.sim.now < tail:
                    cluster.run(until=tail)
                break

        if injector.killed_servers:
            result.crashed_server = injector.killed_servers[0].server_id
        if cluster.coordinator.recoveries:
            result.recovery = cluster.coordinator.recoveries[0]
        result.repairs = list(cluster.coordinator.repairs)
        result.fault_log = list(injector.applied)
        if cluster.sim._sanitizer is not None:
            result.race_reports = list(cluster.sim._sanitizer.race_reports)
        for client in clients:
            result.client_latencies.append(client.stats.all_latencies())
        cluster.stop_metering()
    return result
