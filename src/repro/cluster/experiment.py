"""Running one experiment configuration and collecting the paper's metrics.

Follows the paper's measurement discipline (§III):

* the data store is filled first (bulk preload);
* power metering starts "right before running the benchmark" and stops
  "after all clients finish";
* metrics: aggregated throughput (requests served per second), average
  power per server node, total energy consumed, energy efficiency
  (operations per joule), per-node CPU utilization, per-client latency;
* each reported value is an average over several seeded runs with error
  bars (:func:`repeat_experiment`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence, Tuple

from repro.cluster.deployment import Cluster, ClusterSpec
from repro.ramcloud.tenancy import TenantStats
from repro.sim.distributions import RandomStream
from repro.ycsb.client import YcsbClient
from repro.ycsb.stats import OperationStats, nearest_rank
from repro.ycsb.workload import WorkloadSpec

__all__ = ["ExperimentSpec", "ExperimentResult", "run_experiment",
           "repeat_experiment", "Aggregate"]


@dataclass(frozen=True)
class ExperimentSpec:
    """One cluster+workload configuration."""

    cluster: ClusterSpec
    workload: WorkloadSpec
    table_span: Optional[int] = None  # default: num_servers (ServerSpan)
    pdu_interval: float = 0.05  # finer than the paper's 1 Hz because our
    # scaled-down runs are shorter; energy totals use exact integrals.
    give_up_after: Optional[float] = None
    # Multi-tenant runs: one TenantSpec per tenant; each gets its own
    # namespaced "usertable" and the clients are assigned round-robin.
    # Empty (the default) builds the single shared table as always.
    tenants: Tuple = ()

    def with_(self, **overrides) -> "ExperimentSpec":
        """A copy with the given fields replaced."""
        return replace(self, **overrides)


@dataclass
class ExperimentResult:
    """Everything one run produces."""

    spec: ExperimentSpec
    total_ops: int = 0
    makespan: float = 0.0
    throughput: float = 0.0  # ops/second, aggregated over all clients
    avg_power_per_server: float = 0.0  # watts
    total_energy_joules: float = 0.0
    energy_efficiency: float = 0.0  # ops/joule
    cpu_util_per_node: Dict[str, float] = field(default_factory=dict)
    per_client_stats: List[OperationStats] = field(default_factory=list)
    client_errors: int = 0
    clients_gave_up: int = 0
    crashed: bool = False  # the paper's "experiments were always crashing"
    # Kernel events scheduled over the whole run (preload included) —
    # the count the benchmark reports as ``sim.kernel.events``.
    sim_events: int = 0
    # Unguarded-write reports (debug mode only; execution order,
    # which is deterministic under a fixed seed).  Empty otherwise.
    race_reports: List[str] = field(default_factory=list)
    # Per-tenant SLA breakout (multi-tenant runs only): tenant name →
    # the dict form of :class:`~repro.ramcloud.tenancy.TenantStats`.
    # Empty on single-tenant runs, keeping their digests unchanged.
    per_tenant_stats: Dict[str, Dict[str, float]] = field(
        default_factory=dict)

    @property
    def cpu_util_min(self) -> float:
        """Least-loaded node's CPU percent (Table I's min)."""
        return min(self.cpu_util_per_node.values())

    @property
    def cpu_util_max(self) -> float:
        """Most-loaded node's CPU percent (Table I's max)."""
        return max(self.cpu_util_per_node.values())

    @property
    def cpu_util_avg(self) -> float:
        """Mean CPU percent across server nodes."""
        values = list(self.cpu_util_per_node.values())
        return sum(values) / len(values)

    def mean_latency(self) -> float:
        """Mean op latency pooled over every client."""
        merged = []
        for stats in self.per_client_stats:
            merged.extend(stats.all_latencies().latencies)
        if not merged:
            raise ValueError("no latency samples")
        return sum(merged) / len(merged)

    def mean_latency_or_zero(self) -> float:
        """:meth:`mean_latency`, 0.0 when the run recorded no samples
        (a crashed run) — the aggregate-friendly variant."""
        try:
            return self.mean_latency()
        except ValueError:
            return 0.0

    def headline_metrics(self) -> Dict[str, float]:
        """The per-seed floats a multi-seed aggregate is built from —
        the one list behind :func:`repeat_experiment` and the sweep
        runner's cell outcomes, so their statistics cannot drift apart.
        Multi-tenant runs add the per-tenant SLA breakout."""
        metrics = {
            "throughput": self.throughput,
            "avg_power_per_server": self.avg_power_per_server,
            "total_energy_joules": self.total_energy_joules,
            "energy_efficiency": self.energy_efficiency,
            "makespan": self.makespan,
            "mean_latency": self.mean_latency_or_zero(),
            "cpu_util_avg": self.cpu_util_avg,
            "cpu_util_min": self.cpu_util_min,
            "cpu_util_max": self.cpu_util_max,
            "total_ops": float(self.total_ops),
            "client_errors": float(self.client_errors),
            "crashed": 1.0 if self.crashed else 0.0,
        }
        for tenant in sorted(self.per_tenant_stats):
            for key, value in self.per_tenant_stats[tenant].items():
                metrics[f"tenant[{tenant}].{key}"] = value
        return metrics


def run_experiment(spec: ExperimentSpec) -> ExperimentResult:
    """Build the cluster, preload, run all clients, collect metrics."""
    with Cluster(spec.cluster) as cluster:
        workload = spec.workload
        indexed = (workload.index_scan_proportion > 0
                   or workload.index_lookup_proportion > 0
                   or workload.num_indexlets > 0)
        if spec.tenants:
            for tenant in spec.tenants:
                cluster.register_tenant(tenant)
            table_ids = [cluster.create_table("usertable",
                                              span=spec.table_span,
                                              tenant=tenant.name)
                         for tenant in spec.tenants]
        else:
            table_ids = [cluster.create_table("usertable",
                                              span=spec.table_span)]
        index_ids: List[Optional[int]] = []
        for table_id in table_ids:
            if indexed:
                from repro.ramcloud.indexing import uniform_boundaries
                desc = cluster.create_index(
                    table_id, "sec",
                    uniform_boundaries(workload.num_records,
                                       max(1, workload.num_indexlets)))
                cluster.preload_indexed(table_id, desc, workload.num_records,
                                        workload.record_size)
                index_ids.append(desc.index_id)
            else:
                cluster.preload(table_id, workload.num_records,
                                workload.record_size)
                index_ids.append(None)

        clients = []
        for i, rc in enumerate(cluster.clients):
            stream = RandomStream(spec.cluster.seed, f"ycsb{i}")
            slot = i % len(table_ids)
            clients.append(YcsbClient(
                cluster.sim, rc, table_ids[slot], spec.workload, stream,
                give_up_after=spec.give_up_after, index_id=index_ids[slot],
                record_hashes=cluster.record_hashes[table_ids[slot]]))

        for node in cluster.server_nodes:
            node.start_metering(interval=spec.pdu_interval)

        start = cluster.sim.now
        start_busy = {n.name: n.cpu.busy_core_seconds()
                      for n in cluster.server_nodes}
        start_disk = {n.name: n.disk.busy_seconds
                      for n in cluster.server_nodes}

        procs = [cluster.sim.process(c.run(), name=f"ycsb:{i}")
                 for i, c in enumerate(clients)]
        cluster.sim.run_process(cluster.sim.all_of(procs))
        end = cluster.sim.now
        cluster.stop_metering()

        makespan = max(end - start, 1e-12)
        result = ExperimentResult(spec=spec)
        result.sim_events = cluster.sim._seq
        if cluster.sim._sanitizer is not None:
            result.race_reports = list(cluster.sim._sanitizer.race_reports)
        result.makespan = makespan
        result.per_client_stats = [c.stats for c in clients]
        result.total_ops = sum(c.stats.total_ops for c in clients)
        result.throughput = result.total_ops / makespan
        result.client_errors = sum(c.stats.errors for c in clients)
        result.clients_gave_up = sum(1 for c in clients if c.gave_up)
        result.crashed = result.clients_gave_up > 0

        power_spec = spec.cluster.machine.power
        cores = spec.cluster.machine.cpu.cores
        total_energy = 0.0
        watts = []
        for node in cluster.server_nodes:
            busy = node.cpu.busy_core_seconds() - start_busy[node.name]
            util_pct = 100.0 * busy / (makespan * cores)
            disk_busy = node.disk.busy_seconds - start_disk[node.name]
            avg_watts = (power_spec.watts(min(util_pct, 100.0))
                         + power_spec.disk_active_watts
                         * min(disk_busy / makespan, 1.0))
            watts.append(avg_watts)
            total_energy += avg_watts * makespan
            result.cpu_util_per_node[node.name] = util_pct
        result.avg_power_per_server = sum(watts) / len(watts)
        result.total_energy_joules = total_energy
        result.energy_efficiency = (result.total_ops / total_energy
                                    if total_energy > 0 else 0.0)

        if spec.tenants:
            tenant_of_table = cluster.coordinator.tenant_of_table
            for slot, tenant in enumerate(spec.tenants):
                tstats = TenantStats()
                merged = []
                for i, client in enumerate(clients):
                    if i % len(table_ids) != slot:
                        continue
                    tstats.ops += client.stats.total_ops
                    tstats.client_errors += client.stats.errors
                    merged.extend(client.stats.all_latencies().latencies)
                if merged:
                    merged.sort()  # the mean sums in latency order
                    tstats.p99_latency = nearest_rank(merged, 99.0)
                    tstats.mean_latency = sum(merged) / len(merged)
                tstats.bytes_moved = tstats.ops * workload.record_size
                # Dispatch-path drops at the masters, summed over the
                # tenant's tables (base tables and their indexes).
                tstats.throttle_drops = sum(
                    throttle.drops
                    for server in cluster.servers
                    for tid, throttle in server._tenant_throttles.items()
                    if tenant_of_table.get(tid) == tenant.name)
                result.per_tenant_stats[tenant.name] = tstats.as_dict()
    return result


@dataclass
class Aggregate:
    """Mean and error bar over repeated seeded runs, per metric."""

    mean: float
    stddev: float
    values: Tuple[float, ...]

    @classmethod
    def of(cls, values: Sequence[float]) -> "Aggregate":
        """Aggregate a list of per-seed values."""
        if not values:
            raise ValueError("no values to aggregate")
        mean = sum(values) / len(values)
        if len(values) > 1:
            var = sum((v - mean) ** 2 for v in values) / (len(values) - 1)
        else:
            var = 0.0
        return cls(mean=mean, stddev=math.sqrt(var), values=tuple(values))

    def __format__(self, fmt: str) -> str:
        return f"{format(self.mean, fmt)}±{format(self.stddev, fmt)}"


def repeat_experiment(spec: ExperimentSpec, seeds: Sequence[int]
                      ) -> Tuple[Dict[str, Aggregate], List[ExperimentResult]]:
    """Run one configuration once per seed (the paper averages 5 runs);
    returns aggregates over the headline metrics plus the raw results."""
    results = []
    for seed in seeds:
        run_spec = spec.with_(cluster=spec.cluster.with_(seed=seed))
        results.append(run_experiment(run_spec))
    rows = [result.headline_metrics() for result in results]
    metrics = {key: Aggregate.of([row[key] for row in rows])
               for key in rows[0]}
    return metrics, results
