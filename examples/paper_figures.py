#!/usr/bin/env python3
"""Recreate the paper's §VII figures as terminal charts.

Runs a (scaled-down) version of the paper's crash experiment — idle
replicated cluster, one server killed — and renders Fig. 9a (cluster
CPU), Fig. 9b (surviving-node power), Fig. 12 (disk activity) and
Fig. 10 (the two clients' latencies) as ASCII charts, plus the Table-I
style CPU ladder and the energy-proportionality index behind Finding 1.

Run:  python examples/paper_figures.py
"""

from repro.cluster import (
    ClusterSpec,
    CrashExperimentSpec,
    ExperimentSpec,
    run_crash_experiment,
    run_experiment,
)
from repro.experiments.reporting import (
    cpu_usage_table,
    crash_timeline_report,
    energy_proportionality_index,
)
from repro.hardware.specs import MB
from repro.ramcloud import ServerConfig
from repro.ycsb import WORKLOAD_C


def crash_figures():
    data_per_server = 96 * MB  # scaled from the paper's ~1 GB
    servers = 8
    record_size = 8 * 1024
    num_records = data_per_server * servers // record_size
    spec = CrashExperimentSpec(
        cluster=ClusterSpec(
            num_servers=servers, num_clients=2,
            server_config=ServerConfig(replication_factor=4),
            seed=17),
        num_records=num_records,
        record_size=record_size,
        kill_at=10.0,
        run_until=240.0,
        sample_interval=0.5,
        victim_index=2,
        split_clients_by_victim=True,
        foreground=WORKLOAD_C.scaled(
            num_records=num_records, ops_per_client=10_000_000,
            record_size=record_size).throttled(1500.0),
    )
    result = run_crash_experiment(spec)
    print(crash_timeline_report(result))


def table1_and_epi():
    rows = {}
    loads, watts = [], []
    for clients in (0, 1, 2, 3):
        if clients == 0:
            from repro.cluster import Cluster
            cluster = Cluster(ClusterSpec(
                num_servers=1, num_clients=0,
                server_config=ServerConfig(replication_factor=0)))
            cluster.start_metering()
            cluster.run(until=5.0)
            # Mean busy share of the cores over [0, 5 s], in percent.
            cpu = cluster.server_nodes[0].cpu
            rows["idle server"] = {
                "server0": 100.0 * cpu.busy_core_seconds() / (5.0 * cpu.cores)}
            loads.append(0.0)
            watts.append(cluster.average_power_per_server())
            continue
        spec = ExperimentSpec(
            cluster=ClusterSpec(
                num_servers=1, num_clients=clients,
                server_config=ServerConfig(replication_factor=0)),
            workload=WORKLOAD_C.scaled(num_records=5000,
                                       ops_per_client=1000),
        )
        result = run_experiment(spec)
        rows[f"{clients} client(s)"] = result.cpu_util_per_node
        loads.append(result.throughput)
        watts.append(result.avg_power_per_server)
    print("per-node CPU usage, single read-only server  [Table I]")
    print(cpu_usage_table(rows))
    epi = energy_proportionality_index(loads, watts)
    print(f"\nenergy-proportionality index: {epi:.2f} "
          "(1 = proportional; Finding 1: RAMCloud is far from it)")


def main():
    print("=" * 70)
    table1_and_epi()
    print()
    print("=" * 70)
    crash_figures()


if __name__ == "__main__":
    main()
