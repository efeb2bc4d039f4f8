#!/usr/bin/env python3
"""Elastic scale-down: the §IX coordinator the paper asks for.

"a smart approach can be considered at the coordinator level ... which
can decide whether to add or remove nodes depending on the workload.
These types of approaches have shown their effectiveness in Cloud
environments [Sierra, Rabbit]."

This example runs a light read-only load on an over-provisioned
cluster, then has the coordinator drain and power off half the servers
(live tablet migration — no recovery, no lost data) and measures the
power the fleet stopped burning.

Run:  python examples/elastic_scaling.py
"""

from repro.cluster import Cluster, ClusterSpec
from repro.ramcloud import ServerConfig
from repro.sim.distributions import RandomStream
from repro.ycsb import WORKLOAD_C, YcsbClient

SERVERS = 6
CLIENTS = 2
RECORDS = 6000


def run_load(cluster, table_id, tag):
    clients = []
    for i, rc in enumerate(cluster.clients):
        workload = WORKLOAD_C.scaled(num_records=RECORDS,
                                     ops_per_client=2000)
        clients.append(YcsbClient(cluster.sim, rc, table_id, workload,
                                  RandomStream(3, f"{tag}{i}")))
    procs = [cluster.sim.process(c.run(), name=f"{tag}{i}")
             for i, c in enumerate(clients)]
    cluster.sim.run_process(cluster.sim.all_of(procs))
    total = sum(c.stats.total_ops for c in clients)
    makespan = (max(c.stats.finished_at for c in clients)
                - min(c.stats.started_at for c in clients))
    return total / makespan


def fleet_power(cluster, over):
    """Average fleet draw over the last `over` seconds of samples."""
    now = cluster.sim.now
    total = 0.0
    for node in cluster.server_nodes:
        window = node.power.series.window(now - over, now)
        total += window.mean() if len(window) else 0.0
    return total


def main():
    cluster = Cluster(ClusterSpec(
        num_servers=SERVERS, num_clients=CLIENTS,
        server_config=ServerConfig(replication_factor=0), seed=3))
    table_id = cluster.create_table("cache")
    cluster.preload(table_id, RECORDS, 1024)
    cluster.start_metering(interval=0.05)

    print(f"over-provisioned: {SERVERS} servers, {CLIENTS} light "
          "read-only clients")
    before_thr = run_load(cluster, table_id, "warm")
    cluster.run(until=cluster.sim.now + 2.0)
    before_power = fleet_power(cluster, over=1.0)
    print(f"  throughput {before_thr:,.0f} op/s, "
          f"fleet draw {before_power:.0f} W")

    victims = [f"server{i}" for i in range(SERVERS // 2, SERVERS)]
    print(f"\ncoordinator drains and powers off {victims} ...")

    def orchestrate():
        moved = 0
        for server_id in victims:
            moved += yield from cluster.coordinator.decommission_server(
                server_id)
        return moved

    moved = cluster.sim.run_process(
        cluster.sim.process(orchestrate(), name="autoscaler"))
    print(f"  migrated {moved} tablet shards live "
          f"(no recovery, no data loss) by t={cluster.sim.now:.2f} s")

    after_thr = run_load(cluster, table_id, "post")
    cluster.run(until=cluster.sim.now + 2.0)
    after_power = fleet_power(cluster, over=1.0)
    print(f"\nright-sized: {SERVERS - len(victims)} servers")
    print(f"  throughput {after_thr:,.0f} op/s, "
          f"fleet draw {after_power:.0f} W")

    saved = before_power - after_power
    print(f"\nsaved {saved:.0f} W ({100 * saved / before_power:.0f} % of "
          f"the fleet) at {100 * (1 - after_thr / before_thr):.0f} % "
          "throughput cost —")
    print("idle RAMCloud servers burn a polling core (Finding 1), so "
          "power only comes back when machines are actually turned off.")


if __name__ == "__main__":
    main()
