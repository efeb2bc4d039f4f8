#!/usr/bin/env python3
"""Quickstart: build a RAMCloud cluster, store and read data, kill a
server and watch the cluster recover.

Everything runs inside the discrete-event simulator: the "cluster" is a
faithful model of the paper's testbed (4-core nodes, HDDs,
Infiniband, per-node power meters) running a from-scratch RAMCloud
implementation (coordinator, log-structured masters, collocated
backups, primary-backup replication, distributed crash recovery).

Run:  python examples/quickstart.py
"""

from repro.cluster import Cluster, ClusterSpec
from repro.ramcloud import ServerConfig


def main():
    # 1. A small cluster: 5 storage servers (master+backup collocated),
    #    2 client machines, replication factor 3 — plus the coordinator.
    spec = ClusterSpec(
        num_servers=5,
        num_clients=2,
        server_config=ServerConfig(replication_factor=3),
        failure_detection=True,
        seed=42,
    )
    with Cluster(spec) as cluster:
        sim = cluster.sim

        # 2. Create a table spanning every server (the paper's ServerSpan
        #    setting) and talk to it through a client.
        table_id = cluster.create_table("accounts")
        client = cluster.clients[0]

        def workload():
            yield from client.refresh_map()
            # Store a few objects (value payloads are optional: pass real
            # bytes, or just a size to simulate the space/time).
            for i in range(10):
                version = yield from client.write(
                    table_id, f"account-{i}", value_size=256,
                    value=f"balance={i * 100}".encode())
                print(f"  wrote account-{i} (version {version}) "
                      f"at t={sim.now * 1e6:.1f} µs")
            value, version, _size = yield from client.read(table_id,
                                                           "account-7")
            print(f"  read account-7 -> {value!r} (version {version})")
            yield from client.delete(table_id, "account-3")
            print("  deleted account-3")

        print("== writing and reading ==")
        sim.run_process(sim.process(workload()))

        # 3. Kill a server and let the coordinator recover it.
        print("\n== crash and recovery ==")
        cluster.run(until=5.0)
        victim = cluster.kill_server()
        print(f"  killed {victim.server_id} at t={sim.now:.1f} s")
        cluster.run(until=60.0)
        recovery = cluster.coordinator.recoveries[0]
        print(f"  recovery of {recovery.crashed_id}: "
              f"{recovery.segments} segment(s), "
              f"{recovery.bytes_to_recover} bytes, "
              f"{recovery.duration:.2f} s across "
              f"{len(recovery.recovery_masters)} recovery masters")

        # 4. The data survived: read an object the victim used to own.
        def verify():
            yield from client.refresh_map()
            found = 0
            for i in range(10):
                if i == 3:
                    continue  # deleted above
                _value, _version, _size = yield from client.read(
                    table_id, f"account-{i}")
                found += 1
            return found

        found = sim.run_process(sim.process(verify()))
        print(f"  verified {found}/9 surviving objects after recovery")


if __name__ == "__main__":
    main()
