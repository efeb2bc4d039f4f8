"""End-to-end scenarios exercising the full stack together."""

import pytest

from repro.cluster import ClusterSpec, ExperimentSpec, run_experiment
from repro.hardware.specs import MB
from repro.ramcloud.config import ServerConfig
from repro.sim.distributions import RandomStream
from repro.ycsb.client import YcsbClient
from repro.ycsb.workload import WORKLOAD_A, WORKLOAD_B

from tests.ramcloud.conftest import build_cluster, run_client_script


class TestDeterminism:
    def test_same_seed_same_everything(self):
        spec = ExperimentSpec(
            cluster=ClusterSpec(
                num_servers=3, num_clients=3,
                server_config=ServerConfig(replication_factor=1), seed=13),
            workload=WORKLOAD_A.scaled(num_records=1000, ops_per_client=150),
        )
        a = run_experiment(spec)
        b = run_experiment(spec)
        assert a.throughput == b.throughput
        assert a.total_energy_joules == b.total_energy_joules
        assert a.cpu_util_per_node == b.cpu_util_per_node

    def test_different_seed_different_trace(self):
        def run(seed):
            spec = ExperimentSpec(
                cluster=ClusterSpec(
                    num_servers=3, num_clients=3,
                    server_config=ServerConfig(replication_factor=1),
                    seed=seed),
                workload=WORKLOAD_A.scaled(num_records=1000,
                                           ops_per_client=150),
            )
            return run_experiment(spec)

        assert run(1).throughput != run(2).throughput


class TestWorkloadDuringCrash:
    def test_mixed_workload_survives_a_crash(self):
        """Clients keep issuing a read-heavy workload while a server
        dies and recovers; every op eventually completes and recovered
        data is consistent."""
        cluster = build_cluster(num_servers=5, num_clients=3,
                                replication_factor=2,
                                failure_detection=True, seed=4)
        table_id = cluster.create_table("t")
        cluster.preload(table_id, 3000, 512)
        workload = WORKLOAD_B.scaled(num_records=3000, ops_per_client=800,
                                     record_size=512)
        clients = [
            YcsbClient(cluster.sim, rc, table_id, workload,
                       RandomStream(4, f"c{i}"))
            for i, rc in enumerate(cluster.clients)
        ]
        procs = [cluster.sim.process(c.run(), name=f"c{i}")
                 for i, c in enumerate(clients)]

        def killer():
            yield cluster.sim.timeout(0.004)
            cluster.kill_server(1)

        cluster.sim.process(killer(), name="killer")
        cluster.sim.run_process(cluster.sim.all_of(procs))
        assert all(c.stats.total_ops == 800 for c in clients)
        # The recovery actually happened during the run.
        assert cluster.coordinator.recoveries
        assert cluster.coordinator.recoveries[0].finished_at is not None

    def test_writes_during_recovery_are_not_lost(self):
        """Updates issued to live tablets while another server recovers
        must all be durable and readable afterwards."""
        cluster = build_cluster(num_servers=4, num_clients=1,
                                replication_factor=1,
                                failure_detection=True, seed=9)
        table_id = cluster.create_table("t")
        cluster.preload(table_id, 1000, 256)
        cluster.run(until=1.0)
        victim = cluster.kill_server(0)
        live_keys = []
        for i in range(1000):
            key = f"user{i}"
            if key not in set(victim.hashtable.keys_for_table(table_id)):
                live_keys.append(key)
            if len(live_keys) == 20:
                break
        rc = cluster.clients[0]

        def script():
            yield from rc.refresh_map()
            versions = {}
            for key in live_keys:
                versions[key] = yield from rc.write(table_id, key, 256)
            # Wait out the recovery, then verify.
            yield cluster.sim.timeout(60.0)
            for key in live_keys:
                _v, version, _s = yield from rc.read(table_id, key)
                assert version == versions[key], key
            return len(versions)

        assert run_client_script(cluster, script(), until=300.0) == 20


class TestMemoryPressure:
    def test_sustained_overwrites_with_replication_and_cleaning(self):
        """The cleaner, replication and the write path cooperate under
        memory pressure without deadlock or data loss."""
        cluster = build_cluster(
            num_servers=3, num_clients=2, replication_factor=1,
            log_memory_bytes=8 * MB, segment_size=1 * MB,
            cleaner_threshold=0.7, cleaner_low_watermark=0.5, seed=5)
        table_id = cluster.create_table("t")
        keys = [f"k{i}" for i in range(16)]
        rc = cluster.clients[0]

        def script():
            yield from rc.refresh_map()
            for round_no in range(12):
                for key in keys:
                    yield from rc.write(table_id, key, 100 * 1024)
            # All keys readable at their final size.
            for key in keys:
                _v, _version, size = yield from rc.read(table_id, key)
                assert size == 100 * 1024
            return True

        assert run_client_script(cluster, script(), until=900.0)
        total_live = sum(len(s.hashtable) for s in cluster.servers)
        assert total_live == len(keys)
