"""System tests for replication features: async mode, backup failure
handling, dispatch RX."""

import pytest

from repro.ramcloud.consistency import ASYNC_BOUNDED, SYNC_RF
from repro.ramcloud.tablets import key_hash

from tests.ramcloud.conftest import build_cluster, run_client_script


class TestAsyncReplication:
    def test_async_acks_do_not_block_client(self):
        sync = build_cluster(num_servers=4, num_clients=1,
                             replication_factor=3)
        async_ = build_cluster(num_servers=4, num_clients=1,
                               replication_factor=3,
                               default_consistency=ASYNC_BOUNDED)
        latencies = {}
        for label, cluster in (("sync", sync), ("async", async_)):
            table_id = cluster.create_table("t")
            rc = cluster.clients[0]

            def script():
                yield from rc.refresh_map()
                start = cluster.sim.now
                for i in range(20):
                    yield from rc.write(table_id, f"k{i}", 1024)
                return (cluster.sim.now - start) / 20

            latencies[label] = run_client_script(cluster, script())
        assert latencies["async"] < latencies["sync"]

    def test_async_replicas_still_arrive(self):
        cluster = build_cluster(num_servers=4, num_clients=1,
                                replication_factor=2,
                                default_consistency=ASYNC_BOUNDED)
        table_id = cluster.create_table("t")
        rc = cluster.clients[0]

        def script():
            yield from rc.refresh_map()
            for i in range(10):
                yield from rc.write(table_id, f"k{i}", 1024)
            yield cluster.sim.timeout(1.0)  # let the fire-and-forget land

        run_client_script(cluster, script())
        replicated = sum(r.nbytes for s in cluster.servers
                         for r in s.replicas.values())
        assert replicated > 0


class TestBackupFailureHandling:
    @pytest.mark.parametrize("level", [SYNC_RF, ASYNC_BOUNDED])
    def test_write_succeeds_after_backup_death(self, level):
        """A master whose backup died keeps serving writes (degraded,
        no stall) while the background repair loop replaces the backup
        and re-replicates the segment — whether the dead backup is met
        by the write path (SYNC_RF) or the flusher (ASYNC_BOUNDED)."""
        cluster = build_cluster(num_servers=4, num_clients=1,
                                replication_factor=1, seed=6)
        table_id = cluster.create_table("t")
        rc = cluster.clients[0]
        span = 4

        # Find a key owned by server0 and write once to pin its segment
        # backups.
        key = next(f"user{i}" for i in range(100)
                   if key_hash(f"user{i}") % span == 0)
        master = cluster.servers[0]

        def script():
            yield from rc.refresh_map()
            yield from rc.write(table_id, key, 256, level=level)
            # Kill the backup of server0's head segment.
            backup_id = master.log.head.replica_backups[0]
            victim = cluster.coordinator.lookup_server(backup_id)
            victim.kill()
            # The next write must still succeed (degraded, repair
            # pending in the background).
            version = yield from rc.write(table_id, key, 256, level=level)
            return version, backup_id

        version, dead_backup = run_client_script(cluster, script(),
                                                 until=120.0)
        assert version >= 2
        cluster.run(until=cluster.sim.now + 5.0)
        # The failed append was recorded as a lost replica (no failure
        # detector runs here: the fan-out is the only thing that can
        # have noticed)...
        assert master.replicas_lost >= 1
        # ...and after the repair loop runs, the dead backup is gone
        # from the segment's replica set and nothing is under-replicated.
        new_backups = master.log.head.replica_backups
        assert dead_backup not in new_backups
        assert len(new_backups) == 1
        assert not master.under_replicated
        assert master.segments_repaired >= 1

    def test_replacement_backup_holds_full_segment(self):
        cluster = build_cluster(num_servers=5, num_clients=1,
                                replication_factor=1, seed=6)
        table_id = cluster.create_table("t")
        rc = cluster.clients[0]
        span = 5
        key = next(f"user{i}" for i in range(100)
                   if key_hash(f"user{i}") % span == 0)
        master = cluster.servers[0]

        def script():
            yield from rc.refresh_map()
            for _round in range(5):
                yield from rc.write(table_id, key, 1024)
            backup_id = master.log.head.replica_backups[0]
            cluster.coordinator.lookup_server(backup_id).kill()
            yield from rc.write(table_id, key, 1024)
            return backup_id

        dead_backup = run_client_script(cluster, script(), until=120.0)
        # Let the background repair loop replace the dead backup.
        cluster.run(until=cluster.sim.now + 5.0)
        new_backup_id = master.log.head.replica_backups[0]
        assert new_backup_id != dead_backup
        new_backup = cluster.coordinator.lookup_server(new_backup_id)
        replica = new_backup.replicas[(master.server_id,
                                       master.log.head.segment_id)]
        # The replacement received the whole segment, not just the last
        # entry: its byte count covers all six writes.
        assert replica.nbytes >= master.log.head.bytes_used


class TestDispatchRx:
    def test_rx_occupies_dispatch(self, cluster3):
        server = cluster3.servers[0]
        done = []

        def rx_script():
            yield from server._dispatch_rx(100 * 1024 * 1024)  # 100 MB
            done.append(cluster3.sim.now)

        cluster3.sim.process(rx_script())
        cluster3.run(until=5.0)
        expected = 100 * 1024 * 1024 * server.cost.dispatch_rx_per_byte
        assert done and done[0] == pytest.approx(
            expected + server.cost.dispatch_per_request, rel=0.01)

    def test_requests_queue_behind_rx(self, cluster3):
        """A client request arriving during a bulk RX waits for the
        dispatch thread (the Fig. 10 mechanism)."""
        server = cluster3.servers[0]
        table_id = cluster3.create_table("t")
        rc = cluster3.clients[0]
        span = 3
        key = next(f"user{i}" for i in range(100)
                   if key_hash(f"user{i}") % span == 0)

        def setup():
            yield from rc.refresh_map()
            yield from rc.write(table_id, key, 64)

        run_client_script(cluster3, setup())

        def rx_hog():
            yield from server._dispatch_rx(50 * 1024 * 1024)

        latency = {}

        def reader():
            yield cluster3.sim.timeout(0.001)  # arrive mid-RX
            start = cluster3.sim.now
            yield from rc.read(table_id, key)
            latency["read"] = cluster3.sim.now - start

        cluster3.sim.process(rx_hog())
        cluster3.sim.process(reader())
        cluster3.run(until=5.0)
        rx_time = 50 * 1024 * 1024 * server.cost.dispatch_rx_per_byte
        assert latency["read"] > rx_time / 2  # stalled behind the RX
