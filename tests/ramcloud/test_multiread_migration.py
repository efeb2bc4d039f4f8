"""System tests for MultiRead and tablet migration / elastic sizing."""

import pytest

from repro.ramcloud.tablets import TabletStatus, key_hash

from tests.ramcloud.conftest import build_cluster, run_client_script


class TestMultiread:
    def test_multiread_returns_all_present_keys(self, cluster3):
        table_id = cluster3.create_table("t")
        cluster3.preload(table_id, 100, 256)
        rc = cluster3.clients[0]
        keys = [f"user{i}" for i in range(20)]

        def script():
            result = yield from rc.multiread(table_id, keys)
            return result

        result = run_client_script(cluster3, script())
        assert set(result) == set(keys)
        assert all(size == 256 for _v, _ver, size in result.values())

    def test_multiread_omits_missing_keys(self, cluster3):
        table_id = cluster3.create_table("t")
        cluster3.preload(table_id, 10, 256)
        rc = cluster3.clients[0]

        def script():
            return (yield from rc.multiread(
                table_id, ["user1", "user999", "user3"]))

        result = run_client_script(cluster3, script())
        assert set(result) == {"user1", "user3"}

    def test_multiread_empty_batch(self, cluster3):
        table_id = cluster3.create_table("t")
        rc = cluster3.clients[0]

        def script():
            return (yield from rc.multiread(table_id, []))

        assert run_client_script(cluster3, script()) == {}

    def test_multiread_cheaper_than_single_reads(self, cluster3):
        """Batching amortizes per-request costs (RAMCloud's MultiRead
        motivation)."""
        table_id = cluster3.create_table("t")
        cluster3.preload(table_id, 200, 256)
        rc = cluster3.clients[0]
        keys = [f"user{i}" for i in range(100)]

        def script():
            yield from rc.refresh_map()
            start = cluster3.sim.now
            yield from rc.multiread(table_id, keys)
            batched = cluster3.sim.now - start
            start = cluster3.sim.now
            for key in keys:
                yield from rc.read(table_id, key)
            singles = cluster3.sim.now - start
            return batched, singles

        batched, singles = run_client_script(cluster3, script())
        assert batched < singles / 3

    def test_multiread_survives_crash_with_retry(self):
        cluster = build_cluster(num_servers=4, num_clients=1,
                                replication_factor=1,
                                failure_detection=True)
        table_id = cluster.create_table("t")
        cluster.preload(table_id, 200, 256)
        cluster.run(until=1.0)
        cluster.kill_server(0)
        rc = cluster.clients[0]
        keys = [f"user{i}" for i in range(50)]

        def script():
            return (yield from rc.multiread(table_id, keys))

        result = run_client_script(cluster, script(), until=120.0)
        assert set(result) == set(keys)


class TestMigration:
    def test_migrated_data_served_by_target(self, cluster3):
        table_id = cluster3.create_table("t")
        cluster3.preload(table_id, 300, 256)
        coord = cluster3.coordinator
        source = cluster3.servers[0]
        target = cluster3.servers[1]
        tablet, shard = coord.tablet_map.tablets_of_server("server0")[0]
        unit = (tablet.table_id, tablet.index, shard)
        moved_keys = list(source.hashtable.keys_for_table(table_id))
        rc = cluster3.clients[0]

        def orchestrate():
            # Push one key's version past anything the target has
            # issued, so a target that kept its own counter would hand
            # out a smaller version for the next overwrite.
            yield from rc.refresh_map()
            for _ in range(150):
                yield from rc.write(table_id, moved_keys[0], 256)
            count = yield from source.migrate_shard_out(
                unit, tablet.shard_count, 3, target)
            coord.tablet_map.reassign_shard(tablet.tablet_id, shard,
                                            "server1")
            return count

        moved = run_client_script(cluster3, orchestrate())
        assert moved == len(moved_keys)
        assert len(source.hashtable) == 0
        for key in moved_keys:
            assert target.hashtable.lookup(table_id, key) is not None
        # And clients can read through the new owner, whose version
        # counter moved past the versions it took in.

        def verify():
            yield from rc.refresh_map()
            _v, version, size = yield from rc.read(table_id, moved_keys[0])
            assert (yield from rc.write(table_id, moved_keys[0], 256)) > version
            return size

        assert run_client_script(cluster3, verify()) == 256

    def test_migrate_unowned_unit_rejected(self, cluster3):
        from repro.ramcloud.errors import WrongServer
        cluster3.create_table("t")
        source = cluster3.servers[0]
        target = cluster3.servers[1]

        def orchestrate():
            yield from source.migrate_shard_out((99, 0, 0), 1, 3, target)

        with pytest.raises(WrongServer):
            run_client_script(cluster3, orchestrate())


class TestElasticSizing:
    def test_drain_moves_everything(self):
        cluster = build_cluster(num_servers=4, num_clients=1)
        table_id = cluster.create_table("t")
        cluster.preload(table_id, 400, 256)
        coord = cluster.coordinator

        def orchestrate():
            return (yield from coord.drain_server("server3"))

        moved_units = run_client_script(cluster, orchestrate(), until=120.0)
        assert moved_units >= 1
        assert not coord.tablet_map.tablets_of_server("server3")
        assert len(cluster.servers[3].hashtable) == 0

    def test_decommission_powers_down_without_recovery(self):
        cluster = build_cluster(num_servers=4, num_clients=1,
                                failure_detection=True)
        table_id = cluster.create_table("t")
        cluster.preload(table_id, 400, 256)
        cluster.run(until=1.0)
        coord = cluster.coordinator

        def orchestrate():
            return (yield from coord.decommission_server("server2"))

        run_client_script(cluster, orchestrate(), until=120.0)
        cluster.run(until=10.0)
        # Graceful leave: no crash recovery fired.
        assert not coord.recoveries
        assert not coord.is_live("server2")
        assert cluster.servers[2].node.power.powered_off
        # The remaining servers serve all the data.
        rc = cluster.clients[0]

        def verify():
            yield from rc.refresh_map()
            count = 0
            for i in range(0, 400, 40):
                yield from rc.read(table_id, f"user{i}")
                count += 1
            return count

        assert run_client_script(cluster, verify(), until=150.0) == 10

    def test_scale_up_and_rebalance(self):
        """Add a server mid-run and rebalance load onto it — the
        scale-up half of §IX's coordinator sizing."""
        cluster = build_cluster(num_servers=3, num_clients=1)
        table_id = cluster.create_table("t", span=6)  # 2 units/server
        cluster.preload(table_id, 600, 256)
        new_server = cluster.add_server()
        assert cluster.coordinator.is_live(new_server.server_id)

        def orchestrate():
            return (yield from cluster.coordinator.rebalance())

        proc = cluster.sim.process(orchestrate())
        moved = cluster.sim.run_process(proc, until=120.0)
        assert moved >= 1
        owned = cluster.coordinator.tablet_map.tablets_of_server(
            new_server.server_id)
        assert owned
        assert len(new_server.hashtable) > 0
        # Everything still readable through the normal path.
        rc = cluster.clients[0]

        def verify():
            yield from rc.refresh_map()
            for i in range(0, 600, 60):
                yield from rc.read(table_id, f"user{i}")
            return True

        assert run_client_script(cluster, verify(), until=200.0)

    def test_rebalance_on_balanced_cluster_is_noop(self):
        cluster = build_cluster(num_servers=3, num_clients=0)
        cluster.create_table("t")  # one unit per server

        def orchestrate():
            return (yield from cluster.coordinator.rebalance())

        proc = cluster.sim.process(orchestrate())
        assert cluster.sim.run_process(proc, until=60.0) == 0

    def test_powered_off_node_draws_zero(self):
        cluster = build_cluster(num_servers=4, num_clients=0)
        cluster.start_metering()

        def orchestrate():
            return (yield from cluster.coordinator.decommission_server(
                "server1"))

        proc = cluster.sim.process(orchestrate())
        cluster.run(until=10.0)
        assert not proc.is_alive
        off_node = cluster.servers[1].node
        late_samples = [v for t, v in off_node.power.series.items()
                        if t > 5.0]
        assert late_samples and all(v == 0.0 for v in late_samples)
