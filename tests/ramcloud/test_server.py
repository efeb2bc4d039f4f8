"""System tests for the server data path: reads, writes, deletes,
ownership, replication, threading."""

import gc

import pytest

from repro.cluster.deployment import default_key
from repro.hardware.specs import MB
from repro.ramcloud.errors import LogOutOfMemory, ObjectDoesntExist, WrongServer
from repro.ramcloud.indexing import (
    encode_entry_key, secondary_key, uniform_boundaries)
from repro.ramcloud.server import DISPATCH_WAKE_LATENCY
from repro.ramcloud.tablets import key_hash

from tests.ramcloud.conftest import build_cluster, run_client_script


class TestReadWrite:
    def test_write_then_read_roundtrip(self, cluster3):
        table_id = cluster3.create_table("t")
        rc = cluster3.clients[0]

        def script():
            yield from rc.refresh_map()
            version = yield from rc.write(table_id, "user1", 1024,
                                          value=b"payload")
            value, read_version, size = yield from rc.read(table_id, "user1")
            return version, value, read_version, size

        version, value, read_version, size = run_client_script(
            cluster3, script())
        assert version == read_version
        assert value == b"payload"
        assert size == 1024

    def test_read_missing_key_raises(self, cluster3):
        table_id = cluster3.create_table("t")
        rc = cluster3.clients[0]

        def script():
            yield from rc.refresh_map()
            try:
                yield from rc.read(table_id, "ghost")
            except ObjectDoesntExist:
                return "missing"
            return "found"

        assert run_client_script(cluster3, script()) == "missing"

    def test_overwrite_bumps_version(self, cluster3):
        table_id = cluster3.create_table("t")
        rc = cluster3.clients[0]

        def script():
            yield from rc.refresh_map()
            v1 = yield from rc.write(table_id, "k", 100)
            v2 = yield from rc.write(table_id, "k", 100)
            return v1, v2

        v1, v2 = run_client_script(cluster3, script())
        assert v2 > v1

    def test_delete_removes_object(self, cluster3):
        table_id = cluster3.create_table("t")
        rc = cluster3.clients[0]

        def script():
            yield from rc.refresh_map()
            yield from rc.write(table_id, "k", 100)
            yield from rc.delete(table_id, "k")
            try:
                yield from rc.read(table_id, "k")
            except ObjectDoesntExist:
                return "gone"
            return "still there"

        assert run_client_script(cluster3, script()) == "gone"

    def test_delete_missing_raises(self, cluster3):
        table_id = cluster3.create_table("t")
        rc = cluster3.clients[0]

        def script():
            yield from rc.refresh_map()
            try:
                yield from rc.delete(table_id, "ghost")
            except ObjectDoesntExist:
                return "missing"
            return "deleted"

        assert run_client_script(cluster3, script()) == "missing"

    def test_objects_land_on_correct_master(self, cluster3):
        table_id = cluster3.create_table("t")
        rc = cluster3.clients[0]
        keys = [f"user{i}" for i in range(30)]

        def script():
            yield from rc.refresh_map()
            for key in keys:
                yield from rc.write(table_id, key, 64)

        run_client_script(cluster3, script())
        span = 3
        for key in keys:
            index = key_hash(key) % span
            owner = cluster3.servers[index]
            assert owner.hashtable.lookup(table_id, key) is not None

    def test_wrong_server_rejects_misrouted_request(self, cluster3):
        table_id = cluster3.create_table("t")
        key = "user1"
        span = 3
        wrong = cluster3.servers[(key_hash(key) % span + 1) % span]
        node = cluster3.client_nodes[0]

        def script():
            try:
                yield from wrong.call(node, "read",
                                      args=(table_id, key, key_hash(key),
                                            span, None))
            except WrongServer:
                return "rejected"
            return "accepted"

        assert run_client_script(cluster3, script()) == "rejected"

    def test_server_stats_count_operations(self, cluster3):
        table_id = cluster3.create_table("t")
        rc = cluster3.clients[0]

        def script():
            yield from rc.refresh_map()
            for i in range(10):
                yield from rc.write(table_id, f"k{i}", 64)
            for i in range(10):
                yield from rc.read(table_id, f"k{i}")

        run_client_script(cluster3, script())
        assert sum(s.writes_completed for s in cluster3.servers) == 10
        assert sum(s.reads_completed for s in cluster3.servers) == 10


class TestReplication:
    def test_update_reaches_all_backups(self, cluster_rf2):
        table_id = cluster_rf2.create_table("t")
        rc = cluster_rf2.clients[0]

        def script():
            yield from rc.refresh_map()
            yield from rc.write(table_id, "user1", 2048)

        run_client_script(cluster_rf2, script())
        owner = cluster_rf2.servers[key_hash("user1") % 4]
        backups = owner.log.head.replica_backups
        assert len(backups) == 2
        for backup_id in backups:
            backup = cluster_rf2.coordinator.lookup_server(backup_id)
            replica = backup.replicas[(owner.server_id,
                                       owner.log.head.segment_id)]
            assert replica.nbytes > 0

    def test_rf0_produces_no_replicas(self, cluster3):
        table_id = cluster3.create_table("t")
        rc = cluster3.clients[0]

        def script():
            yield from rc.refresh_map()
            yield from rc.write(table_id, "user1", 2048)

        run_client_script(cluster3, script())
        assert all(not s.replicas for s in cluster3.servers)

    def test_backups_never_include_the_master(self):
        cluster = build_cluster(num_servers=4, num_clients=1,
                                replication_factor=3)
        table_id = cluster.create_table("t")
        rc = cluster.clients[0]

        def script():
            yield from rc.refresh_map()
            for i in range(20):
                yield from rc.write(table_id, f"k{i}", 64)

        run_client_script(cluster, script())
        for server in cluster.servers:
            for segment in server.log.segments.values():
                assert server.server_id not in segment.replica_backups

    def test_update_latency_grows_with_replication_factor(self):
        latencies = {}
        for rf in (0, 1, 3):
            cluster = build_cluster(num_servers=4, num_clients=1,
                                    replication_factor=rf)
            table_id = cluster.create_table("t")
            rc = cluster.clients[0]

            def script():
                yield from rc.refresh_map()
                start = cluster.sim.now
                for i in range(20):
                    yield from rc.write(table_id, f"k{i}", 1024)
                return (cluster.sim.now - start) / 20

            latencies[rf] = run_client_script(cluster, script())
        assert latencies[0] < latencies[1] < latencies[3]

    def test_closed_segment_flushes_to_backup_disk(self):
        cluster = build_cluster(num_servers=3, num_clients=1,
                                replication_factor=1)
        table_id = cluster.create_table("t")
        rc = cluster.clients[0]

        def script():
            yield from rc.refresh_map()
            # 600 KB objects: a 1 MB segment closes every other write.
            for i in range(6):
                yield from rc.write(table_id, f"k{i}", 600 * 1024)
            # Give the async flushes time to reach disk.
            yield cluster.sim.timeout(2.0)

        run_client_script(cluster, script())
        flushed = sum(1 for s in cluster.servers
                      for r in s.replicas.values() if r.on_disk)
        assert flushed >= 1
        assert any(s.node.disk.bytes_written > 0 for s in cluster.servers)


class TestThreadingModel:
    def test_dispatch_core_pinned_at_startup(self, cluster3):
        for server in cluster3.servers:
            assert server.node.cpu.schedulable_cores == 3
            assert server.node.cpu.busy_cores >= 1.0

    def test_kill_unpins_dispatch_core(self, cluster3):
        victim = cluster3.servers[0]
        victim.kill()
        cluster3.run(until=1.0)
        assert victim.node.cpu.schedulable_cores == 4
        assert victim.node.cpu.busy_cores == 0.0

    def test_kill_is_idempotent(self, cluster3):
        victim = cluster3.servers[0]
        victim.kill()
        victim.kill()  # must not raise
        cluster3.run(until=1.0)

    def test_killed_server_refuses_requests(self, cluster3):
        from repro.net.fabric import NodeUnreachable
        table_id = cluster3.create_table("t")
        victim = cluster3.servers[0]
        victim.kill()
        node = cluster3.client_nodes[0]

        def script():
            try:
                yield from victim.call(node, "read",
                                       args=(table_id, "k", key_hash("k"),
                                             3, None))
            except NodeUnreachable:
                return "refused"
            return "served"

        assert run_client_script(cluster3, script()) == "refused"

    def test_unknown_op_fails_cleanly(self, cluster3):
        node = cluster3.client_nodes[0]
        server = cluster3.servers[0]

        def script():
            try:
                yield from server.call(node, "bogus_op")
            except ValueError:
                return "rejected"
            return "served"

        assert run_client_script(cluster3, script()) == "rejected"

    @pytest.mark.parametrize("mode", ["poll", "adaptive"])
    def test_dispatch_handoff_timing(self, cluster3, mode):
        # A ping is answered by the dispatch thread itself: request
        # transfer, [wake from the adaptive nap,] handoff, ping service,
        # response flight — the same float sums in either mode.
        server = cluster3.servers[0]
        node = cluster3.client_nodes[0]
        sim = cluster3.sim
        server.set_power_mode(dispatch_mode=mode)

        def ping():
            start = sim.now
            yield from server.call(node, "ping", size_bytes=64,
                                   response_bytes=64)
            return start, sim.now

        def script():
            yield from ping()  # the loop picks up the new mode
            yield sim.timeout(0.01)  # idle: an adaptive thread naps
            return (yield from ping())

        start, end = run_client_script(cluster3, script())
        out, back = node.spec.nic, server.node.spec.nic
        cost = server.cost
        handed = start + 64 / out.bandwidth + out.one_way_latency
        if mode == "adaptive":
            handed += DISPATCH_WAKE_LATENCY
        handed += cost.dispatch_per_request
        answered = handed + cost.ping_service
        assert end == answered + (64 / back.bandwidth + back.one_way_latency)
        assert server.dispatch_sleeps == (1 if mode == "adaptive" else 0)


def _per_record_load(server, table_id, keys, value_size):
    """The loader :meth:`RamCloudServer.bulk_load` batches: one
    ``_insert_versioned`` per record, then each backup's replica
    materialized on its own, its watermark read from its own slice."""
    server._bulk_loading = True
    try:
        server._ensure_head_replicated()
        for key in keys:
            server._insert_versioned(table_id, key, value_size,
                                     server._next_version, None, None)
    finally:
        server._bulk_loading = False
    for segment in server.log.segments.values():
        for backup_id in segment.replica_backups:
            backup = server.coordinator.lookup_server(backup_id)
            replica = backup._replica_for(server.server_id, segment)
            replica.nbytes = segment.bytes_used
            backup._advance_watermark(replica, len(segment.entries))
            if segment.closed:
                replica.closed = True
                if not replica.on_disk:
                    replica.on_disk = True
                    backup._credit_disk(segment.bytes_used)
    return len(keys)


def _loaded_state(cluster):
    """Everything a bulk load writes, on every server, by value."""
    state = []
    for server in cluster.servers:
        log = server.log
        where = {}
        segments = []
        for segment in log.segments.values():
            for slot, e in enumerate(segment.entries):
                where[id(e)] = (segment.segment_id, slot)
            segments.append((
                segment.segment_id, segment.bytes_used, segment.closed,
                segment.replica_backups,
                [(type(e), e.table_id, e.key, e.value_size, e.version,
                  e.live, e.segment_id) for e in segment.entries]))
        index = {table_id: [(key, where[id(entry)])
                            for key, entry in keys.items()]
                 for table_id, keys in server.hashtable._tables.items()}
        replicas = [(key, r.nbytes, r.entries_applied, r.closed, r.on_disk)
                    for key, r in server.replicas.items()]
        state.append((
            server.server_id, server._next_version, server._bulk_loading,
            log.appended_bytes, log.head.segment_id, log._next_segment_id,
            segments, index, replicas, dict(server.backup_watermarks),
            server.node.disk.space.level))
    return state


def _load_both_ways(keys_per_round, value_size=1024, **config):
    """Load the same key lists (one list per round, routed as the
    preload routes) into two identical clusters: batched and per
    record.  Returns (batched, per_record, errors of each)."""
    clusters, errors = [], []
    for load in ("batched", "per_record"):
        cluster = build_cluster(num_servers=4, **config)
        table_id = cluster.create_table("t")
        route = cluster.coordinator.tablet_map.key_router(table_id)
        failed = []
        for keys in keys_per_round:
            keys_of = {}
            for key in keys:
                keys_of.setdefault(route(key), []).append(key)
            for server_id, own in keys_of.items():
                server = cluster.coordinator.lookup_server(server_id)
                try:
                    if load == "batched":
                        assert server.bulk_load(table_id, own,
                                                value_size) == len(own)
                    else:
                        _per_record_load(server, table_id, own, value_size)
                except (ValueError, LogOutOfMemory) as error:
                    failed.append((server_id, type(error), str(error)))
        clusters.append(cluster)
        errors.append(failed)
    return clusters, errors


class TestBulkLoad:
    @pytest.mark.parametrize("rf", [0, 1, 3])
    def test_batched_load_leaves_the_per_record_state(self, rf):
        """Two rounds (the second overwrites part of the first, so a
        replica is advanced from a non-empty applied prefix and old
        entries die) leave exactly what the per-record loop leaves."""
        first = [default_key(i) for i in range(6000)]
        second = [default_key(i) for i in range(4000, 9000)]
        (batched, per_record), errors = _load_both_ways(
            [first, second], replication_factor=rf)
        assert errors == [[], []]
        state = _loaded_state(batched)
        assert state == _loaded_state(per_record)
        assert sum(len(s.log.segments) for s in batched.servers) > 8
        if rf:
            assert any(r.closed for s in batched.servers
                       for r in s.replicas.values())

    def test_oversized_key_mid_segment_keeps_the_records_before_it(self):
        keys = [default_key(i) for i in range(500)]
        keys[300] = "x" * MB  # larger than a 1 MB segment with its header
        (batched, per_record), errors = _load_both_ways(
            [keys], replication_factor=2)
        assert errors[0] == errors[1]
        assert [error[1] for error in errors[0]] == [ValueError]
        assert _loaded_state(batched) == _loaded_state(per_record)
        failing = batched.coordinator.lookup_server(errors[0][0][0])
        before = sum(1 for key in keys[:300]
                     if failing.hashtable.lookup(1, key) is not None)
        assert before > 0
        assert len(failing.hashtable) == before
        assert failing._next_version == before + 1
        assert not failing.log.closed_segments()

    def test_full_log_at_a_roll_keeps_the_records_before_it(self):
        keys = [default_key(i) for i in range(20_000)]
        (batched, per_record), errors = _load_both_ways(
            [keys], replication_factor=1, log_memory_bytes=4 * MB)
        assert errors[0] == errors[1]
        assert {error[1] for error in errors[0]} == {LogOutOfMemory}
        assert _loaded_state(batched) == _loaded_state(per_record)
        for server in batched.servers:
            assert len(server.hashtable) == server._next_version - 1 > 0
            # The failed load materialized no replica state.
            assert not server.replicas

    def test_negative_size_loads_nothing(self, cluster3):
        table_id = cluster3.create_table("t")
        server = cluster3.servers[0]
        with pytest.raises(ValueError):
            server.bulk_load(table_id, ["user1", "user2"], -1)
        assert len(server.hashtable) == 0
        assert server._next_version == 1
        assert server.log.appended_bytes == 0
        assert not server._bulk_loading

    def test_bulk_load_matches_tablet_routing(self, cluster3):
        table_id = cluster3.create_table("t")
        counts = cluster3.preload(table_id, 300, 512)
        assert sum(counts.values()) == 300
        # Loaded objects must be readable through the normal path.
        rc = cluster3.clients[0]

        def script():
            yield from rc.refresh_map()
            _value, version, size = yield from rc.read(table_id, "user42")
            return version, size

        version, size = run_client_script(cluster3, script())
        assert version >= 1
        assert size == 512

    def test_bulk_load_materializes_replicas(self, cluster_rf2):
        table_id = cluster_rf2.create_table("t")
        cluster_rf2.preload(table_id, 2000, 1024)
        total_replicas = sum(len(s.replicas) for s in cluster_rf2.servers)
        total_segments = sum(len(s.log.segments)
                             for s in cluster_rf2.servers)
        assert total_replicas == 2 * total_segments

    def test_bulk_load_closed_segments_marked_on_disk(self, cluster_rf2):
        table_id = cluster_rf2.create_table("t")
        cluster_rf2.preload(table_id, 4000, 1024)
        closed_replicas = [r for s in cluster_rf2.servers
                           for r in s.replicas.values() if r.closed]
        assert closed_replicas
        assert all(r.on_disk for r in closed_replicas)

    def test_bulk_load_consumes_zero_simulated_time(self, cluster3):
        table_id = cluster3.create_table("t")
        before = cluster3.sim.now
        cluster3.preload(table_id, 1000, 1024)
        assert cluster3.sim.now == before

    @pytest.mark.parametrize("rf,indexed", [(0, False), (2, False),
                                            (2, True)])
    def test_preload_routes_like_the_client_map(self, rf, indexed):
        """Every preloaded record, index entries included, lands on the
        master the client's map routes it to, in load order, with that
        master's consecutive versions."""
        num_records, size = 6000, 1024
        cluster = build_cluster(num_servers=4, replication_factor=rf)
        table_id = cluster.create_table("t")
        if indexed:
            desc = cluster.create_index(
                table_id, "sec", uniform_boundaries(num_records, 2))
            cluster.preload_indexed(table_id, desc, num_records, size)
        else:
            cluster.preload(table_id, num_records, size)
        snapshot = cluster.coordinator.tablet_map.snapshot()
        snapshot.indexes = dict(cluster.coordinator.indexes)
        expected = {server.server_id: [] for server in cluster.servers}
        for i in range(num_records):
            key = default_key(i)
            expected[snapshot.route(table_id, key)[0]].append(
                (table_id, key))
            if indexed:
                entry_key = encode_entry_key(secondary_key(i), key)
                expected[snapshot.route(desc.index_id, entry_key)[0]].append(
                    (desc.index_id, entry_key))
        for server in cluster.servers:
            entries = [entry for seg in server.log.segments.values()
                       for entry in seg.entries]
            assert ([(e.table_id, e.key) for e in entries]
                    == expected[server.server_id])
            assert ([e.version for e in entries]
                    == list(range(1, len(entries) + 1)))
            assert server._next_version == len(entries) + 1

    @pytest.mark.parametrize("collecting", [True, False])
    def test_overflowing_preload_keeps_inserted_records(self, collecting):
        """A preload that fills a log raises LogOutOfMemory and leaves
        the collector as it found it, bulk-loading mode off, and the
        version counter one past the last record inserted."""
        cluster = build_cluster(num_servers=3, log_memory_bytes=4 * MB)
        table_id = cluster.create_table("t")
        was_enabled = gc.isenabled()
        if collecting:
            gc.enable()
        else:
            gc.disable()
        try:
            with pytest.raises(LogOutOfMemory):
                cluster.preload(table_id, 20_000, 1024)
            assert gc.isenabled() is collecting
        finally:
            if was_enabled:
                gc.enable()
            else:
                gc.disable()
        loaded = 0
        for server in cluster.servers:
            assert not server._bulk_loading
            versions = [entry.version
                        for seg in server.log.segments.values()
                        for entry in seg.entries]
            assert versions == list(range(1, len(versions) + 1))
            assert server._next_version == len(versions) + 1
            assert len(server.hashtable) == len(versions)
            loaded += len(versions)
        assert loaded > 0

