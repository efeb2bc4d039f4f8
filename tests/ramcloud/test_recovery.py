"""System tests for crash detection and recovery (paper §VII)."""

import pytest

from repro.ramcloud.tablets import TabletStatus, key_hash

from tests.ramcloud.conftest import build_cluster, run_client_script


def crash_cluster(replication_factor=2, num_servers=5, num_clients=1,
                  records=3000, record_size=1024, seed=1):
    cluster = build_cluster(num_servers=num_servers, num_clients=num_clients,
                            replication_factor=replication_factor,
                            failure_detection=True, seed=seed)
    table_id = cluster.create_table("t")
    cluster.preload(table_id, records, record_size)
    return cluster, table_id


class TestDetection:
    def test_coordinator_detects_killed_server(self):
        cluster, _tid = crash_cluster()
        cluster.run(until=2.0)
        cluster.kill_server(0)
        cluster.run(until=10.0)
        assert cluster.coordinator.recoveries
        stats = cluster.coordinator.recoveries[0]
        assert stats.crashed_id == "server0"
        assert stats.detected_at >= 2.0

    def test_transient_timeout_not_treated_as_crash(self):
        """Detection verifies the process is really dead (the paper:
        the coordinator 'will check whether that server truly crashed')."""
        cluster, _tid = crash_cluster()
        cluster.run(until=5.0)
        assert not cluster.coordinator.recoveries
        assert all(cluster.coordinator.is_live(s.server_id)
                   for s in cluster.servers)

    def test_no_recovery_without_failure_detection(self):
        cluster = build_cluster(num_servers=3, replication_factor=1,
                                failure_detection=False)
        tid = cluster.create_table("t")
        cluster.preload(tid, 500, 1024)
        cluster.kill_server(0)
        cluster.run(until=5.0)
        assert not cluster.coordinator.recoveries


class TestRecoveryCorrectness:
    def test_all_data_recovered(self):
        cluster, table_id = crash_cluster(records=2000)
        cluster.run(until=2.0)
        victim = cluster.kill_server(0)
        victim_keys = list(victim.hashtable.keys_for_table(table_id))
        cluster.run(until=60.0)
        stats = cluster.coordinator.recoveries[0]
        assert stats.finished_at is not None
        # Every key the victim held is indexed on some survivor.
        survivors = [s for s in cluster.servers if s is not victim]
        for key in victim_keys:
            assert any(s.hashtable.lookup(table_id, key) is not None
                       for s in survivors), key

    def test_recovered_data_readable_by_clients(self):
        cluster, table_id = crash_cluster(records=2000)
        cluster.run(until=2.0)
        victim = cluster.kill_server(0)
        victim_keys = list(victim.hashtable.keys_for_table(table_id))[:20]
        cluster.run(until=60.0)
        rc = cluster.clients[0]

        def script():
            yield from rc.refresh_map()
            results = []
            for key in victim_keys:
                _v, version, size = yield from rc.read(table_id, key)
                results.append((version, size))
            return results

        results = run_client_script(cluster, script(), until=120.0)
        assert len(results) == 20
        assert all(size == 1024 for _v, size in results)

    def test_versions_preserved_through_recovery(self):
        cluster, table_id = crash_cluster(records=1000)
        cluster.run(until=2.0)
        victim = cluster.kill_server(0)
        sample = list(victim.hashtable.keys_for_table(table_id))[:10]
        before = {}
        for key in sample:
            before[key] = victim.hashtable.lookup(table_id, key).version
        cluster.run(until=60.0)
        survivors = [s for s in cluster.servers if s is not victim]
        for key, version in before.items():
            found = [(s, s.hashtable.lookup(table_id, key))
                     for s in survivors]
            found = [(s, entry) for s, entry in found if entry is not None]
            assert len(found) == 1
            owner, entry = found[0]
            assert entry.version == version
            # Replay placed a new entry in the recovery master's log,
            # and the entry names the segment that holds it.
            segment = owner.log.segments[entry.segment_id]
            assert entry in segment.entries

    def test_tablet_map_reassigned_after_recovery(self):
        cluster, table_id = crash_cluster()
        cluster.run(until=2.0)
        victim = cluster.kill_server(0)
        cluster.run(until=60.0)
        for tablet in cluster.coordinator.tablet_map.all_tablets():
            assert victim.server_id not in tablet.shards
            assert tablet.status == TabletStatus.NORMAL

    def test_will_splits_over_survivors(self):
        """One tablet per server, so the will must split it into
        subshards: 'as many machines performing the crash-recovery as
        possible' (§II-B)."""
        cluster, _tid = crash_cluster(num_servers=5)
        cluster.run(until=2.0)
        cluster.kill_server(0)
        cluster.run(until=60.0)
        stats = cluster.coordinator.recoveries[0]
        assert stats.partitions >= 4
        assert len(stats.recovery_masters) == 4

    def test_old_replicas_freed_after_recovery(self):
        cluster, _tid = crash_cluster()
        cluster.run(until=2.0)
        victim = cluster.kill_server(0)
        cluster.run(until=60.0)
        for server in cluster.servers:
            if server is victim:
                continue
            assert not any(master_id == victim.server_id
                           for (master_id, _sid) in server.replicas)

    def test_recovery_rereplicates_to_new_backups(self):
        cluster, _tid = crash_cluster(replication_factor=2)
        cluster.run(until=2.0)
        victim = cluster.kill_server(0)
        cluster.run(until=60.0)
        survivors = [s for s in cluster.servers if s is not victim]
        replayed = sum(s.recovery_bytes_replayed for s in survivors)
        assert replayed > 0
        # Re-replication hit the survivors' disks (Fig. 12's write burst).
        assert any(s.node.disk.bytes_written > 0 for s in survivors)


class TestAvailability:
    def test_lost_data_unavailable_until_recovered(self):
        """Fig. 10: a client requesting lost data blocks for the whole
        recovery."""
        cluster, table_id = crash_cluster(records=2000)
        cluster.run(until=2.0)
        victim = cluster.kill_server(0)
        victim_key = next(iter(victim.hashtable.keys_for_table(table_id)))
        rc = cluster.clients[0]
        timeline = {}

        def script():
            yield from rc.refresh_map()
            timeline["issued"] = cluster.sim.now
            yield from rc.read(table_id, victim_key)
            timeline["served"] = cluster.sim.now

        run_client_script(cluster, script(), until=120.0)
        stats = cluster.coordinator.recoveries[0]
        blocked = timeline["served"] - timeline["issued"]
        assert blocked > 0.5  # blocked at least through detection+replay
        assert timeline["served"] >= stats.finished_at - 0.2

    def test_live_data_stays_available_during_recovery(self):
        cluster, table_id = crash_cluster(records=2000)
        cluster.run(until=2.0)
        victim = cluster.kill_server(0)
        live_key = None
        for i in range(5000):
            key = f"user{i}"
            owner_index = key_hash(key) % 5
            if cluster.servers[owner_index] is not victim and i < 2000:
                live_key = key
                break
        assert live_key is not None
        rc = cluster.clients[0]

        def script():
            yield from rc.refresh_map()
            # Read while the recovery is still running.
            yield cluster.sim.timeout(1.5)
            start = cluster.sim.now
            yield from rc.read(table_id, live_key)
            return cluster.sim.now - start

        latency = run_client_script(cluster, script(), until=120.0)
        assert latency < 0.05  # milliseconds, not the recovery duration


class TestRecoveryScaling:
    def test_recovery_time_grows_with_replication_factor(self):
        """Finding 6: increasing RF increases recovery time."""
        durations = {}
        for rf in (1, 3):
            cluster, _tid = crash_cluster(replication_factor=rf,
                                          records=4000, seed=7)
            cluster.run(until=2.0)
            cluster.kill_server(0)
            cluster.run(until=120.0)
            stats = cluster.coordinator.recoveries[0]
            assert stats.finished_at is not None
            durations[rf] = stats.duration
        assert durations[3] > durations[1]

    def test_recovery_stats_accounting(self):
        cluster, _tid = crash_cluster(records=3000)
        cluster.run(until=2.0)
        victim = cluster.kill_server(0)
        expected_segments = len(victim.log.segments)
        cluster.run(until=60.0)
        stats = cluster.coordinator.recoveries[0]
        assert stats.segments == expected_segments
        assert stats.bytes_to_recover > 0
        assert stats.unavailability >= stats.duration
