"""System tests for the epoch-stamped server list, zombie fencing and
the durability-repair bookkeeping (ISSUE 4's membership subsystem).

The coordinator is the single source of membership truth: every change
bumps ``membership_version`` and pushes ``(version, live, dead)`` to
all live servers; clients carry the version of the tablet map they
cached so masters can reject routes that predate an ownership change;
backups reject replication from masters their view marks dead, which
is what fences a zombie.
"""

import pytest

from repro.faults import FaultEntry, FaultSchedule, HealAll, PartitionGroups
from repro.ramcloud.consistency import ASYNC_BOUNDED, SYNC_RF
from repro.ramcloud.errors import StaleEpoch, WrongServer
from repro.ramcloud.tablets import key_hash

from tests.ramcloud.conftest import build_cluster, run_client_script


def key_owned_by_server0(span):
    return next(f"user{i}" for i in range(100)
                if key_hash(f"user{i}") % span == 0)


class TestServerListDissemination:
    def test_enlist_installs_current_view_everywhere(self):
        cluster = build_cluster(num_servers=3)
        coordinator = cluster.coordinator
        # One version bump per enlistment, and every server holds the
        # final view.
        assert coordinator.membership_version == 3
        for server in cluster.servers:
            assert server.server_list_version == 3
            assert set(server.live_view) == {"server0", "server1",
                                             "server2"}
            assert server.dead_view == frozenset()

    def test_apply_server_list_is_monotonic(self):
        cluster = build_cluster(num_servers=3)
        server = cluster.servers[0]
        version = server.server_list_version
        live = server.live_view
        # Stale and duplicate updates are ignored — even one that would
        # otherwise fence the server.
        server.apply_server_list(version - 1, ("server9",), ("server0",))
        server.apply_server_list(version, ("server9",), ("server0",))
        assert server.server_list_version == version
        assert server.live_view == live
        assert not server.fenced

    def test_death_bumps_epoch_and_reaches_survivors(self):
        cluster = build_cluster(num_servers=3, failure_detection=True)
        before = cluster.coordinator.membership_version
        cluster.servers[2].kill()
        cluster.run(until=8.0)
        coordinator = cluster.coordinator
        assert coordinator.membership_version > before
        for server in cluster.servers[:2]:
            assert server.server_list_version == \
                coordinator.membership_version
            assert "server2" in server.dead_view
            assert "server2" not in server.live_view

    def test_ping_pong_repushes_missed_updates(self):
        # server0 is partitioned from the coordinator while server2's
        # death is declared: the dissemination push to it is lost.  The
        # partition is shorter than the detection window (one missed
        # ping), so server0 is never suspected — and the next pong
        # piggybacks its stale version, making the coordinator re-push.
        cluster = build_cluster(num_servers=4, failure_detection=True)
        cluster.servers[2].kill()
        cluster.inject_faults(FaultSchedule((
            FaultEntry(at=0.6, action=PartitionGroups(("coord",),
                                                      ("server0",))),
            FaultEntry(at=1.3, action=HealAll()),
        )))
        cluster.run(until=4.0)
        coordinator = cluster.coordinator
        assert not coordinator.is_live("server2")
        assert coordinator.is_live("server0")  # blip stayed sub-window
        server0 = cluster.servers[0]
        assert server0.server_list_version == coordinator.membership_version
        assert "server2" in server0.dead_view


class TestFencing:
    def test_view_marking_self_dead_fences(self):
        cluster = build_cluster(num_servers=3)
        server = cluster.servers[0]
        version = server.server_list_version
        server.apply_server_list(version + 1, ("server1", "server2"),
                                 ("server0",))
        assert server.fenced
        assert server.fenced_at == cluster.sim.now
        assert server.writes_completed_at_fence == server.writes_completed

    def test_fenced_master_rejects_data_rpcs(self):
        cluster = build_cluster(num_servers=3, num_clients=1)
        table_id = cluster.create_table("t")
        rc = cluster.clients[0]
        span = 3
        key = key_owned_by_server0(span)

        def setup():
            yield from rc.refresh_map()
            yield from rc.write(table_id, key, 64)

        run_client_script(cluster, setup())
        master = cluster.servers[0]
        master._fence()

        def probe():
            try:
                yield from master.call(rc.node, "read",
                                       args=(table_id, key, key_hash(key),
                                             span, None),
                                       size_bytes=64, response_bytes=64,
                                       timeout=5.0)
            except WrongServer:
                return "wrong-server"
            return "served"

        # A fenced zombie routes clients away instead of serving stale
        # data it no longer owns.
        assert run_client_script(cluster, probe()) == "wrong-server"

    @pytest.mark.parametrize("level", [SYNC_RF, ASYNC_BOUNDED])
    def test_backup_rejects_replication_from_dead_master_and_fences_it(
            self, level):
        """Both callers of the one replication fan-out — the write path
        (SYNC_RF) and the background flusher (ASYNC_BOUNDED) — fence the
        master on a backup's StaleEpoch, and nothing lands."""
        cluster = build_cluster(num_servers=3, num_clients=1,
                                replication_factor=1)
        table_id = cluster.create_table("t")
        rc = cluster.clients[0]
        span = 3
        key = key_owned_by_server0(span)
        master = cluster.servers[0]

        def setup():
            yield from rc.refresh_map()
            yield from rc.write(table_id, key, 64)

        run_client_script(cluster, setup())
        backup_id = master.log.head.replica_backups[0]
        backup = cluster.coordinator.lookup_server(backup_id)
        # The backup's view now marks the master dead (as after an
        # eviction push); the master itself never heard.
        version = backup.server_list_version
        live = tuple(s for s in backup.live_view if s != "server0")
        backup.apply_server_list(version + 1, live, ("server0",))
        replica = backup.replicas[(master.server_id,
                                   master.log.head.segment_id)]
        landed_before = (replica.nbytes, replica.entries_applied)

        def stale_write():
            try:
                yield from master.call(
                    rc.node, "write",
                    args=(table_id, key, key_hash(key), 64, b"zombie", span,
                          None, None, level, None),
                    size_bytes=128, response_bytes=64, timeout=5.0)
            except StaleEpoch:
                return "rejected"
            return "acked"

        writes_before = master.writes_completed
        outcome = run_client_script(cluster, stale_write())
        cluster.run(until=cluster.sim.now + 1.0)  # let the flusher ship
        # SYNC_RF never acknowledges the write.  ASYNC_BOUNDED acks
        # before replicating (the durability gap it is honest about);
        # its flusher then meets the same rejection.
        acked = level != SYNC_RF
        assert outcome == ("acked" if acked else "rejected")
        assert master.writes_completed == writes_before + acked
        # The replication rejection fenced the master, and the zombie's
        # bytes never reached the backup.
        assert master.fenced
        assert (replica.nbytes, replica.entries_applied) == landed_before

    def test_stale_client_epoch_rejected(self):
        cluster = build_cluster(num_servers=3, num_clients=1)
        table_id = cluster.create_table("t")
        rc = cluster.clients[0]
        span = 3
        key = key_owned_by_server0(span)

        def setup():
            yield from rc.refresh_map()
            yield from rc.write(table_id, key, 64)

        run_client_script(cluster, setup())
        master = cluster.servers[0]
        master.min_client_epoch = master.server_list_version + 5

        def probe(epoch):
            try:
                result = yield from master.call(
                    rc.node, "read",
                    args=(table_id, key, key_hash(key), span, epoch),
                    size_bytes=64, response_bytes=64, timeout=5.0)
            except StaleEpoch:
                return "stale"
            return result

        stale_epoch = master.min_client_epoch - 1
        assert run_client_script(cluster, probe(stale_epoch)) == "stale"
        value, version, _size = run_client_script(
            cluster, probe(master.min_client_epoch))
        assert version == 1


class TestRepairBookkeeping:
    def test_record_lost_replica_dedupes(self):
        cluster = build_cluster(num_servers=3, num_clients=1,
                                replication_factor=1)
        table_id = cluster.create_table("t")
        rc = cluster.clients[0]

        def setup():
            yield from rc.refresh_map()
            yield from rc.write(table_id, key_owned_by_server0(3), 64)

        run_client_script(cluster, setup())
        master = cluster.servers[0]
        segment = master.log.head
        master._record_lost_replica(segment, 0)
        master._record_lost_replica(segment, 0)
        assert master.replicas_lost == 1
        assert master.under_replicated == {(segment.segment_id, 0)}

    def test_backup_loss_via_server_list_triggers_repair(self):
        # The pure server-side path: no failure detector, the master
        # just receives a server list marking its backup dead, records
        # the hole and re-replicates to a fresh backup.
        cluster = build_cluster(num_servers=4, num_clients=1,
                                replication_factor=1)
        table_id = cluster.create_table("t")
        rc = cluster.clients[0]
        span = 4
        key = key_owned_by_server0(span)
        master = cluster.servers[0]

        def setup():
            yield from rc.refresh_map()
            yield from rc.write(table_id, key, 64)

        run_client_script(cluster, setup())
        dead_backup = master.log.head.replica_backups[0]
        version = master.server_list_version
        live = tuple(s for s in master.live_view if s != dead_backup)
        master.apply_server_list(version + 1, live, (dead_backup,))
        assert master.under_replicated  # hole recorded immediately
        cluster.run(until=cluster.sim.now + 5.0)
        assert not master.under_replicated
        assert master.segments_repaired >= 1
        new_backup = master.log.head.replica_backups[0]
        assert new_backup != dead_backup
        assert new_backup in live
