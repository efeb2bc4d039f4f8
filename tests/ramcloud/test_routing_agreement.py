"""Every site that routes a key agrees with the client's route.

A data table and its index are loaded on five masters and one master is
crashed, so recovery splits its tablet and its indexlet over the
survivors while the other tablets stay whole.  On that map the client's
``route`` is the reference; the master's ownership check,
migration and the recovery replay filter must each pick exactly the
keys it routes to them.  The preload, which routes by the prefix fold,
must place each key at its ``tablet_of`` owner.  A backup that splits a
crashed master's segment by recovery partition must hand each recovery
master exactly what that master's own filter over the whole segment
kept.
"""

import copy

import pytest

from repro.ramcloud.consistency import ASYNC_BOUNDED
from repro.ramcloud.errors import ObjectDoesntExist, RetryLater, WrongServer
from repro.ramcloud.indexing import (
    encode_entry_key,
    secondary_key,
    uniform_boundaries,
)
from repro.ramcloud.segment import LogEntry, Segment
from repro.ramcloud.server import RamCloudServer, SegmentReplica
from repro.ramcloud.tablets import key_hash, shard_of, tablet_of
from repro.ycsb.keyspace import format_key

from tests.ramcloud.conftest import build_cluster, run_client_script

RECORDS = 600


def _snapshot(cluster):
    """The client's view of the map, as the coordinator hands it out."""
    coord = cluster.coordinator
    snap = coord.tablet_map.snapshot()
    snap.indexes = dict(coord.indexes)
    return snap


def _keys_of(server, table_id):
    return set(server.hashtable.keys_for_table(table_id))


def _recovered_cluster():
    """A data table and its index on five masters, after server0's crash
    is recovered: (cluster, {table_id: keys}, {table_id: lost keys})."""
    cluster = build_cluster(num_servers=5, replication_factor=2,
                            failure_detection=True, seed=3)
    table_id = cluster.create_table("t")
    desc = cluster.create_index(table_id, "sec",
                                uniform_boundaries(RECORDS, 5))
    cluster.preload_indexed(table_id, desc, RECORDS, 256)
    keys = {
        table_id: [f"user{i}" for i in range(RECORDS)],
        desc.index_id: [encode_entry_key(secondary_key(i), f"user{i}")
                        for i in range(RECORDS)],
    }
    cluster.run(until=1.0)
    victim = cluster.kill_server(0)
    lost = {tid: _keys_of(victim, tid) for tid in keys}
    cluster.run(until=60.0)
    assert cluster.coordinator.recoveries[0].finished_at is not None
    return cluster, keys, lost


@pytest.fixture(scope="module")
def recovered():
    return _recovered_cluster()


def _live(cluster):
    return [s for s in cluster.servers if not s.killed]


def _shard_counts(cluster, table_id):
    return {t.shard_count for t in cluster.coordinator.tablet_map.all_tablets()
            if t.table_id == table_id}


def test_map_has_split_and_unsplit_tablets_of_both_kinds(recovered):
    cluster, keys, lost = recovered
    for table_id in keys:
        counts = _shard_counts(cluster, table_id)
        assert 1 in counts and max(counts) > 1, (table_id, counts)
        assert lost[table_id]


def test_ownership_check_accepts_exactly_at_the_routed_owner(recovered):
    cluster, keys, _lost = recovered
    snap = _snapshot(cluster)
    for table_id, table_keys in keys.items():
        span = snap.tables_by_id[table_id].span
        for key in table_keys:
            owner = snap.route(table_id, key)[0]
            for server in _live(cluster):
                try:
                    server._check_ownership(table_id, key, key_hash(key),
                                            span)
                    accepted = True
                except (WrongServer, RetryLater):
                    accepted = False
                assert accepted == (server.server_id == owner), (
                    table_id, key, server.server_id, owner)


@pytest.mark.parametrize("span", [None, 7], ids=["span=servers", "span=7"])
def test_preload_places_each_key_at_its_tablet_owner(span):
    """The preload routes by the prefix fold, not by ``tablet_of``
    per key; every key must still sit on its tablet's owner only."""
    cluster = build_cluster(num_servers=5, seed=3)
    table_id = cluster.create_table("t", span=span)
    num_records = 5000
    cluster.preload(table_id, num_records, 256)
    tablet_map = cluster.coordinator.tablet_map
    span = tablet_map.table_by_id(table_id).span
    for i in range(num_records):
        key = format_key(i)
        index, _h = tablet_of(key, span)
        owner = tablet_map._tablets[(table_id, index)].server_id
        holders = [s.server_id for s in cluster.servers
                   if s.hashtable.lookup(table_id, key) is not None]
        assert holders == [owner], key


def test_recovery_replays_each_lost_key_at_its_routed_owner_only(recovered):
    cluster, _keys, lost = recovered
    snap = _snapshot(cluster)
    live = _live(cluster)
    for table_id, table_keys in lost.items():
        for key in table_keys:
            holders = [s.server_id for s in live
                       if s.hashtable.lookup(table_id, key) is not None]
            assert holders == [snap.route(table_id, key)[0]], (
                table_id, key)


def _migrate(cluster, unit, target):
    """Move ``unit`` to ``target`` the way the coordinator's drain does,
    and check that it moved exactly the source's keys the client's map
    then routes to ``target``."""
    coord = cluster.coordinator
    table_id, index, shard = unit
    tablet = coord.tablet_map._tablets[(table_id, index)]
    source = coord.lookup_server(tablet.shards[shard])
    before = _keys_of(source, table_id)
    span = coord.tablet_map.table_by_id(table_id).span

    def orchestrate():
        yield from source.migrate_shard_out(unit, tablet.shard_count, span,
                                            target)
        coord.tablet_map.reassign_shard(tablet.tablet_id, shard,
                                        target.server_id)

    run_client_script(cluster, orchestrate(), until=cluster.sim.now + 60.0)
    moved = before - _keys_of(source, table_id)
    snap = _snapshot(cluster)
    assert moved
    assert moved == {k for k in before
                     if snap.route(table_id, k)[0] == target.server_id}
    assert before - moved == {
        k for k in before
        if snap.route(table_id, k)[0] == source.server_id}
    assert moved <= _keys_of(target, table_id)


@pytest.mark.parametrize("kind", ["data", "index"])
@pytest.mark.parametrize("split", [False, True], ids=["unsplit", "split"])
def test_migration_moves_exactly_the_units_keys(kind, split):
    cluster, keys, _lost = _recovered_cluster()
    table_id, index_id = keys
    routed = table_id if kind == "data" else index_id
    tablet = next(t for t in cluster.coordinator.tablet_map.all_tablets()
                  if t.table_id == routed and (t.shard_count > 1) == split)
    lookup = cluster.coordinator.lookup_server
    if split:
        # Gather shard 1 onto shard 0's owner first, so the source of
        # the move below holds keys of two shards of one tablet.
        _migrate(cluster, (routed, tablet.index, 1),
                 lookup(tablet.shards[0]))
    source_id = tablet.shards[0]
    target = next(s for s in _live(cluster) if s.server_id != source_id)
    _migrate(cluster, (routed, tablet.index, 0), target)


# -- the backup's recovery partitioning ---------------------------------------

def _whole_segment(replica):
    """What a backup used to send every recovery master: the applied
    prefix, a truncated overwrite's predecessor revived as a live copy."""
    entries = list(replica.segment.entries[:replica.entries_applied])
    truncated = {(e.table_id, e.key)
                 for e in replica.segment.entries[replica.entries_applied:]}
    for i in range(len(entries) - 1, -1, -1):
        entry = entries[i]
        ident = (entry.table_id, entry.key)
        if ident not in truncated:
            continue
        truncated.discard(ident)
        if not entry.live and not entry.is_tombstone:
            entries[i] = copy.copy(entry)
            entries[i].live = True
    return entries


def _master_filter(master, entries, units, spans):
    """The recovery master's filter before the backup partitioned: every
    live entry routed, the ones of its own units kept."""
    unit_filter = {}
    for table_id, index, shard, shard_count in units:
        unit_filter.setdefault((table_id, index),
                               (shard_count, set()))[1].add(shard)
    kept = []
    for entry in entries:
        if not entry.live:
            continue
        span = spans[entry.table_id]
        index, h = tablet_of(entry.key, span,
                             master.index_configs.get(entry.table_id))
        if (entry.table_id, index) not in unit_filter:
            continue
        shard_count, shards = unit_filter[(entry.table_id, index)]
        if shard_of(h, span, shard_count) in shards:
            kept.append(entry)
    return kept


def _record(entry):
    return (entry.table_id, entry.key, entry.version, entry.value_size,
            entry.value, entry.index_keys, entry.is_tombstone, entry.live)


def _spy_recovery_reads(monkeypatch, cluster, fail_first=False):
    """Check every recovery read as it is answered; returns the list of
    ``(backup_id, master_id, segment_id, units, served)`` it fills.
    With ``fail_first`` the first read is refused, so its master falls
    back to another holder of the segment."""
    served = []
    refused = []
    real = RamCloudServer._HANDLERS["recovery_read"]
    by_node = {server.node: server for server in cluster.servers}

    def spy(backup, request):
        crashed_id, segment_id, _share, units, spans = request.args[:5]
        master = by_node[request.src]
        if fail_first and not refused:
            refused.append((backup.server_id, master.server_id, segment_id))
            request.fail(ObjectDoesntExist("refused by the test"))
            return
        yield from real(backup, request)
        entries, _bytes = request.reply.value
        replica = backup.replicas[(crashed_id, segment_id)]
        expected = _master_filter(master, _whole_segment(replica), units,
                                  spans)
        got = [entry for entry in entries if entry.live]
        assert [_record(e) for e in got] == [_record(e) for e in expected], (
            backup.server_id, master.server_id, segment_id, units)
        served.append((backup.server_id, master.server_id, segment_id,
                       tuple(units), list(entries)))

    monkeypatch.setitem(RamCloudServer._HANDLERS, "recovery_read", spy)
    return served, refused


def test_backup_serves_each_master_what_its_own_filter_kept(monkeypatch):
    """Three units of the crashed master (two data tablets and an
    indexlet) split over four survivors, so two masters recover two
    units each; overwrites leave dead entries in the segments, and the
    first read is refused so its master reads a second holder."""
    cluster = build_cluster(num_servers=5, replication_factor=2,
                            failure_detection=True, seed=3)
    table_id = cluster.create_table("t", span=10)
    desc = cluster.create_index(table_id, "sec",
                                uniform_boundaries(RECORDS, 5))
    cluster.preload_indexed(table_id, desc, RECORDS, 256)
    rc = cluster.clients[0]

    def overwrite():
        yield from rc.refresh_map()
        for i in range(0, RECORDS, 7):
            yield from rc.write(table_id, format_key(i), 256,
                                index_entries=((desc.index_id,
                                                secondary_key(i)),))

    run_client_script(cluster, overwrite())
    served, refused = _spy_recovery_reads(monkeypatch, cluster,
                                          fail_first=True)
    cluster.kill_server(0)
    cluster.run(until=cluster.sim.now + 60.0)
    assert cluster.coordinator.recoveries[0].finished_at is not None

    assert any(len(units) > 1 for _b, _m, _s, units, _e in served)
    assert any(unit[0] == desc.index_id
               for _b, _m, _s, units, _e in served for unit in units)
    assert any(not entry.live
               for _b, _m, _s, _u, entries in served for entry in entries)
    backup_id, master_id, segment_id = refused[0]
    assert any(b != backup_id and m == master_id and s == segment_id
               for b, m, s, _u, _e in served)
    # Every recovery master read every segment once.
    reads = {(m, s) for _b, m, s, _u, _e in served}
    assert len(reads) == len(served)


def test_backup_serves_the_revived_predecessor_of_a_truncated_overwrite(
        monkeypatch):
    """The truncated-overwrite case of ``test_consistency.py``: the
    backup's bucket holds a live copy of the durable predecessor."""
    cluster = build_cluster(num_servers=3, num_clients=1,
                            replication_factor=1, failure_detection=True,
                            staleness_bound_seconds=30.0)
    table_id = cluster.create_table("t", span=1)
    rc = cluster.clients[0]

    def write_twice():
        yield from rc.refresh_map()
        durable = yield from rc.write(table_id, "k", 128, value=b"durable")
        yield from rc.write(table_id, "k", 128, value=b"acked",
                            level=ASYNC_BOUNDED)
        return durable

    durable = run_client_script(cluster, write_twice())
    master = next(s for s in cluster.servers if len(s.hashtable))
    served, _refused = _spy_recovery_reads(monkeypatch, cluster)
    cluster.kill_server(cluster.servers.index(master))
    cluster.run(until=cluster.sim.now + 60.0)
    assert cluster.coordinator.recoveries[0].finished_at is not None

    revived = [entry for _b, _m, _s, _u, entries in served
               for entry in entries if entry.key == "k"]
    assert [(e.version, e.value, e.live) for e in revived] == [
        (durable, b"durable", True)]
    assert all(e not in master.log.head.entries for e in revived)


def test_replica_partitions_again_when_its_prefix_or_plan_changes():
    """The buckets are cached on the replica: a longer applied prefix,
    or another plan's shard counts, must not be served from them."""
    segment = Segment(0, 1 << 20)
    replica = SegmentReplica("m", segment)
    keys = [format_key(i) for i in range(400)]
    for i, key in enumerate(keys):
        entry = LogEntry(1, key, 8, i + 1)
        segment.append(entry, entry.log_bytes)
    spans = {1: 3}
    units = [(1, 0, 0, 2), (1, 2, 1, 2)]
    master = type("Master", (), {"index_configs": {}})()

    def expected():
        return _master_filter(master, _whole_segment(replica), units, spans)

    replica.entries_applied = 150
    assert replica.recovery_entries(units, spans, None, {(1, 0): 2, (1, 2): 2}
                                    ) == expected()
    replica.entries_applied = 400
    assert replica.recovery_entries(units, spans, None, {(1, 0): 2, (1, 2): 2}
                                    ) == expected()
    wider = [(1, 0, 0, 3), (1, 2, 1, 3)]
    assert replica.recovery_entries(wider, spans, None, {(1, 0): 3, (1, 2): 3}
                                    ) == _master_filter(
        master, _whole_segment(replica), wider, spans)
