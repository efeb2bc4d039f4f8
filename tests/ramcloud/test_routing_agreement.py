"""Every site that routes a key agrees with the client's route.

A data table and its index are loaded on five masters and one master is
crashed, so recovery splits its tablet and its indexlet over the
survivors while the other tablets stay whole.  On that map the client's
``owner_for_key`` is the reference; the master's ownership check,
migration and the recovery replay filter must each pick exactly the
keys it routes to them.  The preload, which routes by the prefix fold,
must place each key at its ``tablet_of`` owner.
"""

import pytest

from repro.ramcloud.errors import RetryLater, WrongServer
from repro.ramcloud.indexing import (
    encode_entry_key,
    secondary_key,
    uniform_boundaries,
)
from repro.ramcloud.tablets import tablet_of
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
            owner = snap.owner_for_key(table_id, key)
            for server in _live(cluster):
                try:
                    server._check_ownership(table_id, key, span)
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
            assert holders == [snap.owner_for_key(table_id, key)], (
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
                     if snap.owner_for_key(table_id, k) == target.server_id}
    assert before - moved == {
        k for k in before
        if snap.owner_for_key(table_id, k) == source.server_id}
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
