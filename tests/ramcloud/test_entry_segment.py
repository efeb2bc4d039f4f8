"""The hash table points straight at a log entry, and the entry names
the segment that holds it.

``HashTable.lookup`` returns the entry; ``entry.segment_id`` is set once,
where the entry is placed.  These tests check that the id still names
the holding segment after each way an entry gets placed on a master (an
append, an overwrite, a cleaner relocation, a recovery replay), and that
the EVENTUAL backup read's "do I hold a replica of this object's
segment" check, the one reader of that id, answers per segment.
"""

import pytest

from repro.hardware.specs import KB, MB
from repro.ramcloud.errors import BackupBehind
from tests.ramcloud.conftest import build_cluster, run_client_script
from tests.ramcloud.test_recovery import crash_cluster


def assert_entries_name_their_segments(server, table_id):
    """Every indexed entry is live and sits in the segment it names."""
    keys = list(server.hashtable.keys_for_table(table_id))
    for key in keys:
        entry = server.hashtable.lookup(table_id, key)
        assert entry.live, key
        segment = server.log.segments[entry.segment_id]
        assert any(e is entry for e in segment.entries), key
    return len(keys)


def write_all(cluster, table_id, writes, value=None):
    rc = cluster.clients[0]

    def script():
        yield from rc.refresh_map()
        for key, size in writes:
            yield from rc.write(table_id, key, size, value=value)

    run_client_script(cluster, script(), until=600.0)


def test_append_and_overwrite_name_the_new_segment():
    cluster = build_cluster(num_servers=1, num_clients=1)
    table_id = cluster.create_table("t", span=1)
    server = cluster.servers[0]
    write_all(cluster, table_id, [("k", 100 * KB)])
    first = server.hashtable.lookup(table_id, "k")
    assert first.segment_id == server.log.head.segment_id
    # Roll the head past the first segment, then overwrite "k".
    write_all(cluster, table_id,
              [(f"fill{i}", 100 * KB) for i in range(12)] + [("k", 1 * KB)])
    second = server.hashtable.lookup(table_id, "k")
    assert second is not first and not first.live
    assert second.segment_id == server.log.head.segment_id
    assert second.segment_id != first.segment_id
    # The dead entry stays in the segment it named.
    assert any(e is first
               for e in server.log.segments[first.segment_id].entries)
    assert assert_entries_name_their_segments(server, table_id) == 13


def test_cleaner_relocation_names_the_survivor_segment():
    cluster = build_cluster(num_servers=1, num_clients=1)
    table_id = cluster.create_table("t", span=1)
    server = cluster.servers[0]
    # Segment 0 gets k0..k9; overwriting k0..k4 kills half of it, and
    # the fill closes it, so it is the cleaner's best candidate.
    write_all(cluster, table_id,
              [(f"k{i}", 100 * KB) for i in range(10)]
              + [(f"k{i}", 100 * KB) for i in range(5)]
              + [(f"fill{i}", 100 * KB) for i in range(10)])
    victim = server.log.cleanable_segments()[0]
    survivors = {e.key: e for e in victim.live_entries()}
    assert survivors
    proc = cluster.sim.process(server._clean_one_segment())
    assert cluster.sim.run_process(proc, until=cluster.sim.now + 10.0)
    assert victim.segment_id not in server.log.segments
    for key, old in survivors.items():
        moved = server.hashtable.lookup(table_id, key)
        assert moved is not old and not old.live
        assert moved.version == old.version
        assert moved.segment_id != victim.segment_id
    assert assert_entries_name_their_segments(server, table_id) == 20


def test_recovery_replay_names_the_recovery_masters_segments():
    # ≈ 1.2 MB per master: every head has rolled past segment 0 before
    # the crash, so replayed entries land in a later segment.
    cluster, table_id = crash_cluster(records=6000)
    assert all(s.log.head.segment_id > 0 for s in cluster.servers)
    cluster.run(until=2.0)
    victim = cluster.kill_server(0)
    lost = set(victim.hashtable.keys_for_table(table_id))
    cluster.run(until=60.0)
    assert cluster.coordinator.recoveries[0].finished_at is not None
    recovered = set()
    for server in cluster.servers:
        if server is victim:
            continue
        assert_entries_name_their_segments(server, table_id)
        recovered |= lost & set(server.hashtable.keys_for_table(table_id))
    assert recovered == lost


def _backup_read(cluster, backup, master, table_id, key):
    rc = cluster.clients[0]

    def script():
        return (yield from backup.call(
            rc.node, "backup_read",
            args=(master.server_id, table_id, key, 1, 0),
            timeout=1.0))

    return run_client_script(cluster, script())


def test_eventual_backup_read_checks_the_objects_segment():
    """A backup that holds replicas of the master's other segments, but
    not of the one holding the object, answers BackupBehind; a backup
    that holds it serves the read."""
    # Seed 3 spreads the four segments' single replicas over all three
    # backups (the search below would notice if it did not).
    cluster = build_cluster(num_servers=4, num_clients=1,
                            replication_factor=1, seed=3,
                            segment_size=64 * KB, log_memory_bytes=4 * MB)
    table_id = cluster.create_table("t", span=1)
    write_all(cluster, table_id, [(f"k{i}", 20 * KB) for i in range(12)],
              value=b"payload")
    master = next(s for s in cluster.servers if len(s.hashtable))
    case = None
    for key in master.hashtable.keys_for_table(table_id):
        entry = master.hashtable.lookup(table_id, key)
        for other in cluster.servers:
            held = {seg for (owner, seg) in other.replicas
                    if owner == master.server_id}
            if (held and entry.segment_id not in held
                    and other.backup_watermarks[master.server_id]
                    >= entry.version):
                case = key, entry, other
                break
        if case:
            break
    assert case, "no backup holds only other segments of the master"
    key, entry, bystander = case
    holder = cluster.coordinator.lookup_server(
        master.log.segments[entry.segment_id].replica_backups[0])
    assert (master.server_id, entry.segment_id) in holder.replicas

    with pytest.raises(BackupBehind, match="holds no replica"):
        _backup_read(cluster, bystander, master, table_id, key)
    assert bystander.backup_reads_served == 0
    value, version, size = _backup_read(cluster, holder, master,
                                        table_id, key)
    assert (value, version, size) == (b"payload", entry.version, 20 * KB)
    assert holder.backup_reads_served == 1
