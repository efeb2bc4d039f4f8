"""Per-request tunable consistency (docs/CONSISTENCY.md).

Covers the level plumbing (validation, config default), the
ASYNC_BOUNDED staleness contract
(batched replication within the bound, byte-bound backpressure before
the ack) and EVENTUAL backup reads with the BackupBehind redirect.
Epoch fencing of the batched path is the ASYNC_BOUNDED case of
``test_membership.py``'s zombie-fencing test.
"""

import pytest

from tests.ramcloud.conftest import build_cluster, run_client_script
from repro.ramcloud.config import ServerConfig
from repro.ramcloud.consistency import (
    ASYNC_BOUNDED,
    EVENTUAL,
    LEVELS,
    SYNC_RF,
    resolve_level,
    validate_level,
)


# -- the level vocabulary ----------------------------------------------------

def test_levels_validate():
    for level in LEVELS:
        validate_level(level)
    with pytest.raises(ValueError):
        validate_level("linearizable")
    assert resolve_level(None, ASYNC_BOUNDED) == ASYNC_BOUNDED
    assert resolve_level(EVENTUAL, SYNC_RF) == EVENTUAL
    with pytest.raises(ValueError):
        resolve_level("bogus", SYNC_RF)


def test_config_default():
    assert ServerConfig().default_consistency == SYNC_RF
    with pytest.raises(ValueError):
        ServerConfig(default_consistency="bogus")
    with pytest.raises(ValueError):
        ServerConfig(staleness_bound_seconds=0.0)
    with pytest.raises(ValueError):
        ServerConfig(staleness_bound_bytes=0)


# -- ASYNC_BOUNDED: ack early, replicate within the bound --------------------

def test_async_write_acks_before_replication_then_catches_up():
    cluster = build_cluster(num_servers=2, num_clients=1,
                            replication_factor=1)
    table_id = cluster.create_table("t", span=1)
    rc = cluster.clients[0]
    master = cluster.servers[0]

    def script():
        yield from rc.refresh_map()
        version = yield from rc.write(table_id, "k", 256,
                                      level=ASYNC_BOUNDED)
        return version, master.unreplicated_bytes

    version, pending_at_ack = run_client_script(cluster, script())
    assert version >= 1
    assert master.async_writes_acked == 1
    # The ack did not wait for the backup: bytes were still pending.
    assert pending_at_ack > 0
    # ...but the flusher ships them within the staleness bound.
    cluster.run(until=cluster.sim.now
                + master.config.staleness_bound_seconds)
    assert master.unreplicated_bytes == 0
    backup = cluster.servers[1]
    assert backup.backup_watermarks.get(master.server_id, 0) >= version


def test_observed_staleness_never_exceeds_bound_while_alive():
    """The acceptance bound: every batched flush must land within
    ``staleness_bound_seconds`` of its oldest acknowledged write."""
    cluster = build_cluster(num_servers=3, num_clients=1,
                            replication_factor=2, seed=9)
    table_id = cluster.create_table("t", span=1)
    rc = cluster.clients[0]

    def script():
        yield from rc.refresh_map()
        for i in range(120):
            yield from rc.write(table_id, f"k{i}", 512,
                                level=ASYNC_BOUNDED)
        return None

    run_client_script(cluster, script())
    cluster.run(until=cluster.sim.now + 1.0)
    bound = cluster.spec.server_config.staleness_bound_seconds
    for server in cluster.servers:
        assert server.max_observed_staleness <= bound
        assert server.unreplicated_bytes == 0


def test_backpressure_holds_the_byte_bound():
    """Once a bound's worth of acked-but-unreplicated bytes piles up,
    further acks stall — sampled after *every* ack, the pending bytes
    never exceed the configured bound."""
    cluster = build_cluster(num_servers=2, num_clients=1,
                            replication_factor=1,
                            staleness_bound_bytes=4096,
                            staleness_bound_seconds=10.0,
                            # A backpressured ack can stall past the
                            # default RPC timeout; keep the client from
                            # re-issuing so acks count writes 1:1.
                            rpc_timeout=60.0)
    table_id = cluster.create_table("t", span=1)
    rc = cluster.clients[0]
    master = cluster.servers[0]

    def script():
        yield from rc.refresh_map()
        peak = 0
        for i in range(30):
            yield from rc.write(table_id, f"k{i}", 1024,
                                level=ASYNC_BOUNDED)
            peak = max(peak, master.unreplicated_bytes)
        return peak

    peak = run_client_script(cluster, script())
    assert 0 < peak <= 4096
    # The stall is backpressure, not a failure: every write acked.
    assert master.async_writes_acked == 30


def test_recovery_keeps_the_durable_version_under_a_truncated_overwrite():
    """An ASYNC_BOUNDED overwrite marks its durable predecessor dead at
    append time.  If the master crashes before the overwrite reaches a
    backup, the backup serves a live copy of the predecessor, so
    recovery keeps the key at its last durable version."""
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
    predecessor = next(e for e in master.log.head.entries
                       if e.version == durable)
    assert not predecessor.live and master.unreplicated_bytes > 0
    cluster.kill_server(cluster.servers.index(master))
    cluster.run(until=cluster.sim.now + 60.0)
    assert cluster.coordinator.recoveries[0].finished_at is not None

    def read_back():
        yield from rc.refresh_map()
        return (yield from rc.read(table_id, "k"))

    value, version, _size = run_client_script(
        cluster, read_back(), until=cluster.sim.now + 60.0)
    assert (value, version) == (b"durable", durable)
    assert not predecessor.live  # the crashed master's record is untouched


# -- EVENTUAL: backup reads and the session redirect -------------------------

def test_eventual_read_served_by_backup():
    cluster = build_cluster(num_servers=3, num_clients=1,
                            replication_factor=2)
    table_id = cluster.create_table("t", span=1)
    rc = cluster.clients[0]
    master = cluster.servers[0]

    def script():
        yield from rc.refresh_map()
        version = yield from rc.write(table_id, "k", 128, value=b"v1")
        # Sync write: both backups hold it; the EVENTUAL read must not
        # touch the master's read path.
        value, got, _size = yield from rc.read(table_id, "k",
                                               level=EVENTUAL)
        return version, value, got

    version, value, got = run_client_script(cluster, script())
    assert (value, got) == (b"v1", version)
    assert rc.backup_reads == 1
    assert rc.redirects == 0
    served = sum(s.backup_reads_served for s in cluster.servers)
    assert served == 1
    assert master.backup_reads_served == 0


def test_backup_behind_redirects_without_burning_a_retry():
    """Satellite: BackupBehind is a *routing* outcome.  The client goes
    straight to the master — no backoff sleep, no retry counted, so
    the Fig. 6a give-up accounting never sees it."""
    cluster = build_cluster(num_servers=2, num_clients=1,
                            replication_factor=1,
                            staleness_bound_seconds=30.0)
    table_id = cluster.create_table("t", span=1)
    rc = cluster.clients[0]

    def script():
        yield from rc.refresh_map()
        version = yield from rc.write(table_id, "k", 128, value=b"mine",
                                      level=ASYNC_BOUNDED)
        # The flusher has a 30 s bound: the backup cannot have applied
        # the write yet, so the session watermark forces a redirect.
        value, got, _size = yield from rc.read(table_id, "k",
                                               level=EVENTUAL)
        return version, value, got

    version, value, got = run_client_script(cluster, script())
    assert (value, got) == (b"mine", version)
    assert rc.redirects >= 1
    assert rc.retries == 0
    assert rc.session_watermarks[cluster.servers[0].server_id] == version


def test_sync_rf_default_runs_draw_no_async_machinery():
    """Bit-identical default: a SYNC_RF-only run never builds the
    flusher process, its queue, or any watermark divergence."""
    cluster = build_cluster(num_servers=2, num_clients=1,
                            replication_factor=1)
    table_id = cluster.create_table("t", span=1)
    rc = cluster.clients[0]

    def script():
        yield from rc.refresh_map()
        for i in range(10):
            yield from rc.write(table_id, f"k{i}", 256)
        return None

    run_client_script(cluster, script())
    for server in cluster.servers:
        assert server._flush_queue is None
        assert server._flusher is None
        assert server.async_writes_acked == 0
        assert server.max_observed_staleness == 0.0
