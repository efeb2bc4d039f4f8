"""Log-structured secondary indexes and multi-tenant tables (ISSUE 10).

Covers the entry-key encoding and indexlet routing units, the range
Search RPC across multiple indexlets (including under concurrent
writes and deletes), index maintenance through the write path, the
tenancy plumbing (namespaces, per-tenant consistency defaults,
admission control), and the bit-identity contracts: index-free runs
and SYNC_RF-default tenants change nothing an existing run measures.
"""

import pytest

from tests.ramcloud.conftest import build_cluster, run_client_script
from repro.cluster import ClusterSpec, ExperimentSpec, run_experiment
from repro.experiments.sweep import experiment_digest
from repro.ramcloud.config import ServerConfig
from repro.ramcloud.consistency import ASYNC_BOUNDED, SYNC_RF
from repro.ramcloud.indexing import (
    KEY_SEP,
    IndexDescriptor,
    decode_entry_key,
    encode_entry_key,
    secondary_key,
    uniform_boundaries,
)
from repro.ramcloud.tablets import indexlet_of
from repro.ramcloud.tenancy import TenantSpec, TenantThrottle, tenant_table_name
from repro.ycsb.workload import WORKLOAD_A


# -- entry-key encoding and indexlet routing --------------------------------

def test_entry_key_roundtrip_and_order():
    key = encode_entry_key("s42", "user7")
    assert decode_entry_key(key) == ("s42", "user7")
    # Entry keys order by secondary first, then primary — so a range on
    # secondaries is exactly a range on entry keys.
    assert encode_entry_key("a", "z") < encode_entry_key("b", "a")
    assert encode_entry_key("a", "x") < encode_entry_key("a", "y")
    # The separator sorts below every printable key byte, so "a" + SEP
    # is the successor of every ("a", *) entry.
    assert encode_entry_key("a", "anything") < "b" + KEY_SEP


def test_indexlet_routing_by_boundaries():
    boundaries = ("", "m", "t")
    assert indexlet_of(boundaries, encode_entry_key("a", "p")) == 0
    assert indexlet_of(boundaries, encode_entry_key("m", "p")) == 1
    assert indexlet_of(boundaries, encode_entry_key("z", "p")) == 2


def test_descriptor_validation():
    desc = IndexDescriptor(index_id=9, table_id=1, name="sec",
                           boundaries=("", "m"))
    assert desc.num_indexlets == 2
    assert indexlet_of(desc.boundaries, "a") == 0
    assert indexlet_of(desc.boundaries, "m") == 1
    with pytest.raises(ValueError):
        IndexDescriptor(index_id=9, table_id=1, name="sec", boundaries=())
    with pytest.raises(ValueError):
        IndexDescriptor(index_id=9, table_id=1, name="sec",
                        boundaries=("a", "b"))  # must start at ""
    with pytest.raises(ValueError):
        IndexDescriptor(index_id=9, table_id=1, name="sec",
                        boundaries=("", "m", "c"))  # must be sorted


def test_uniform_boundaries_cover_secondary_keyspace():
    boundaries = uniform_boundaries(100, 4)
    assert len(boundaries) == 4
    assert boundaries[0] == ""
    assert boundaries == tuple(sorted(boundaries))
    # Every record's secondary key lands in some indexlet.
    for i in range(100):
        assert 0 <= indexlet_of(
            boundaries, encode_entry_key(secondary_key(i), "p")) < 4


# -- tenancy units ----------------------------------------------------------

def test_tenant_spec_and_namespace():
    assert tenant_table_name("gold", "usertable") == "gold/usertable"
    with pytest.raises(ValueError):
        TenantSpec(name="")
    with pytest.raises(ValueError):
        TenantSpec(name="a/b")
    with pytest.raises(ValueError):
        TenantSpec(name="t", admission_rate=0.0)
    with pytest.raises(ValueError):
        TenantSpec(name="t", default_consistency="bogus")


def test_tenant_throttle_slot_arithmetic():
    throttle = TenantThrottle("bronze", rate=10.0)
    assert throttle.try_admit(0.0)
    # The next slot is 0.1 away; anything earlier is dropped.
    assert not throttle.try_admit(0.05)
    assert throttle.drops == 1
    assert throttle.try_admit(0.1)
    unlimited = TenantThrottle("gold", rate=float("inf"))
    for _ in range(100):
        assert unlimited.try_admit(0.0)
    assert unlimited.drops == 0


# -- the range Search across indexlets --------------------------------------

def _indexed_cluster(num_servers=3, num_indexlets=2, num_records=100,
                     **kwargs):
    cluster = build_cluster(num_servers=num_servers, **kwargs)
    table_id = cluster.create_table("t")
    desc = cluster.create_index(
        table_id, "sec", uniform_boundaries(num_records, num_indexlets))
    cluster.preload_indexed(table_id, desc, num_records, 256)
    return cluster, table_id, desc


def test_search_spans_two_indexlets():
    cluster, table_id, desc = _indexed_cluster()
    assert desc.num_indexlets == 2
    rc = cluster.clients[0]

    def script():
        yield from rc.refresh_map()
        # [40, 60) straddles the indexlet boundary at secondary_key(50).
        return (yield from rc.search(desc.index_id, secondary_key(40),
                                     secondary_key(60)))

    results = run_client_script(cluster, script())
    assert [sec for sec, _p, _v, _ver in results] == \
        [secondary_key(i) for i in range(40, 60)]
    assert [primary for _s, primary, _v, _ver in results] == \
        [f"user{i}" for i in range(40, 60)]


def test_search_limit_and_continuation():
    cluster, _table_id, desc = _indexed_cluster()
    rc = cluster.clients[0]

    def script():
        yield from rc.refresh_map()
        return (yield from rc.search(desc.index_id, secondary_key(45),
                                     secondary_key(65), limit=7))

    results = run_client_script(cluster, script())
    # The limit truncates, but never mid-range disorder: exactly the
    # first 7 matches in secondary order.
    assert [sec for sec, _p, _v, _ver in results] == \
        [secondary_key(i) for i in range(45, 52)]


def test_write_delete_maintain_index():
    cluster, table_id, desc = _indexed_cluster()
    rc = cluster.clients[0]

    def script():
        yield from rc.refresh_map()
        # Move user10's secondary key: the old entry must disappear.
        yield from rc.write(table_id, "user10", 256,
                            index_entries=((desc.index_id,
                                            secondary_key(900)),))
        # Delete user11 outright.
        yield from rc.delete(table_id, "user11")
        old = yield from rc.search(desc.index_id, secondary_key(10),
                                   secondary_key(12))
        moved = yield from rc.search(desc.index_id, secondary_key(900),
                                     secondary_key(901))
        return old, moved

    old, moved = run_client_script(cluster, script())
    assert old == []  # both user10's old entry and user11's are gone
    assert [(sec, primary) for sec, primary, _v, _ver in moved] == \
        [(secondary_key(900), "user10")]


def test_search_correct_under_concurrent_writes_and_deletes():
    cluster, table_id, desc = _indexed_cluster(num_records=200)
    rc, = cluster.clients
    sim = cluster.sim
    outcome = {}

    def churn():
        # Writers move even records' secondaries up by 1000 and delete
        # a few odd ones, racing the searcher below.
        for i in range(0, 60, 2):
            yield from rc.write(table_id, f"user{i}", 256,
                                index_entries=((desc.index_id,
                                                secondary_key(1000 + i)),))
            if i % 6 == 0:
                yield from rc.delete(table_id, f"user{i + 1}")

    def searcher():
        yield from rc.refresh_map()
        churn_proc = sim.process(churn(), name="churn")
        scans = []
        while not churn_proc.triggered:
            scans.append((yield from rc.search(
                desc.index_id, secondary_key(0), secondary_key(60))))
            yield sim.timeout(0.0005)
        outcome["final"] = yield from rc.search(
            desc.index_id, secondary_key(0), secondary_key(2000))
        outcome["scans"] = scans

    run_client_script(cluster, searcher(), until=120.0)
    # Mid-churn scans never return dangling entries: every returned
    # (secondary, primary) pair is internally consistent and ordered.
    for scan in outcome["scans"]:
        secs = [sec for sec, _p, _v, _ver in scan]
        assert secs == sorted(secs)
        for sec, primary, value, version in scan:
            assert version >= 1
    # The final index state is exactly the survivors: evens moved to
    # 1000+i, odds deleted at multiples of 6 + 1, everything else keeps
    # its original secondary.
    deleted = {f"user{i + 1}" for i in range(0, 60, 2) if i % 6 == 0}
    expected = {}
    for i in range(200):
        primary = f"user{i}"
        if primary in deleted:
            continue
        if i < 60 and i % 2 == 0:
            expected[primary] = secondary_key(1000 + i)
        else:
            expected[primary] = secondary_key(i)
    got = {primary: sec
           for sec, primary, _v, _ver in outcome["final"]}
    assert got == expected


# -- tenant defaults, overrides, admission ----------------------------------

def test_tenant_default_consistency_applies_and_request_overrides():
    cluster = build_cluster(num_servers=2, replication_factor=1)
    cluster.register_tenant(TenantSpec("fast",
                                       default_consistency=ASYNC_BOUNDED))
    table_id = cluster.create_table("t", tenant="fast")
    rc = cluster.clients[0]

    def script():
        yield from rc.refresh_map()
        yield from rc.write(table_id, "k1", 128)  # tenant default
        yield from rc.write(table_id, "k2", 128, level=SYNC_RF)  # override
        return sum(s.async_writes_acked for s in cluster.servers)

    async_acked = run_client_script(cluster, script())
    # Only the default-level write took the tenant's ASYNC_BOUNDED
    # path; the per-request SYNC_RF override replicated synchronously.
    assert async_acked == 1


def test_tenant_admission_drops_surface_as_retries():
    cluster = build_cluster(num_servers=2)
    cluster.register_tenant(TenantSpec("bronze", admission_rate=10.0))
    table_id = cluster.create_table("t", tenant="bronze")
    rc = cluster.clients[0]

    def script():
        yield from rc.refresh_map()
        for i in range(20):
            yield from rc.write(table_id, f"k{i}", 128)

    run_client_script(cluster, script(), until=120.0)
    drops = sum(server.requests_throttled for server in cluster.servers)
    assert drops > 0
    # Every write still completed (the client retries after the drop).
    assert sum(s.writes_completed for s in cluster.servers) == 20


def test_unknown_tenant_rejected():
    cluster = build_cluster(num_servers=2)
    with pytest.raises(KeyError):
        cluster.create_table("t", tenant="nobody")
    cluster.register_tenant(TenantSpec("dup"))
    with pytest.raises(ValueError):
        cluster.register_tenant(TenantSpec("dup"))


# -- the bit-identity contracts ---------------------------------------------

def _tiny_spec(tenants=()):
    return ExperimentSpec(
        cluster=ClusterSpec(num_servers=2, num_clients=2,
                            server_config=ServerConfig(
                                replication_factor=1),
                            seed=7),
        workload=WORKLOAD_A.scaled(num_records=300, ops_per_client=50),
        tenants=tenants,
    )


def test_sync_rf_default_tenant_is_bit_identical_to_untenanted():
    """Satellite 2's pin: a tenant with no consistency override (i.e.
    the cluster's SYNC_RF default) measures byte-for-byte what the
    untenanted run measures — tenancy costs nothing until a tenant
    configures something."""
    plain = run_experiment(_tiny_spec())
    tenanted = run_experiment(_tiny_spec(tenants=(TenantSpec("solo"),)))
    assert tenanted.per_tenant_stats["solo"]["ops"] == tenanted.total_ops
    assert tenanted.per_tenant_stats["solo"]["throttle_drops"] == 0
    # Strip the (gated) per-tenant breakout; everything else the digest
    # covers — op counts, every latency sample, power, energy — must be
    # identical to the untenanted run.
    tenanted.per_tenant_stats = {}
    assert experiment_digest(tenanted) == experiment_digest(plain)


def test_per_tenant_stats_feed_is_gated():
    """The digest covers per-tenant stats only when present, so
    single-tenant results digest exactly as they did before tenancy
    existed."""
    result = run_experiment(_tiny_spec())
    assert result.per_tenant_stats == {}
    before = experiment_digest(result)
    result.per_tenant_stats = {"t": {"ops": 1.0}}
    assert experiment_digest(result) != before
