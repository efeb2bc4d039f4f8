"""Unit tests for tables, tablets, subshards and routing."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ramcloud.indexing import IndexDescriptor
from repro.ycsb.keyspace import KEY_PREFIX, format_key
from repro.ramcloud.tablets import (
    Tablet,
    TabletMap,
    TabletStatus,
    indexlet_of,
    key_hash,
    numbered_key_hashes,
    shard_of,
    tablet_of,
)

SERVERS = [f"server{i}" for i in range(5)]


class TestKeyHash:
    def test_deterministic(self):
        assert key_hash("user123") == key_hash("user123")

    def test_spreads_keys(self):
        buckets = [0] * 10
        for i in range(10000):
            buckets[key_hash(f"user{i}") % 10] += 1
        # Uniform-ish: no bucket more than 2x the mean.
        assert max(buckets) < 2000


class TestNumberedKeyHashes:
    @pytest.mark.parametrize("count", [0, 1, 9, 10, 11, 100, 101, 1000,
                                       20_000, 58_982])
    def test_fold_equals_key_hash(self, count):
        assert list(numbered_key_hashes(KEY_PREFIX, count)) == [
            key_hash(format_key(i)) for i in range(count)]

    @pytest.mark.parametrize("prefix", ["", "k", "a-much-longer-prefix/"])
    def test_any_prefix(self, prefix):
        assert list(numbered_key_hashes(prefix, 1234)) == [
            key_hash(f"{prefix}{i}") for i in range(1234)]


class TestTabletMap:
    def test_create_table_round_robin(self):
        tm = TabletMap()
        table = tm.create_table("t", 5, SERVERS)
        owners = [tm._tablets[(table.table_id, i)].server_id
                  for i in range(5)]
        assert owners == SERVERS

    def test_span_larger_than_servers_wraps(self):
        tm = TabletMap()
        table = tm.create_table("t", 7, SERVERS[:3])
        owners = {tm._tablets[(table.table_id, i)].server_id
                  for i in range(7)}
        assert owners == set(SERVERS[:3])

    def test_duplicate_table_rejected(self):
        tm = TabletMap()
        tm.create_table("t", 2, SERVERS)
        with pytest.raises(ValueError):
            tm.create_table("t", 2, SERVERS)

    def test_invalid_creation(self):
        tm = TabletMap()
        with pytest.raises(ValueError):
            tm.create_table("t", 0, SERVERS)
        with pytest.raises(ValueError):
            tm.create_table("t", 2, [])

    def test_routing_consistent_with_hash(self):
        tm = TabletMap()
        table = tm.create_table("t", 5, SERVERS)
        route = tm.key_router(table.table_id)
        for i in range(100):
            key = f"user{i}"
            assert route(key) == SERVERS[key_hash(key) % 5]

    @pytest.mark.parametrize("span", [1, 5, 7])
    def test_numbered_key_owners_route_like_key_router(self, span):
        tm = TabletMap()
        table = tm.create_table("t", span, SERVERS[:3])
        route = tm.key_router(table.table_id)
        owners = tm.numbered_key_owners(
            table.table_id, numbered_key_hashes(KEY_PREFIX, 2345))
        assert list(owners) == [route(format_key(i)) for i in range(2345)]

    def test_numbered_key_owners_unknown_table(self):
        with pytest.raises(KeyError):
            TabletMap().numbered_key_owners(99, [key_hash(format_key(0))])

    def test_routing_unknown_table(self):
        with pytest.raises(KeyError):
            TabletMap().key_router(99)

    def test_key_router_routes_index_keys_by_range(self):
        tm = TabletMap()
        table = tm.create_table("idx", 3, SERVERS)
        desc = IndexDescriptor(index_id=table.table_id, table_id=99,
                               name="sec", boundaries=("", "m", "t"))
        route = tm.key_router(table.table_id, desc)
        for key, index in (("a", 0), ("m", 1), ("p", 1), ("z", 2)):
            assert route(key) == SERVERS[index]

    def test_drop_table(self):
        tm = TabletMap()
        tm.create_table("t", 3, SERVERS)
        tm.drop_table("t")
        assert tm.table("t") is None
        with pytest.raises(KeyError):
            TabletMap().drop_table("t")

    def test_epoch_bumps_on_changes(self):
        tm = TabletMap()
        e0 = tm.epoch
        table = tm.create_table("t", 2, SERVERS)
        assert tm.epoch > e0
        e1 = tm.epoch
        tm.reassign_shard((table.table_id, 0), 0, "server3")
        assert tm.epoch > e1

    def test_tablets_of_server(self):
        tm = TabletMap()
        table = tm.create_table("t", 5, SERVERS)
        owned = tm.tablets_of_server("server0")
        assert len(owned) == 1
        tablet, shard = owned[0]
        assert tablet.index == 0
        assert shard == 0

    def test_snapshot_is_isolated_copy(self):
        tm = TabletMap()
        table = tm.create_table("t", 2, SERVERS)
        snap = tm.snapshot()
        tm.reassign_shard((table.table_id, 0), 0, "serverX")
        assert snap.tablets[(table.table_id, 0)].shards[0] != "serverX"
        assert snap.epoch < tm.epoch


class TestSubshards:
    def test_unsplit_tablet_single_owner(self):
        t = Tablet(1, 0, ["server0"])
        assert t.server_id == "server0"
        assert t.shard_count == 1
        assert shard_of(key_hash("anything"), 5, t.shard_count) == 0

    def test_split_tablet_has_no_single_owner(self):
        t = Tablet(1, 0, ["a", "b", "c"])
        with pytest.raises(ValueError):
            _ = t.server_id

    def test_split_routing_uses_second_hash_level(self):
        t = Tablet(1, 0, ["a", "b", "c"])
        span = 5
        for i in range(50):
            h = key_hash(f"user{i}")
            assert shard_of(h, span, t.shard_count) == (h // span) % 3

    def test_split_shard_in_map(self):
        tm = TabletMap()
        table = tm.create_table("t", 2, SERVERS)
        tm.split_shard((table.table_id, 0), 0, ["a", "b", "c"],
                       TabletStatus.RECOVERING)
        tablet = tm._tablets[(table.table_id, 0)]
        assert tablet.shards == ["a", "b", "c"]
        assert tablet.status == TabletStatus.RECOVERING

    def test_subshard_cannot_be_split_again(self):
        tm = TabletMap()
        table = tm.create_table("t", 1, SERVERS)
        tm.split_shard((table.table_id, 0), 0, ["a", "b"],
                       TabletStatus.RECOVERING)
        with pytest.raises(ValueError):
            tm.split_shard((table.table_id, 0), 0, ["c", "d"],
                           TabletStatus.RECOVERING)
        # But a single subshard can be handed to one new owner.
        tm.split_shard((table.table_id, 0), 1, ["e"],
                       TabletStatus.RECOVERING)
        assert tm._tablets[(table.table_id, 0)].shards == ["a", "e"]

    def test_status_aggregates_over_shards(self):
        t = Tablet(1, 0, ["a", "b"],
                   [TabletStatus.NORMAL, TabletStatus.RECOVERING])
        assert t.status == TabletStatus.RECOVERING

    def test_statuses_length_validated(self):
        with pytest.raises(ValueError):
            Tablet(1, 0, ["a", "b"], [TabletStatus.NORMAL])
        with pytest.raises(ValueError):
            Tablet(1, 0, [])

    @given(span=st.integers(min_value=1, max_value=16),
           shards=st.integers(min_value=1, max_value=8),
           cuts=st.lists(st.text(alphabet="abcdefgh", min_size=1,
                                 max_size=3), max_size=6))
    @settings(max_examples=30, deadline=None)
    def test_shard_routing_partitions_keyspace(self, span, shards, cuts):
        """Property: every key maps to exactly one (tablet, shard), by
        hash or by range, and the shards of a tablet split it evenly
        by ``key_hash // span``."""
        boundaries = ("",) + tuple(sorted(set(cuts)))
        # Each bound is a key too: it must land in the range it opens.
        for key in [f"user{i}" for i in range(100)] + list(boundaries):
            h = key_hash(key)
            assert tablet_of(key, span) == (h % span, h)
            shard = shard_of(h, span, shards)
            assert 0 <= shard < shards
            assert shard == (h // span) % shards
            index, h_range = tablet_of(key, span, boundaries)
            assert h_range == h
            assert index == indexlet_of(boundaries, key)
            assert boundaries[index] <= key
            if index + 1 < len(boundaries):
                assert key < boundaries[index + 1]
