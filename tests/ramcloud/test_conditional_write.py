"""Tests for conditional writes (RAMCloud's reject-rules)."""

import pytest

from repro.ramcloud.errors import ObjectDoesntExist, StaleVersion

from tests.ramcloud.conftest import build_cluster, run_client_script


class TestConditionalWrite:
    def test_matching_version_applies(self, cluster3):
        table_id = cluster3.create_table("t")
        rc = cluster3.clients[0]

        def script():
            yield from rc.refresh_map()
            v1 = yield from rc.write(table_id, "k", 100)
            v2 = yield from rc.write(table_id, "k", 100,
                                     expected_version=v1)
            return v1, v2

        v1, v2 = run_client_script(cluster3, script())
        assert v2 > v1

    def test_stale_version_rejected(self, cluster3):
        table_id = cluster3.create_table("t")
        rc = cluster3.clients[0]

        def script():
            yield from rc.refresh_map()
            v1 = yield from rc.write(table_id, "k", 100)
            yield from rc.write(table_id, "k", 100)  # bump past v1
            try:
                yield from rc.write(table_id, "k", 100,
                                    expected_version=v1)
            except StaleVersion:
                return "rejected"
            return "applied"

        assert run_client_script(cluster3, script()) == "rejected"

    def test_create_only_semantics(self, cluster3):
        """expected_version=0 means 'must not exist yet'."""
        table_id = cluster3.create_table("t")
        rc = cluster3.clients[0]

        def script():
            yield from rc.refresh_map()
            v1 = yield from rc.write(table_id, "fresh", 64,
                                     expected_version=0)
            try:
                yield from rc.write(table_id, "fresh", 64,
                                    expected_version=0)
            except StaleVersion:
                return v1, "second rejected"
            return v1, "second applied"

        v1, outcome = run_client_script(cluster3, script())
        assert v1 >= 1
        assert outcome == "second rejected"

    def test_rejected_write_leaves_object_untouched(self, cluster3):
        table_id = cluster3.create_table("t")
        rc = cluster3.clients[0]

        def script():
            yield from rc.refresh_map()
            v1 = yield from rc.write(table_id, "k", 100, value=b"original")
            try:
                yield from rc.write(table_id, "k", 200, value=b"clobber",
                                    expected_version=v1 + 7)
            except StaleVersion:
                pass
            value, version, size = yield from rc.read(table_id, "k")
            return value, version, size, v1

        value, version, size, v1 = run_client_script(cluster3, script())
        assert value == b"original"
        assert version == v1
        assert size == 100

    def test_optimistic_read_modify_write_loop(self, cluster3):
        """The classic CAS loop builds directly on conditional writes."""
        table_id = cluster3.create_table("t")
        rc = cluster3.clients[0]

        def script():
            yield from rc.refresh_map()
            yield from rc.write(table_id, "counter", 8, value=b"0")
            for expected_value in (b"0", b"1", b"2"):
                value, version, _size = yield from rc.read(
                    table_id, "counter")
                assert value == expected_value
                new = str(int(value) + 1).encode()
                yield from rc.write(table_id, "counter", 8, value=new,
                                    expected_version=version)
            value, _v, _s = yield from rc.read(table_id, "counter")
            return value

        assert run_client_script(cluster3, script()) == b"3"


class TestCheckInsideTheLogLock:
    """The version and existence checks run under ``log_lock``.

    Two clients race on one object of one server, starting at the same
    instant.  Had the check run before the lock, both would pass it and
    both mutations would apply.
    """

    def _race(self, mutate, expected_error):
        cluster = build_cluster(num_servers=1, num_clients=2)
        table_id = cluster.create_table("t")
        first, second = cluster.clients

        def setup():
            yield from first.refresh_map()
            yield from second.refresh_map()
            return (yield from first.write(table_id, "k", 100))

        v1 = run_client_script(cluster, setup())
        raised = []

        def contender(client):
            try:
                yield from mutate(client, table_id, v1)
            except expected_error:
                raised.append(True)
            else:
                raised.append(False)

        racers = [cluster.sim.process(contender(client), name=f"racer{i}")
                  for i, client in enumerate((first, second))]
        cluster.sim.run_process(cluster.sim.all_of(racers), until=60.0)
        return sorted(raised)

    def test_concurrent_conditional_writes_exactly_one_applies(self):
        def write(client, table_id, v1):
            return client.write(table_id, "k", 100, expected_version=v1)

        assert self._race(write, StaleVersion) == [False, True]

    def test_concurrent_deletes_exactly_one_applies(self):
        def delete(client, table_id, _v1):
            return client.delete(table_id, "k")

        assert self._race(delete, ObjectDoesntExist) == [False, True]
