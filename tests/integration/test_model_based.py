"""Model-based property tests: the storage system against a plain dict.

Hypothesis drives random operation sequences (write / overwrite /
delete / read) through the full stack — client → fabric → dispatch →
worker → log → hash table — and checks every response against a
reference dict model, then audits the final cluster state.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.ramcloud.errors import ObjectDoesntExist

from tests.ramcloud.conftest import build_cluster, run_client_script

KEYS = [f"user{i}" for i in range(8)]

operations = st.lists(
    st.one_of(
        st.tuples(st.just("write"), st.sampled_from(KEYS),
                  st.integers(min_value=1, max_value=4096)),
        st.tuples(st.just("read"), st.sampled_from(KEYS), st.just(0)),
        st.tuples(st.just("delete"), st.sampled_from(KEYS), st.just(0)),
    ),
    min_size=1, max_size=40,
)


def apply_ops(cluster, table_id, ops):
    """Run ops through the real system, mirror them in a dict, check
    every observable response."""
    rc = cluster.clients[0]
    model = {}
    failures = []

    def script():
        yield from rc.refresh_map()
        for op, key, size in ops:
            if op == "write":
                payload = f"{key}:{size}".encode()
                version = yield from rc.write(table_id, key, size,
                                              value=payload)
                model[key] = (payload, version, size)
            elif op == "read":
                try:
                    value, version, got_size = yield from rc.read(
                        table_id, key)
                except ObjectDoesntExist:
                    if key in model:
                        failures.append(f"read {key}: missing but modeled")
                    continue
                if key not in model:
                    failures.append(f"read {key}: present but not modeled")
                    continue
                exp_value, exp_version, exp_size = model[key]
                if (value, version, got_size) != (exp_value, exp_version,
                                                  exp_size):
                    failures.append(
                        f"read {key}: got {(value, version, got_size)} "
                        f"expected {model[key]}")
            elif op == "delete":
                try:
                    yield from rc.delete(table_id, key)
                    if key not in model:
                        failures.append(f"delete {key}: deleted unmodeled")
                    model.pop(key, None)
                except ObjectDoesntExist:
                    if key in model:
                        failures.append(f"delete {key}: missing but modeled")

    run_client_script(cluster, script(), until=600.0)
    return model, failures


@given(ops=operations)
@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_system_matches_dict_model(ops):
    cluster = build_cluster(num_servers=3, num_clients=1)
    table_id = cluster.create_table("t")
    model, failures = apply_ops(cluster, table_id, ops)
    assert not failures, failures
    # Final-state audit: the union of all masters' hash tables is
    # exactly the model.
    stored = {}
    for server in cluster.servers:
        for key in server.hashtable.keys_for_table(table_id):
            entry = server.hashtable.lookup(table_id, key)
            assert key not in stored, f"{key} indexed on two masters"
            stored[key] = (entry.value, entry.version, entry.value_size)
    assert stored == model


@given(ops=operations)
@settings(max_examples=10, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_replication_does_not_change_semantics(ops):
    """The same op sequence gives identical client-visible results with
    replication on (only timing differs)."""
    cluster = build_cluster(num_servers=4, num_clients=1,
                            replication_factor=2)
    table_id = cluster.create_table("t")
    model, failures = apply_ops(cluster, table_id, ops)
    assert not failures, failures


@given(ops=operations)
@settings(max_examples=10, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_log_accounting_invariants(ops):
    """After any op sequence: per-segment byte accounting is exact, live
    entries are exactly the indexed ones, and closed segments are full
    enough to have rolled."""
    cluster = build_cluster(num_servers=2, num_clients=1)
    table_id = cluster.create_table("t")
    apply_ops(cluster, table_id, ops)
    for server in cluster.servers:
        log = server.log
        indexed = {key: server.hashtable.lookup(table_id, key)
                   for key in server.hashtable.keys_for_table(table_id)}
        live_in_log = [e for seg in log.segments.values()
                       for e in seg.live_entries()]
        assert len(live_in_log) == len(indexed)
        assert {e.key for e in live_in_log} == set(indexed)
        # Each indexed entry names the segment that holds it.
        for entry in indexed.values():
            assert entry in log.segments[entry.segment_id].entries
        for seg in log.segments.values():
            assert seg.bytes_used == sum(e.log_bytes for e in seg.entries)
            assert seg.bytes_used <= seg.capacity
