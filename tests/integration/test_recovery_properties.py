"""Property test: crash recovery preserves the exact store state.

Hypothesis drives a random op sequence, then a random server is killed;
after recovery, the union of the survivors' hash tables must equal the
reference dict exactly (same keys, versions and sizes).
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from tests.ramcloud.conftest import build_cluster, run_client_script

KEYS = [f"user{i}" for i in range(12)]

operations = st.lists(
    st.one_of(
        st.tuples(st.just("write"), st.sampled_from(KEYS),
                  st.integers(min_value=1, max_value=2048)),
        st.tuples(st.just("delete"), st.sampled_from(KEYS), st.just(0)),
    ),
    min_size=1, max_size=25,
)


@given(ops=operations, victim=st.integers(min_value=0, max_value=3))
@settings(max_examples=8, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_recovery_preserves_full_state(ops, victim):
    cluster = build_cluster(num_servers=4, num_clients=1,
                            replication_factor=2,
                            failure_detection=True, seed=3)
    table_id = cluster.create_table("t")
    rc = cluster.clients[0]
    model = {}

    def script():
        yield from rc.refresh_map()
        for op, key, size in ops:
            if op == "write":
                version = yield from rc.write(table_id, key, size)
                model[key] = (version, size)
            else:
                from repro.ramcloud.errors import ObjectDoesntExist
                try:
                    yield from rc.delete(table_id, key)
                    model.pop(key, None)
                except ObjectDoesntExist:
                    pass

    run_client_script(cluster, script(), until=600.0)
    cluster.kill_server(victim)
    cluster.run(until=cluster.sim.now + 120.0)
    stats = cluster.coordinator.recoveries[0]
    assert stats.finished_at is not None
    assert stats.lost_segments == 0

    stored = {}
    for server in cluster.servers:
        if server.killed:
            continue
        for key in server.hashtable.keys_for_table(table_id):
            entry = server.hashtable.lookup(table_id, key)
            assert key not in stored, f"{key} owned twice after recovery"
            stored[key] = (entry.version, entry.value_size)
    assert stored == model
