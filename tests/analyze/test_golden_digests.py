"""Golden digests: behaviour pinned to literal values, not just reruns.

``test_determinism.py`` proves two same-seed runs agree with *each
other*; a refactor that changes behaviour deterministically passes it.
This file pins the digests and kernel event counts themselves, so "bit-
identical to the parent commit" is a checked claim: a change to the
write path, the replication fan-out, the replay insert or backup
placement that moves a single event or latency sample fails here.

A legitimate model change updates the literals in the same commit and
says why; a refactor must leave them alone.

Values captured on CPython 3.11 at commit fe27983 (identical with and
without ``REPRO_SIM_DEBUG=1``).  The event counts were re-captured when
the RPC and YCSB give-up deadlines became cancellable timers: the
``AnyOf`` wait and the per-op process they replaced scheduled events
that carried no simulated behaviour, and every digest stayed put.  They
were re-captured again when each zero-delay hop of the RPC round trip
was folded into the fixed timer that followed it (one event fired at
the timer's absolute end time, with the same float arithmetic): the NIC
grant and the separate serialization and latency timers of a message,
the core grant before ``Cpu.execute`` on a free core, the reply wake-up
before the response's wire time, and the inbox wake-up before the poll
dispatch thread's handoff.  Every digest stayed put again.  They were
re-captured a third time when an idle worker's spin window became a CPU
spin lease: a window that runs out empty used to fire its deadline and
then the ``AnyOf`` over it, two events that only ended the spin's busy
time, which the CPU now settles at the same end time with the same
arithmetic; a request inside the window still resumes the worker one
hop after its get, and no withdrawn deadline is left behind.  Every
digest stayed put once more.  They depend only on float ``repr`` and
the Mersenne-Twister streams behind ``RandomStream``; CI's 3.9 and 3.12
were not available where these were captured — should a digest differ
there, keep that case's event count and drop its digest.
"""

import pytest

from repro.cluster import ClusterSpec, ExperimentSpec, run_experiment
from repro.experiments.sweep import crash_experiment_digest, experiment_digest
from repro.powermgmt import PowerPolicy
from repro.ramcloud.config import ServerConfig
from repro.ramcloud.consistency import ASYNC_BOUNDED
from repro.ramcloud.indexing import secondary_key, uniform_boundaries
from repro.ycsb.workload import WORKLOAD_A, WORKLOAD_C, WorkloadSpec
from tests.analyze.test_determinism import run_small, run_small_crash
from tests.ramcloud.conftest import build_cluster, run_client_script


def run_async_bounded_rf2():
    """The merged fan-out's second caller: every update acks after the
    local append and the flusher ships batches to two backups.  The
    bound is tightened from 50 ms so the flusher ships many batches
    inside this few-millisecond run instead of none."""
    return run_experiment(ExperimentSpec(
        cluster=ClusterSpec(
            num_servers=3, num_clients=2,
            server_config=ServerConfig(replication_factor=2,
                                       default_consistency=ASYNC_BOUNDED,
                                       staleness_bound_seconds=0.002),
            seed=7),
        workload=WORKLOAD_A.scaled(num_records=500, ops_per_client=120),
    ))


# Inserts add records whose secondary keys are new, so each one sends
# an index_write to the owning indexlet (updates rewrite the same
# pairs and send nothing).
INDEXED_WRITES = WorkloadSpec(name="indexed-writes", read_proportion=0.3,
                              update_proportion=0.2, insert_proportion=0.3,
                              index_scan_proportion=0.2, max_scan_length=20,
                              num_indexlets=2)


def run_indexed_writes():
    return run_experiment(ExperimentSpec(
        cluster=ClusterSpec(
            num_servers=3, num_clients=2,
            server_config=ServerConfig(replication_factor=1), seed=7),
        workload=INDEXED_WRITES.scaled(num_records=300, ops_per_client=80),
    ))


def run_poll_adaptive():
    """The adaptive dispatch path: throttled clients leave the dispatch
    thread idle between requests, so it sleeps on its poll wait and
    idle worker cores park (281 dispatch sleeps and 119 core parks
    across the fleet)."""
    return run_experiment(ExperimentSpec(
        cluster=ClusterSpec(
            num_servers=3, num_clients=4,
            server_config=ServerConfig(replication_factor=0), seed=7,
            power_policy=PowerPolicy(governor="poll-adaptive")),
        workload=WORKLOAD_C.scaled(num_records=500, ops_per_client=120)
        .throttled(300.0),
    ))


GOLDEN_EXPERIMENTS = {
    "read_only": (
        lambda: run_small(WORKLOAD_C), 1935,
        "cd8e82d038a3e6ae1ffc0075978955677bca620e12bf87360dd62c38acd17403"),
    "update_heavy_rf1": (
        lambda: run_small(WORKLOAD_A, rf=1), 3105,
        "ee79cd935bdbb1fc750887316b631379dffa72375bce0c062b6231c5c2d9042e"),
    "async_bounded_rf2": (
        run_async_bounded_rf2, 3044,
        "80af0f6fc5026af4d26e8162834f6aa2b6bcdb87bd0cffc91368c4382a4541f9"),
    "indexed_writes_rf1": (
        run_indexed_writes, 3302,
        "ad569714a7ae66d1a3ac0e58bea487487e637285664d69c3ab4c9215b30ade46"),
    "poll_adaptive": (
        run_poll_adaptive, 41594,
        "a2db1d04c568a2bac2b6be08b8a43b1bb359a62fba5029f17b5491c9b84cfbba"),
}


@pytest.mark.parametrize("case", sorted(GOLDEN_EXPERIMENTS))
def test_experiment_matches_golden(case):
    runner, events, digest = GOLDEN_EXPERIMENTS[case]
    result = runner()
    assert result.sim_events == events
    assert experiment_digest(result) == digest


def test_crash_experiment_matches_golden():
    # CrashExperimentResult carries no event count; the digest covers
    # every sampled series and the recovery/repair timeline.
    assert crash_experiment_digest(run_small_crash()) == (
        "636fa8d0fd3c26e91980c6493e350de153a926c58e106c07c19533344bd7a302")


def run_index_mutation_script():
    """YCSB never deletes, so the index_remove handler gets a scripted
    pin: overwrites that change the secondary key (index_write, then
    index_remove of the stale entry) and deletes (index_remove),
    replicated at RF 1.  Event count and finish time move if either
    index handler's append/charge/replicate sequence does."""
    cluster = build_cluster(num_servers=3, replication_factor=1, seed=7)
    table_id = cluster.create_table("t")
    desc = cluster.create_index(table_id, "sec", uniform_boundaries(40, 2))
    cluster.preload_indexed(table_id, desc, 40, 256)
    client = cluster.clients[0]

    def moved(i):
        # A secondary key no preloaded record carries, spread over both
        # indexlets.
        return secondary_key((7 * i + 5) % 40) + "m"

    def script():
        versions = []
        for i in range(12):
            versions.append((yield from client.write(
                table_id, f"user{i}", 256,
                index_entries=((desc.index_id, moved(i)),))))
        for i in range(0, 12, 2):
            yield from client.delete(table_id, f"user{i}")
        return tuple(versions)

    versions = run_client_script(cluster, script())
    servers = cluster.servers
    return (cluster.sim._seq, repr(cluster.sim.now), versions,
            sum(s.index_inserts for s in servers),
            sum(s.index_removes for s in servers))


def test_index_mutation_script_matches_golden():
    # (kernel events, finish time, write versions, index_inserts,
    # index_removes): 12 moved entries in, their 12 stale twins plus 6
    # deleted records' entries out.
    assert run_index_mutation_script() == (
        825, "0.007127517469463121",
        (33, 34, 35, 16, 37, 17, 18, 46, 19, 50, 20, 42), 12, 18)
