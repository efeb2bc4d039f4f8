"""Seed-determinism regression: the runtime guard behind SIM003.

The paper's numbers are only reproducible if two runs with the same
seed agree to the last bit.  A stray ``random.random()``, an unordered
``set`` feeding backup selection, or a wall-clock read would all break
this — simlint catches them statically, this test catches them (and
anything simlint cannot see) at runtime by digesting every metric a
small fig1-style experiment produces.

The digest functions themselves live in :mod:`repro.experiments.sweep`
(imported here as ``digest``/``crash_digest``): the parallel sweep
runner computes the same digests per cell, so what this file pins
serially is byte-for-byte what ``pytest -m sweep`` compares across
process boundaries.
"""

from repro.cluster import (
    ClusterSpec,
    CrashExperimentSpec,
    ExperimentSpec,
    run_crash_experiment,
    run_experiment,
)
from repro.faults import (
    CrashServer,
    DelayRpcs,
    FaultEntry,
    FaultSchedule,
    HealAll,
    PartitionGroups,
    RpcMatch,
)
from repro.experiments.sweep import crash_experiment_digest as crash_digest
from repro.experiments.sweep import experiment_digest as digest
from repro.hardware.specs import MB
from repro.ramcloud.config import ServerConfig
from repro.ycsb.workload import WORKLOAD_A, WORKLOAD_C


def run_small(workload, rf=0, seed=7):
    spec = ExperimentSpec(
        cluster=ClusterSpec(
            num_servers=2, num_clients=2,
            server_config=ServerConfig(replication_factor=rf), seed=seed),
        workload=workload.scaled(num_records=500, ops_per_client=120),
    )
    return run_experiment(spec)


def test_same_seed_same_digest_read_only():
    first = digest(run_small(WORKLOAD_C))
    second = digest(run_small(WORKLOAD_C))
    assert first == second


def test_same_seed_same_digest_update_heavy_with_replication():
    # Update-heavy with RF=2 exercises the stochastic paths that
    # SIM003 polices: backup selection, service-time jitter, zipfian
    # key choice, and the replication fan-out.
    first = digest(run_small(WORKLOAD_A, rf=1))
    second = digest(run_small(WORKLOAD_A, rf=1))
    assert first == second


def test_different_seeds_actually_diverge():
    # Guard the guard: if the digest ignored the interesting state,
    # the two tests above would pass vacuously.
    a = digest(run_small(WORKLOAD_C, seed=7))
    b = digest(run_small(WORKLOAD_C, seed=8))
    assert a != b


# -- crash/fault experiments -------------------------------------------------

def run_small_crash(seed=7):
    """A fig9-style crash run with extra injected faults: a random
    victim (exercising the seeded choice), a partition that heals, and
    a delay fault on reads — every repro.faults code path feeds the
    digest."""
    spec = CrashExperimentSpec(
        cluster=ClusterSpec(
            num_servers=4, num_clients=0,
            server_config=ServerConfig(log_memory_bytes=64 * MB,
                                       segment_size=1 * MB,
                                       replication_factor=1),
            seed=seed),
        num_records=1500,
        record_size=1024,
        kill_at=2.0,
        run_until=60.0,
        sample_interval=0.5,
        faults=FaultSchedule((
            FaultEntry(at=0.5, action=PartitionGroups(("coord",), (3,))),
            FaultEntry(at=1.0, action=DelayRpcs(RpcMatch(op="read"),
                                                0.002)),
            FaultEntry(at=2.0, action=CrashServer()),
            FaultEntry(at=1.0, action=HealAll(), anchor="recovery"),
        )),
    )
    return run_crash_experiment(spec)


def test_same_seed_same_digest_crash_experiment():
    first = crash_digest(run_small_crash())
    second = crash_digest(run_small_crash())
    assert first == second


def test_crash_digest_diverges_across_seeds():
    a = crash_digest(run_small_crash(seed=7))
    b = crash_digest(run_small_crash(seed=8))
    assert a != b


def test_crash_digest_covers_each_series_own_timestamps():
    # One sampler records all four timelines at the same instants, so a
    # digest that fed cluster_cpu.times for every series (as it once
    # did) produced the right value for the wrong reason.  Two results
    # differing only in when the disk-read samples were taken must hash
    # differently.
    result = run_small_crash()
    before = crash_digest(result)
    result.disk_read_mbps.times[0] += 0.25
    assert crash_digest(result) != before


# -- membership / fencing / repair scenarios (ISSUE 4) -----------------------
#
# The two robustness scenarios — backup crash → repair restores RF →
# later master crash loses nothing, and pause-induced false positive →
# zombie fenced — must rerun byte-identically: their digests cover the
# epoch-stamped server lists, fencing state, repair counters and the
# fault log, so any nondeterminism in the new membership machinery
# (set iteration feeding repair order, unseeded backup choice, …)
# shows up here.

from tests.integration.test_fault_scenarios import (  # noqa: E402
    drain_and_check,
    run_repair_scenario,
    run_zombie_scenario,
    scenario_digest,
)


def _scenario_rerun_digests(runner):
    cluster, injector, _extra = runner()
    first = scenario_digest(cluster, injector)
    drain_and_check(cluster)
    cluster, injector, _extra = runner()
    second = scenario_digest(cluster, injector)
    drain_and_check(cluster)
    return first, second


def test_repair_scenario_rerun_digest_identical():
    first, second = _scenario_rerun_digests(run_repair_scenario)
    assert first == second


def test_zombie_scenario_rerun_digest_identical():
    first, second = _scenario_rerun_digests(run_zombie_scenario)
    assert first == second


def test_repair_and_zombie_scenarios_diverge_across_seeds():
    # Guard the digests: they must actually see the repair/fencing
    # state they claim to cover.
    cluster_a, injector_a, _ = run_repair_scenario(seed=3)
    a = scenario_digest(cluster_a, injector_a)
    drain_and_check(cluster_a)
    cluster_b, injector_b, _ = run_repair_scenario(seed=4)
    b = scenario_digest(cluster_b, injector_b)
    drain_and_check(cluster_b)
    assert a != b
