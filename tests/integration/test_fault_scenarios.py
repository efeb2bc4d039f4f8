"""End-state invariants after canned fault schedules.

Each scenario arms a :class:`~repro.faults.schedule.FaultSchedule`,
lets it play out, then checks what must hold afterwards: recoveries
complete, no acknowledged write is lost, reads see writes again once a
partition heals, and — via :func:`drain_and_check` — the simulation
schedule drains to empty with zero sanitizer findings (the suite runs
with ``REPRO_SIM_DEBUG=1``, so a leaked event, a frozen process or a
lock held at death would surface here).

Marked ``faults``: these runs are heavier than unit tests and get
their own CI job (``pytest -m faults``).
"""

import hashlib
import warnings

import pytest

from repro.cluster import (
    Cluster,
    ClusterSpec,
    CrashExperimentSpec,
    run_crash_experiment,
)
from repro.faults import (
    CrashServer,
    DegradeDisk,
    FaultEntry,
    FaultSchedule,
    HealAll,
    PartitionGroups,
    PauseServer,
    ResumeServer,
    SetGovernor,
)
from repro.hardware.specs import MB
from repro.ramcloud.config import ServerConfig
from repro.ramcloud.tablets import key_hash
from repro.sim.sanitize import SanitizerWarning

pytestmark = pytest.mark.faults


def build_cluster(num_servers=3, num_clients=1, replication_factor=0,
                  seed=1, failure_detection=False, **config_overrides):
    config = ServerConfig(log_memory_bytes=16 * MB, segment_size=1 * MB,
                          replication_factor=replication_factor,
                          **config_overrides)
    return Cluster(ClusterSpec(num_servers=num_servers,
                               num_clients=num_clients,
                               server_config=config, seed=seed,
                               failure_detection=failure_detection))


def run_script(cluster, gen, until=120.0):
    proc = cluster.sim.process(gen, name="test-script")
    return cluster.sim.run_process(proc, until=until)


def run_until_recovered(cluster, expected=1, cap=120.0):
    """Advance until ``expected`` recoveries have completed (or fail)."""
    while cluster.sim.now < cap:
        cluster.run(until=cluster.sim.now + 2.0)
        recoveries = cluster.coordinator.recoveries
        if (len(recoveries) >= expected
                and all(r.finished_at is not None for r in recoveries)):
            return recoveries
    raise AssertionError(
        f"recoveries did not complete by t={cap}: "
        f"{[(r.crashed_id, r.finished_at) for r in cluster.coordinator.recoveries]}")


def drain_and_check(cluster):
    """Shut everything down and drain the schedule to empty.

    With ``REPRO_SIM_DEBUG=1`` the kernel checks for leaked events at
    drain time; escalating :class:`SanitizerWarning` to an error makes
    any leak (or lock-held-at-death emitted during the final kills)
    fail the test.
    """
    with warnings.catch_warnings():
        warnings.simplefilter("error", SanitizerWarning)
        cluster.shutdown()
        cluster.sim.run()


class TestPartitionHeal:
    def test_read_your_writes_after_heal(self):
        cluster = build_cluster()
        table_id = cluster.create_table("t")
        client = cluster.clients[0]
        cluster.inject_faults(FaultSchedule((
            FaultEntry(at=1.0, action=PartitionGroups(
                ("client0",), (0, 1, 2))),
            FaultEntry(at=4.0, action=HealAll()),
        )))

        def script():
            version = yield from client.write(table_id, "k", 64,
                                              value=b"before-partition")
            yield cluster.sim.timeout(2.0)  # now inside the partition
            value, read_version, _size = yield from client.read(table_id,
                                                                "k")
            return version, value, read_version

        version, value, read_version = run_script(cluster, script())
        # The read issued mid-partition blocked (retry loop) until the
        # heal, then returned the acknowledged write.
        assert cluster.sim.now >= 4.0
        assert value == b"before-partition"
        assert read_version == version
        drain_and_check(cluster)

    def test_short_partition_triggers_no_recovery(self):
        # Failure detection is honest: the coordinator cannot peek at
        # ground truth, so it tolerates exactly what its ping protocol
        # tolerates.  A network blip shorter than the detection window
        # (two missed pings at ping_interval=0.5 plus the verify round)
        # must not evict the server; a longer partition honestly would
        # (that false positive is exercised by the zombie-fencing
        # scenario, not here).
        cluster = build_cluster(failure_detection=True)
        table_id = cluster.create_table("t")
        cluster.preload(table_id, 30, 128)
        cluster.inject_faults(FaultSchedule((
            FaultEntry(at=0.6, action=PartitionGroups(
                ("coord",), ("server0",))),
            # Healed after one missed ping — under detection_misses=2.
            FaultEntry(at=1.3, action=HealAll()),
        )))
        cluster.run(until=8.0)
        assert cluster.coordinator.recoveries == []
        assert cluster.coordinator.is_live("server0")
        # The server still answers once the partition heals.
        client = cluster.clients[0]
        run_script(cluster, client.refresh_map())
        value, _version, size = run_script(cluster,
                                           client.read(table_id, "user0"))
        assert size == 128
        drain_and_check(cluster)


class TestCrashRecovery:
    def test_no_acknowledged_write_is_lost(self):
        cluster = build_cluster(num_servers=4, replication_factor=2,
                                failure_detection=True)
        table_id = cluster.create_table("t")
        client = cluster.clients[0]

        def write_all():
            versions = {}
            for i in range(60):
                versions[f"user{i}"] = yield from client.write(
                    table_id, f"user{i}", 64, value=f"v{i}".encode())
            return versions

        versions = run_script(cluster, write_all())
        cluster.inject_faults(FaultSchedule.single_crash(0.5, index=0))
        recoveries = run_until_recovered(cluster)
        assert recoveries[0].crashed_id == "server0"
        assert not recoveries[0].data_was_lost

        def read_all():
            seen = {}
            for i in range(60):
                value, version, _size = yield from client.read(
                    table_id, f"user{i}")
                seen[f"user{i}"] = (value, version)
            return seen

        seen = run_script(cluster, read_all())
        for i in range(60):
            key = f"user{i}"
            assert seen[key] == (f"v{i}".encode(), versions[key]), key
        drain_and_check(cluster)


def scenario_digest(cluster, injector) -> str:
    """A byte-exact digest of everything the scenario left behind."""
    h = hashlib.sha256()

    def feed(label, value):
        h.update(f"{label}={value!r}\n".encode())

    for t, description in injector.applied:
        feed("fault", (t, description))
    for i, stats in enumerate(cluster.coordinator.recoveries):
        feed(f"recovery[{i}]", (stats.crashed_id, stats.detected_at,
                                stats.started_at, stats.finished_at,
                                stats.partitions, stats.segments,
                                stats.bytes_to_recover,
                                stats.lost_segments,
                                tuple(stats.recovery_masters)))
    for i, repair in enumerate(cluster.coordinator.repairs):
        feed(f"repair[{i}]", (repair.dead_server, repair.started_at,
                              repair.peak_under_replicated,
                              repair.replicas_lost,
                              repair.segments_repaired,
                              repair.finished_at))
    for server in cluster.servers:
        feed(f"server[{server.server_id}]",
             (server.killed, server.ops_completed, len(server.hashtable)))
        feed(f"power[{server.server_id}]",
             (server.dispatch_mode, server.dispatch_sleeps,
              server.core_parks, server.node.cpu.frequency_ratio))
        feed(f"membership[{server.server_id}]",
             (server.server_list_version, server.fenced, server.fenced_at,
              server.writes_completed_at_fence, server.replicas_lost,
              server.segments_repaired,
              tuple(sorted(server.under_replicated))))
    feed("net", (cluster.fabric.messages_delivered,
                 cluster.fabric.bytes_delivered))
    feed("now", cluster.sim.now)
    return h.hexdigest()


class TestAcceptanceScenario:
    """ISSUE 2's acceptance bar: a schedule combining a partition with
    a backup crash mid-recovery runs to a consistent end state and its
    rerun digest is byte-identical."""

    SCHEDULE = FaultSchedule((
        FaultEntry(at=0.5, action=PartitionGroups(("coord",),
                                                  ("server5",))),
        FaultEntry(at=1.0, action=CrashServer(index=0)),
        # Heal before server5 misses a second ping: with honest failure
        # detection a longer coordinator partition would (correctly)
        # evict the live server and spawn a third recovery, which is
        # the zombie-fencing scenario's job — here the partition only
        # has to overlap the crash and the start of recovery.
        FaultEntry(at=1.2, action=HealAll()),
        # 0.2 s into the first recovery, kill another (random) server —
        # some of the crashed master's backups are now gone too.
        FaultEntry(at=0.2, action=CrashServer(), anchor="recovery"),
    ))

    def _run(self, seed=11):
        cluster = build_cluster(num_servers=6, replication_factor=3,
                                failure_detection=True, seed=seed)
        table_id = cluster.create_table("t")
        cluster.preload(table_id, 600, 512)
        injector = cluster.inject_faults(self.SCHEDULE)
        run_until_recovered(cluster, expected=2)
        return cluster, injector, table_id

    def test_consistent_end_state_and_identical_rerun_digest(self):
        cluster, injector, table_id = self._run()
        recoveries = cluster.coordinator.recoveries
        assert len(recoveries) == 2
        assert len(injector.killed_servers) == 2
        # RF 3 tolerates both crashes: every segment kept a replica.
        for stats in recoveries:
            assert stats.finished_at is not None
            assert stats.lost_segments == 0
        # Every preloaded record is indexed on exactly one live master.
        total = sum(len(s.hashtable) for s in cluster.servers
                    if not s.killed)
        assert total == 600
        for server in injector.killed_servers:
            assert not cluster.coordinator.is_live(server.server_id)

        first = scenario_digest(cluster, injector)
        drain_and_check(cluster)

        rerun_cluster, rerun_injector, _ = self._run()
        second = scenario_digest(rerun_cluster, rerun_injector)
        drain_and_check(rerun_cluster)
        assert first == second

    def test_different_seed_diverges(self):
        # Guard the digest itself: a digest blind to the interesting
        # state would make the rerun test pass vacuously.
        cluster_a, injector_a, _ = self._run(seed=11)
        a = scenario_digest(cluster_a, injector_a)
        drain_and_check(cluster_a)
        cluster_b, injector_b, _ = self._run(seed=12)
        b = scenario_digest(cluster_b, injector_b)
        drain_and_check(cluster_b)
        assert a != b


def run_repair_scenario(seed=3):
    """ISSUE 4 scenario (a): a backup crash strips replicas, the repair
    loop restores the replication factor, and a later master crash
    therefore loses zero segments.  Deterministic: rerun-digested by
    ``tests/analyze/test_determinism.py``."""
    cluster = build_cluster(num_servers=4, num_clients=1,
                            replication_factor=1, seed=seed,
                            failure_detection=True)
    table_id = cluster.create_table("t")
    cluster.preload(table_id, 200, 512)
    injector = cluster.inject_faults(FaultSchedule((
        # server1's death costs every master that replicated to it one
        # replica per affected segment; with RF=1 those segments are
        # then completely unprotected until repair re-replicates them.
        FaultEntry(at=1.0, action=CrashServer(index=1)),
        # Well after repair has restored RF: this crash must lose
        # nothing, which is precisely what repair buys.
        FaultEntry(at=8.0, action=CrashServer(index=0)),
    )))
    run_until_recovered(cluster, expected=2)
    # Drain the second crash's own repair before digesting.
    cluster.run(until=cluster.sim.now + 5.0)
    return cluster, injector, table_id


def run_zombie_scenario(seed=5):
    """ISSUE 4 scenario (b): a paused (network-silent but alive) master
    is honestly declared dead, its tablets move, and on resume the
    zombie is fenced by its backups before it can acknowledge a write
    from a stale-mapped client.  Deterministic: rerun-digested by
    ``tests/analyze/test_determinism.py``.

    Returns ``(cluster, injector, outcome)`` where ``outcome`` carries
    the acknowledged versions the exactly-once assertions need.
    """
    cluster = build_cluster(num_servers=4, num_clients=2,
                            replication_factor=1, seed=seed,
                            failure_detection=True)
    table_id = cluster.create_table("t")
    span = 4
    key = next(f"user{i}" for i in range(100)
               if key_hash(f"user{i}") % span == 0)  # owned by server0
    injector = cluster.inject_faults(FaultSchedule((
        FaultEntry(at=1.0, action=PauseServer(index=0)),
        # Resumed only after the false-positive eviction and recovery:
        # the zombie comes back believing it still owns its tablets.
        FaultEntry(at=6.0, action=ResumeServer(index=0)),
    )))
    fresh, stale = cluster.clients
    outcome = {"table_id": table_id, "key": key}

    def fresh_script():
        yield from fresh.refresh_map()
        outcome["v1"] = yield from fresh.write(table_id, key, 64,
                                               value=b"before-pause")

    def stale_script():
        # Cache the pre-eviction tablet map, then write through it
        # after the zombie is resumed: the write routes to the zombie,
        # whose backups reject the replication (its epoch marks the
        # master dead), fencing it; the client retries against the new
        # owner.
        yield from stale.refresh_map()
        yield cluster.sim.timeout(6.5)
        outcome["v2"] = yield from stale.write(table_id, key, 64,
                                               value=b"after-fence")
        value, version, _size = yield from stale.read(table_id, key)
        outcome["read"] = (value, version)

    cluster.sim.process(fresh_script(), name="fresh-client")
    cluster.sim.process(stale_script(), name="stale-client")
    cluster.run(until=15.0)
    return cluster, injector, outcome


class TestDurabilityRepair:
    def test_repair_restores_rf_so_second_crash_loses_nothing(self):
        cluster, injector, table_id = run_repair_scenario()
        # Both deaths were detected honestly and recovered fully.
        recoveries = cluster.coordinator.recoveries
        assert [r.crashed_id for r in recoveries] == ["server1", "server0"]
        for stats in recoveries:
            assert stats.finished_at is not None
            assert stats.lost_segments == 0
            assert stats.runtime_lost_segment_ids == set()
        # Each death kicked a tracked repair that ran to completion.
        repairs = cluster.coordinator.repairs
        assert [r.dead_server for r in repairs] == ["server1", "server0"]
        for repair in repairs:
            assert repair.replicas_lost > 0
            assert repair.segments_repaired > 0
            assert repair.finished_at is not None
            assert repair.duration > 0
        assert cluster.coordinator.under_replicated_total() == 0

        # Every preloaded record survived both crashes.
        client = cluster.clients[0]

        def read_all():
            sizes = []
            for i in range(200):
                _value, _version, size = yield from client.read(
                    table_id, f"user{i}")
                sizes.append(size)
            return sizes

        sizes = run_script(cluster, read_all())
        assert sizes == [512] * 200
        drain_and_check(cluster)

    def test_backup_crash_experiment_reports_repair(self):
        # Acceptance: a backup-crash experiment surfaces the repair as
        # first-class stats — under-replication peaks then returns to
        # zero, and the repair duration lands in CrashExperimentResult.
        spec = CrashExperimentSpec(
            cluster=ClusterSpec(
                num_servers=4, num_clients=0,
                server_config=ServerConfig(log_memory_bytes=64 * MB,
                                           segment_size=1 * MB,
                                           replication_factor=1)),
            # Enough data that every master holds several segments, so
            # some replica slots land on the victim (RF=1 spreads each
            # segment's single replica over the three peers).
            num_records=8000,
            record_size=2048,
            kill_at=2.0,
            run_until=60.0,
            sample_interval=0.25,
            victim_index=1,
        )
        result = run_crash_experiment(spec)
        assert result.repair_time is not None and result.repair_time > 0
        assert result.repairs[0].dead_server == "server1"
        assert result.repairs[0].peak_under_replicated > 0
        assert result.repairs[0].replicas_lost > 0
        # The timeline ends with the replication factor restored.
        assert result.under_replicated.values[-1] == 0


class TestZombieFencing:
    def test_paused_master_is_fenced_and_exactly_once_holds(self):
        cluster, injector, outcome = run_zombie_scenario()
        zombie = cluster.servers[0]
        coordinator = cluster.coordinator

        # The pause produced an honest false positive: the coordinator
        # evicted a server whose process never died.
        assert not zombie.killed
        assert not coordinator.is_live("server0")
        recoveries = coordinator.recoveries
        assert [r.crashed_id for r in recoveries] == ["server0"]
        assert recoveries[0].finished_at is not None

        # The zombie got fenced by its backups on its first post-resume
        # replication attempt — before acknowledging the stale write.
        assert zombie.fenced
        assert zombie.fenced_at > 6.0  # only after the resume
        # Zero writes acknowledged after eviction: the only completed
        # write is the pre-pause one.
        assert zombie.writes_completed == 1
        assert zombie.writes_completed_at_fence == 1

        # No duplicate tablet ownership: the key's tablet moved, and
        # the zombie's stale claim is quarantined behind the fence.
        table_id, key = outcome["table_id"], outcome["key"]
        snapshot = coordinator.tablet_map.snapshot()
        owner = snapshot.route(table_id, key)[0]
        assert owner != "server0"
        assert coordinator.is_live(owner)

        # Exactly-once: the stale client's write was acknowledged once,
        # with the version the recovered object implies, and reads see
        # exactly that state on the new owner.
        assert outcome["v2"] == outcome["v1"] + 1
        assert outcome["read"] == (b"after-fence", outcome["v2"])
        drain_and_check(cluster)


class TestDegradedDiskRecovery:
    def test_degraded_backup_disks_slow_recovery(self):
        def spec(faults=None):
            return CrashExperimentSpec(
                cluster=ClusterSpec(
                    num_servers=4, num_clients=0,
                    server_config=ServerConfig(log_memory_bytes=64 * MB,
                                               segment_size=1 * MB,
                                               replication_factor=1)),
                num_records=2000,
                record_size=1024,
                kill_at=2.0,
                run_until=120.0,
                sample_interval=0.25,
                victim_index=0,
                faults=faults,
            )

        baseline = run_crash_experiment(spec())
        degraded = run_crash_experiment(spec(FaultSchedule((
            # Clamp every surviving backup's disk well below nominal
            # before the crash: recovery must read replicas from them.
            FaultEntry(at=0.0, action=DegradeDisk(1, 10 * MB)),
            FaultEntry(at=0.0, action=DegradeDisk(2, 10 * MB)),
            FaultEntry(at=0.0, action=DegradeDisk(3, 10 * MB)),
            FaultEntry(at=2.0, action=CrashServer(index=0)),
        ))))
        assert baseline.recovery_time is not None
        assert degraded.recovery_time is not None
        assert degraded.recovery_time > 1.5 * baseline.recovery_time
        assert [d for _, d in degraded.fault_log][-1] == \
            "crash-server server0"


def run_parked_wake_crash_scenario(seed=7):
    """ISSUE 5 satellite: kill a master in the middle of a parked-core
    wake.  The whole cluster is flipped to the poll-adaptive governor
    mid-run (dispatch threads sleeping, worker cores parked); a write
    then wakes server0 — with ``core_wake_latency`` stretched to 10 ms
    the crash at t=2.005 lands inside the wake window, between
    ``unpark_core()`` and the first instruction of request handling.
    Recovery must still complete with zero lost segments, the write must
    be acknowledged exactly once against the new owner, and a rerun must
    digest byte-identically (the power path draws no randomness).
    """
    cluster = build_cluster(num_servers=4, num_clients=1,
                            replication_factor=2, seed=seed,
                            failure_detection=True,
                            core_wake_latency=0.01)
    table_id = cluster.create_table("t")
    cluster.preload(table_id, 200, 512)
    span = 4
    key = next(f"user{i}" for i in range(100)
               if key_hash(f"user{i}") % span == 0)  # owned by server0
    injector = cluster.inject_faults(FaultSchedule((
        FaultEntry(at=0.5, action=SetGovernor("poll-adaptive")),
        FaultEntry(at=2.005, action=CrashServer(index=0)),
    )))
    client = cluster.clients[0]
    outcome = {"table_id": table_id, "key": key}

    def script():
        yield from client.refresh_map()
        yield cluster.sim.timeout(2.0)
        # By now server0's dispatch thread sleeps and its workers are
        # parked; this write starts the 10 ms wake the crash interrupts.
        outcome["version"] = yield from client.write(table_id, key, 64,
                                                     value=b"wake-crash")
        value, version, _size = yield from client.read(table_id, key)
        outcome["read"] = (value, version)

    cluster.sim.process(script(), name="wake-crash-client")
    run_until_recovered(cluster, expected=1)
    cluster.run(until=cluster.sim.now + 5.0)
    return cluster, injector, outcome


class TestParkedWakeCrash:
    def test_crash_during_wake_recovers_without_loss(self):
        cluster, injector, outcome = run_parked_wake_crash_scenario()
        assert injector.applied[0] == \
            (0.5, "set-governor poll-adaptive on all")
        # The governor actually engaged before the crash: the victim
        # slept its dispatch thread and parked worker cores.
        victim = cluster.servers[0]
        assert victim.killed
        assert victim.dispatch_sleeps > 0
        assert victim.core_parks > 0
        # Recovery completed with RF=2 protection intact.
        (stats,) = cluster.coordinator.recoveries
        assert stats.finished_at is not None
        assert stats.lost_segments == 0
        # The interrupted write was acknowledged exactly once and reads
        # back with its acknowledged version on the new owner.
        assert outcome["read"] == (b"wake-crash", outcome["version"])
        # The write overwrote one preloaded record: every record is
        # still indexed on exactly one live master.
        total = sum(len(s.hashtable) for s in cluster.servers
                    if not s.killed)
        assert total == 200
        first = scenario_digest(cluster, injector)
        drain_and_check(cluster)

        rerun_cluster, rerun_injector, _ = run_parked_wake_crash_scenario()
        second = scenario_digest(rerun_cluster, rerun_injector)
        drain_and_check(rerun_cluster)
        assert first == second
