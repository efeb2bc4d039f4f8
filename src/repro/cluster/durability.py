"""Measured crash-loss guarantees per consistency level.

The tunable-consistency work (docs/CONSISTENCY.md) changes *what an
acknowledgement promises*; this harness measures the promise instead of
asserting it.  A cluster runs scripted writers at one
:mod:`~repro.ramcloud.consistency` level, a fault schedule crashes a
master at a chosen point, recovery runs to completion, and a
verification phase reads back **every acknowledged write**:

* ``SYNC_RF`` must report zero acknowledged-write loss for every crash
  schedule — the ack waited for all RF backups, so the durable prefix
  covers it (tests enforce this exactly);
* ``ASYNC_BOUNDED`` / ``EVENTUAL`` may lose the acknowledged-but-
  unreplicated tail (at most one staleness bound's worth), and the
  harness counts precisely those entries;
* observed replication staleness is reported against the configured
  bound — while the master lives, it must never be exceeded.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field, replace
from typing import List, Optional, Tuple

from repro.cluster.deployment import Cluster, ClusterSpec
from repro.faults.schedule import FaultSchedule
from repro.net.rpc import RpcTimeout
from repro.ramcloud.consistency import SYNC_RF, validate_level
from repro.ramcloud.errors import ObjectDoesntExist

__all__ = ["DurabilityGapSpec", "DurabilityGapResult",
           "run_durability_gap", "durability_gap_digest"]


@dataclass(frozen=True)
class DurabilityGapSpec:
    """One crash-loss measurement run."""

    cluster: ClusterSpec
    level: str = SYNC_RF
    writes_per_client: int = 150
    record_size: int = 512
    # Writers pace themselves so the crash lands mid-stream (an idle
    # cluster has no acknowledged-but-unreplicated tail to lose).
    write_interval: float = 0.004
    crash_at: float = 0.25
    victim_index: int = 0
    run_until: float = 120.0
    # Custom schedule; None = the single crash above.  Richer schedules
    # (double crashes, partitions around the kill) ride the same
    # verification phase.
    faults: Optional[FaultSchedule] = None

    def __post_init__(self):
        validate_level(self.level)
        if self.writes_per_client < 1:
            raise ValueError("need at least one write per client")
        if self.write_interval < 0:
            raise ValueError("write interval cannot be negative")
        if self.cluster.num_clients < 1:
            raise ValueError("durability gap needs at least one writer")

    def with_(self, **overrides) -> "DurabilityGapSpec":
        """A copy with the given fields replaced."""
        return replace(self, **overrides)


@dataclass
class DurabilityGapResult:
    """What the acknowledgements were worth."""

    spec: DurabilityGapSpec
    # Every (key, version) a writer saw acknowledged, in ack order.
    acked: List[Tuple[str, int]] = field(default_factory=list)
    # The acknowledged writes the verification phase could not read
    # back at (or past) their acknowledged version.
    lost: List[Tuple[str, int]] = field(default_factory=list)
    crashed_servers: List[str] = field(default_factory=list)
    recovery_duration: Optional[float] = None
    # Highest replication staleness any *surviving* flush observed
    # (seconds between an async ack and its batch landing on backups).
    max_observed_staleness: float = 0.0
    staleness_bound: float = 0.0
    async_writes_acked: int = 0
    fault_log: List[Tuple[float, str]] = field(default_factory=list)

    @property
    def acked_writes(self) -> int:
        """Acknowledged writes issued before verification."""
        return len(self.acked)

    @property
    def acknowledged_write_loss(self) -> int:
        """Writes the system confirmed and then lost — the headline."""
        return len(self.lost)


def run_durability_gap(spec: DurabilityGapSpec) -> DurabilityGapResult:
    """Execute one crash-loss run (see module docstring)."""
    with Cluster(spec.cluster.with_(failure_detection=True)) as cluster:
        result = DurabilityGapResult(
            spec=spec,
            staleness_bound=spec.cluster.server_config.staleness_bound_seconds)
        table_id = cluster.create_table("usertable")
        sim = cluster.sim

        def writer(wid: int):
            rc = cluster.clients[wid]
            yield from rc.refresh_map()
            for seq in range(spec.writes_per_client):
                key = f"d{wid}.{seq}"
                try:
                    version = yield from rc.write(table_id, key,
                                                  spec.record_size,
                                                  level=spec.level)
                except RpcTimeout:
                    # Gave up mid-recovery (bounded retries); an
                    # unacknowledged write carries no promise to verify.
                    continue
                result.acked.append((key, version))
                if spec.write_interval > 0:
                    yield sim.sleep(spec.write_interval)

        for wid in range(spec.cluster.num_clients):
            sim.process(writer(wid), name=f"gap-writer{wid}")

        schedule = spec.faults
        if schedule is None:
            schedule = FaultSchedule.single_crash(spec.crash_at,
                                                  spec.victim_index)
        injector = cluster.inject_faults(schedule)

        # Run until every triggered recovery completes (plus a settling
        # tail for repair and the writers' own retries), or the hard cap.
        while sim.now < spec.run_until:
            cluster.run(until=min(spec.run_until, sim.now + 5.0))
            recoveries = cluster.coordinator.recoveries
            if recoveries and all(r.finished_at is not None
                                  for r in recoveries):
                tail = min(spec.run_until,
                           max(r.finished_at for r in recoveries) + 5.0)
                if sim.now < tail:
                    cluster.run(until=tail)
                break

        # Survivor-side staleness: the harvest must exclude nothing — a
        # crashed master's counter still reports what it observed while
        # alive, which is exactly the "while the master lives" guarantee.
        for server in cluster.servers:
            if server.max_observed_staleness > result.max_observed_staleness:
                result.max_observed_staleness = server.max_observed_staleness
            result.async_writes_acked += server.async_writes_acked

        # Verification: read back every acknowledged write through a fresh
        # retry budget.  Anything missing or older than its acknowledged
        # version was confirmed to a client and then lost.
        verifier = cluster.clients[0]
        verifier.max_retries = 40

        def verify():
            yield from verifier.refresh_map()
            for key, version in result.acked:
                try:
                    _value, got, _size = yield from verifier.read(
                        table_id, key)
                except ObjectDoesntExist:
                    result.lost.append((key, version))
                    continue
                if got < version:
                    result.lost.append((key, version))

        sim.run_process(sim.process(verify(), name="gap-verify"),
                        until=sim.now + 60.0)

        result.crashed_servers = [s.server_id
                                  for s in injector.killed_servers]
        recoveries = cluster.coordinator.recoveries
        if recoveries:
            result.recovery_duration = recoveries[0].duration
        result.fault_log = list(injector.applied)
    return result


def durability_gap_digest(result: DurabilityGapResult) -> str:
    """Rerun-identity digest of everything a crash-loss run measured."""
    h = hashlib.sha256()
    h.update(repr((
        result.spec.level,
        tuple(result.acked),
        tuple(result.lost),
        tuple(result.crashed_servers),
        result.recovery_duration,
        result.max_observed_staleness,
        result.async_writes_acked,
        tuple(result.fault_log),
    )).encode())
    return h.hexdigest()
