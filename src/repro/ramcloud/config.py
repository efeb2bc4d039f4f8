"""Server configuration and the calibrated cost model.

``ServerConfig`` mirrors the knobs the paper sets (§III-B): 10 GB of
DRAM per server for storage, 8 MB segments, and a configurable
replication factor (0 disables replication, as in §IV and §V).  Backup
replicas live on the node's disk (``DiskSpec.capacity_bytes``).

``CostModel`` holds the calibrated per-operation CPU costs.  These are
*measured characteristics of the real system folded into constants*,
anchored on the paper's numbers (DESIGN.md §4):

* ``read_service`` ≈ 8 µs on a worker core: a single 4-core server
  (3 workers + pinned dispatch) saturates at ≈372 Kreq/s (Fig. 1a).
* the write path serializes on a critical section of ``write_crit_base``
  = 70 µs, inflated by write-write contention, concurrent reader
  activity and worker-queue depth (the paper's "poor thread handling") —
  each term solved from a Table II anchor; see the field comments and
  docs/MODEL.md §5.
* replication costs — the master spends CPU per replication RPC and
  waits for each backup's acknowledgement before answering the client
  (§VI: strong consistency); backup-side handling degrades with the
  backup's own load (Finding 3's CPU contention).  Calibrated on
  Fig. 5's 78→43 Kop/s drop for RF 1→4 at 10 clients.
* recovery replay is one serialized replay→re-replicate stream per
  recovery master, costed per byte and per replica — Fig. 11a's
  10 s → 55 s growth for RF 1→5; see docs/MODEL.md §7.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.hardware.specs import GB, KB, MB
from repro.ramcloud.consistency import SYNC_RF, validate_level

__all__ = ["ServerConfig", "CostModel"]


@dataclass(frozen=True)
class CostModel:
    """Calibrated CPU costs (seconds) for RAMCloud's service paths."""

    # Dispatch thread: per-request polling/handoff cost on the pinned core.
    dispatch_per_request: float = 1.5e-6
    # Liveness pong, assembled inline on the dispatch core.
    ping_service: float = 1.0e-6
    # Read path: hash lookup + copy-out, on a worker core.
    read_service: float = 8.0e-6
    # Multiread (RAMCloud's batched read RPC): per-batch overhead plus a
    # discounted per-key cost — batching amortizes dispatch and response
    # assembly across keys.
    multiread_batch_overhead: float = 6.0e-6
    multiread_per_key: float = 3.5e-6
    # Write path, non-serialized portion (request parse, response build).
    write_service: float = 20.0e-6
    # Write path, serialized log-append critical section (see module doc).
    write_crit_base: float = 70.0e-6
    # Write-write contention: each additional writer contending for the
    # log head multiplies the critical section by this fraction (lock
    # handoffs, cache-line bouncing).  Solved from Table II anchors:
    # crit(1 writer)≈98 µs gives workload A's 98 Kop/s at 10 clients;
    # crit(3 writers)≈312 µs gives the ≈64 Kop/s plateau beyond 30.
    write_crit_contention: float = 1.7
    # Milder penalty per concurrently-active non-writer worker (context
    # switches against read traffic) — solved from workload B's 844
    # Kop/s at 90 clients (≈238 µs effective crit at ~2 active readers).
    write_crit_read_contention: float = 0.75
    # Penalty per request queued behind the worker pool ("servers will
    # queue most of the incoming requests ... poor thread handling at
    # the server level when requests are queued", §V): reproduces the
    # decline of workload A beyond 20 clients (Table II: 106→64 Kop/s).
    # Capped at ``write_crit_queue_cap`` waiters: the wakeup/context-
    # switch storm saturates once every worker thread is churning.
    write_crit_queue_contention: float = 0.13
    write_crit_queue_cap: int = 6
    # Master-side CPU to build and send one replication RPC.
    replication_send: float = 12.0e-6
    # Backup-side worker CPU to buffer one replicated object.
    replication_service: float = 15.0e-6
    # Backup-side contention: replication handling competes with the
    # server's own client load for CPU and memory bandwidth ("CPU
    # contention between replication requests and normal requests at
    # the server level", Finding 3).  Per queued/active request, capped.
    replication_contention: float = 0.95
    replication_contention_cap: int = 5

    def replication_cost(self, load: int) -> float:
        """Backup CPU to buffer one replicated object when ``load``
        requests are queued or in service at the backup."""
        return self.replication_service * (
            1.0 + self.replication_contention
            * min(max(0, load), self.replication_contention_cap)
        )
    # Backup-side worker CPU to handle a whole-segment replication
    # (during recovery re-replication), per byte.
    replication_segment_per_byte: float = 1.0e-9
    # Recovery master: CPU to replay one log entry (hash insert + append).
    replay_per_entry: float = 2.0e-6
    # Recovery master: per-byte, per-replica cost of pushing replayed
    # data to new backups ("data is re-inserted in the same fashion" as
    # normal writes, §VII) — the serialized replication stream: send
    # path, copies, checksums, ack bookkeeping.  Anchored on Fig. 11a:
    # each recovery master re-replicates ≈139 MB and recovery time grows
    # ≈11 s per replication-factor step → ≈8×10⁻⁸ s/byte/replica.  The
    # stream is serialized per master (one replication pipeline), which
    # is why recovery time, not just CPU, grows with RF.
    replay_replication_per_byte: float = 5.5e-8
    # Recovery master: CPU per replayed byte (checksum + copy).
    replay_per_byte: float = 6.0e-9
    # Backup: CPU to locate and package a segment for recovery, per byte.
    recovery_read_per_byte: float = 0.5e-9
    # Recovery master: dispatch-thread time to receive one fetched
    # segment (transport polling + copy-in happen on the dispatch
    # thread).  Bulk arrivals stall request dispatch, which is what
    # slows live-data reads 1.4–2.4x during recovery (paper Fig. 10).
    dispatch_rx_per_byte: float = 3.0e-9
    # Cleaner: CPU per live byte copied forward.
    cleaner_per_byte: float = 2.0e-9
    # Secondary-index range search (repro.ramcloud.indexing): per-RPC
    # setup on a worker core, plus a per-scanned-entry cost for walking
    # the indexlet's sorted entry list.  Calibrated against multiread:
    # a search touching k entries costs about what a k-key multiread
    # does minus the per-key hash lookups.
    search_base: float = 7.0e-6
    search_per_entry: float = 0.6e-6
    # Master-side CPU to build and send one index-entry maintenance RPC
    # (the data master appends entries to remote indexlets through the
    # write path — same shape as replication_send).
    index_maintain_send: float = 12.0e-6
    # Coordinator bookkeeping per request.
    coordinator_service: float = 5.0e-6
    # Worker spin-then-sleep: after finishing a request a worker
    # busy-polls this long for the next one before blocking
    # (nanoscheduling).  This is why each active client pins roughly one
    # worker core in Table I (1 client → ≈50 % CPU on a 4-core node:
    # pinned dispatch + one hot worker).
    worker_spin: float = 200.0e-6

    def write_crit(self, writers: int, other_active: int = 0,
                   queued: int = 0) -> float:
        """Serialized append cost given ``writers`` threads contending
        for the log head (including the current one), ``other_active``
        additional busy workers, and ``queued`` requests waiting for a
        worker (1, 0, 0 = no contention)."""
        extra_writers = max(0, writers - 1)
        return self.write_crit_base * (
            1.0
            + self.write_crit_contention * extra_writers
            + self.write_crit_read_contention * max(0, other_active)
            + self.write_crit_queue_contention
            * min(max(0, queued), self.write_crit_queue_cap)
        )


@dataclass(frozen=True)
class ServerConfig:
    """Per-server deployment configuration (paper §III-B defaults)."""

    # Storage DRAM per master (paper: "fixed the memory used by a
    # RAMCloud server to 10GB").
    log_memory_bytes: int = 10 * GB
    # Log segment size (paper §II-B: 8 MB, hard-coded in RAMCloud).
    segment_size: int = 8 * MB
    # Replicas per segment; 0 disables replication entirely.
    replication_factor: int = 3
    # Worker threads servicing requests (dispatch thread is separate).
    # On the paper's 4-core nodes RAMCloud runs 3 workers + dispatch.
    worker_threads: int = 3
    # Threads dedicated to the collocated backup service.  Masters block
    # a worker for every outstanding replication RPC, so backup ops must
    # not queue behind client ops or the whole cluster deadlocks in a
    # circular ack wait (every master's workers waiting on every other's).
    backup_worker_threads: int = 1
    # Memory utilization threshold that wakes the log cleaner.
    cleaner_threshold: float = 0.90
    # Cleaner stops once utilization falls back below this.
    cleaner_low_watermark: float = 0.80
    # Client-visible RPC timeout; sustained timeouts are how the paper's
    # overloaded configurations "crash" (§VI, missing Fig. 6a points).
    rpc_timeout: float = 1.0
    # Admission control: when set, the dispatch thread drops incoming
    # client requests once the worker queue holds this many waiters —
    # the dropped caller hears nothing and eats its full rpc_timeout.
    # This is the mechanism behind the paper's missing Fig. 6a points:
    # under RF 3-4 overload, replication ack-waits pin every worker,
    # queues blow past the cap, and YCSB's 1 s give-up cliff trips.
    # None (the default) disables dropping entirely.
    overload_queue_limit: Optional[int] = None
    # ---- per-request consistency (repro.ramcloud.consistency) ----
    # Cluster-wide default level for requests that do not pick one:
    # "sync_rf" (ack after all RF backups — the paper's behaviour, and
    # what every pre-existing determinism digest pins), "async_bounded"
    # (ack after local append, batched replication within the staleness
    # bounds below), or "eventual" (async writes + backup-served reads).
    # See docs/CONSISTENCY.md.
    default_consistency: str = SYNC_RF
    # ASYNC_BOUNDED staleness bound, sim-time axis: the batched
    # replicator flushes often enough that an acknowledged write is
    # never unreplicated longer than this while the master is alive.
    staleness_bound_seconds: float = 0.05
    # ASYNC_BOUNDED staleness bound, byte axis: once this many
    # acknowledged-but-unreplicated bytes accumulate, further async
    # writes backpressure (wait for a flush) before acking.
    staleness_bound_bytes: int = 256 * KB
    # ---- adaptive power management (repro.powermgmt, docs/POWER.md) ----
    # Servers start in the paper's mode: the dispatch thread busy-polls
    # forever on its pinned core and workers never park.  The
    # poll-adaptive governor switches both at run time
    # (RamCloudServer.set_power_mode); the adaptive dispatch thread's
    # constants live beside it in repro.ramcloud.server.
    # With parking on, a worker whose spin window expires empty parks
    # its core (deep C-state); the woken worker pays this before serving.
    core_wake_latency: float = 50.0e-6

    def __post_init__(self):
        if self.log_memory_bytes < self.segment_size:
            raise ValueError("log memory must hold at least one segment")
        if self.segment_size < 64 * KB:
            raise ValueError("segment size unrealistically small")
        if self.replication_factor < 0:
            raise ValueError("replication factor cannot be negative")
        if self.worker_threads < 1:
            raise ValueError("need at least one worker thread")
        if not 0.0 < self.cleaner_low_watermark < self.cleaner_threshold <= 1.0:
            raise ValueError(
                "cleaner watermarks must satisfy 0 < low < threshold <= 1"
            )
        if self.core_wake_latency < 0:
            raise ValueError("core_wake_latency cannot be negative")
        validate_level(self.default_consistency)
        if self.staleness_bound_seconds <= 0:
            raise ValueError("staleness_bound_seconds must be positive")
        if self.staleness_bound_bytes <= 0:
            raise ValueError("staleness_bound_bytes must be positive")

    @property
    def total_segments(self) -> int:
        """How many segments the log memory budget holds."""
        return self.log_memory_bytes // self.segment_size
