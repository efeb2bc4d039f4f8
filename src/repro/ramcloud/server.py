"""The RAMCloud server process: collocated master + backup services.

"Usually, storage servers and backups are collocated within a same
physical machine" (§II-B) — and in RAMCloud they share one process, one
dispatch thread and one worker pool.  That sharing is the mechanism
behind the paper's Finding 3: replication requests from other masters
contend with client requests for the same worker CPU.

Threading model
---------------
* One **dispatch thread**, pinned to a core, busy-polling the NIC
  (Table I: 25 % CPU on an idle 4-core server).  It charges a small
  per-request handoff cost and feeds the worker queue.
* ``worker_threads`` **workers** (3 on the paper's 4-core nodes), each a
  process that executes request service code on the CPU.  An idle
  worker spins for ``worker_spin`` before it blocks; the spin window is
  a CPU spin lease (:meth:`~repro.hardware.cpu.Cpu.spin_wait`), which
  burns utilization but schedules no event of its own.
* The write path serializes on the log-append critical section; its
  cost grows with the number of concurrently active workers
  (:meth:`~repro.ramcloud.config.CostModel.write_crit`) — RAMCloud's
  "poor thread handling" under concurrent updates (Finding 2).

Replication
-----------
Each open segment has ``replication_factor`` backups chosen at random
when the segment is opened.  Every update is pushed to each backup in
turn and the master answers the client only after the last
acknowledgement (§VI: "it has to wait for the acknowledgements from the
backups before answering the client ... crucial for providing strong
consistency guarantees").
"""

from __future__ import annotations

import copy
import math
from contextlib import contextmanager
from itertools import islice
from operator import attrgetter
from typing import Dict, Generator, Iterable, Iterator, List, Optional, Tuple

from repro.hardware.cpu import SpinWait
from repro.hardware.node import Node
from repro.net.fabric import Fabric, NodeUnreachable
from repro.net.rpc import RpcRequest, RpcService, RpcTimeout
from repro.ramcloud.config import CostModel, ServerConfig
from repro.ramcloud.errors import (
    BackupBehind,
    LogOutOfMemory,
    ObjectDoesntExist,
    RamCloudError,
    RetryLater,
    StaleEpoch,
    StaleVersion,
    WrongServer,
)
from repro.ramcloud.consistency import SYNC_RF
from repro.ramcloud.hashtable import HashTable
from repro.ramcloud.indexing import SortedIndexEntries, encode_entry_key
from repro.ramcloud.log import Log
from repro.ramcloud.segment import LogEntry, Segment
from repro.ramcloud.tablets import (
    TabletStatus,
    indexlet_of,
    key_hash,
    shard_of,
    tablet_of,
)
from repro.ramcloud.tenancy import TenantThrottle
from repro.sim.distributions import RandomStream
from repro.sim.kernel import Interrupt, Process, Simulator
from repro.sim.sanitize import shared
from repro.sim.resources import Mutex, Store

__all__ = ["RamCloudServer", "SegmentReplica"]

# Poll-adaptive dispatch (:meth:`RamCloudServer._dispatch_idle_wait`,
# docs/POWER.md): empty polls of POLL_INTERVAL seconds each before the
# dispatch thread gives up busy-polling and blocks, and the interrupt +
# cache-refill cost charged to the first request after it wakes.
POLL_IDLE_THRESHOLD = 64
POLL_INTERVAL = 10.0e-6
DISPATCH_WAKE_LATENCY = 6.0e-6

_version_of = attrgetter("version")


class SegmentReplica:
    """A backup's copy of one master segment.

    Open replicas live in the backup's DRAM; when the master closes the
    segment the backup flushes the replica to disk and frees the DRAM
    (§II-B).  The ``segment`` reference stands in for the byte copy —
    conceptually the backup holds its own bytes.

    During the master's crash recovery the backup splits the replica by
    recovery partition once, as RAMCloud's backups do (Ongaro et al.,
    "Fast Crash Recovery in RAMCloud", SOSP 2011), and serves each
    recovery master only its own units' entries
    (:meth:`recovery_entries`).  The buckets live as long as the
    replica: the coordinator drops the crashed master's replicas when
    its recovery ends.
    """

    __slots__ = ("master_id", "segment", "nbytes", "closed", "on_disk",
                 "cached", "entries_applied", "buckets")

    def __init__(self, master_id: str, segment: Segment):
        self.master_id = master_id
        self.segment = segment
        self.nbytes = 0
        self.closed = False
        self.on_disk = False
        # True once a recovery read pulled the replica back into DRAM;
        # later recovery masters fetching their share skip the disk.
        self.cached = False
        # How many of the master segment's entries this backup has
        # durably applied (the ``upto`` watermark carried on every
        # replicate_append; whole-segment replication and bulk load
        # apply everything).  Recovery serves only this prefix, which
        # is what makes an ASYNC_BOUNDED master's unreplicated tail
        # honestly *acknowledged-but-lost*.
        self.entries_applied = 0
        # (inputs, {unit: entries}, revived copies) once a recovery read
        # partitioned the applied prefix (see _partition).
        self.buckets = None

    @property
    def key(self) -> Tuple[str, int]:
        """(master_id, segment_id) identifying this replica."""
        return (self.master_id, self.segment.segment_id)

    @property
    def size(self) -> int:
        """Bytes the replica occupies: the larger of what was shipped to
        it and the segment's current fill."""
        return max(self.nbytes, self.segment.bytes_used)

    def recovery_entries(self, units, spans, index_ranges,
                         shard_counts) -> List[LogEntry]:
        """The applied prefix's entries that route to ``units`` — a
        recovery master's ``(table_id, tablet, shard, shard_count)``
        list — in replica order, dead entries included (the master
        skips those when it replays).  The other arguments are the
        recovery plan's routing, shared by all of its masters: table
        spans, indexlet boundaries by index table (or None) and the
        shard count of every (table_id, tablet) it recovers.  A single
        unit's list is the cached bucket itself; callers only read it.
        """
        buckets, revived = self._partition(spans, index_ranges, shard_counts)
        found = [buckets[unit[:3]] for unit in units if unit[:3] in buckets]
        if not found:
            return []
        if len(found) == 1:
            entries = found[0]
        else:
            # Several units: theirs, picked out of the prefix in order.
            wanted = {id(entry) for bucket in found for entry in bucket}
            entries = [entry for entry in
                       islice(self.segment.entries, self.entries_applied)
                       if id(entry) in wanted]
        if revived:
            entries = [revived.get(id(entry), entry) for entry in entries]
        return entries

    def _partition(self, spans, index_ranges, shard_counts):
        """``({(table_id, tablet, shard): [entry, ...]}, revived)`` over
        the applied prefix: the entries routed by
        :func:`tablet_of`/:func:`shard_of` at the plan's shard counts,
        and the live copies that stand in for truncated overwrites'
        predecessors, by ``id`` of the original.  Built on the first
        recovery read and again only if the prefix, the segment or the
        plan changed since.  Entries of tables or tablets the plan does
        not recover are left out."""
        entries = self.segment.entries
        applied = self.entries_applied
        inputs = (applied, len(entries), spans, index_ranges, shard_counts)
        if self.buckets is not None and self.buckets[0] == inputs:
            return self.buckets[1], self.buckets[2]
        revived = {}
        if applied < len(entries):
            # An overwrite dead-marks its predecessor at append
            # time — before the new entry is durably replicated —
            # and replicas share the master's entry objects by
            # reference.  When truncation drops that in-flight
            # successor, the predecessor inside the served prefix
            # is still the acknowledged durable version: a real
            # backup holds only bytes and would replay it.  Serve
            # a live copy so recovery does not lose the key.
            truncated = {(e.table_id, e.key) for e in entries[applied:]}
            for i in range(applied - 1, -1, -1):
                entry = entries[i]
                ident = (entry.table_id, entry.key)
                if ident not in truncated:
                    continue
                truncated.discard(ident)
                if not entry.live and not entry.is_tombstone:
                    live_copy = copy.copy(entry)
                    live_copy.live = True
                    revived[id(entry)] = live_copy
                if not truncated:
                    break
        buckets: Dict[Tuple[int, int, int], List[LogEntry]] = {}
        for entry in islice(entries, applied):
            table_id = entry.table_id
            span = spans.get(table_id)
            if span is None:
                continue
            index, h = tablet_of(entry.key, span, index_ranges.get(table_id)
                                 if index_ranges else None)
            shard_count = shard_counts.get((table_id, index))
            if shard_count is None:
                continue
            unit = (table_id, index, shard_of(h, span, shard_count))
            bucket = buckets.get(unit)
            if bucket is None:
                bucket = buckets[unit] = []
            bucket.append(entry)
        self.buckets = (inputs, buckets, revived)
        return buckets, revived


class RamCloudServer(RpcService):
    """One storage server: master role + backup role in one process."""

    def __init__(self, sim: Simulator, fabric: Fabric, node: Node,
                 config: ServerConfig, cost: CostModel, coordinator,
                 stream: RandomStream):
        super().__init__(sim, fabric, node, name=f"server:{node.name}")
        self.server_id = node.name
        self.config = config
        self.cost = cost
        self.coordinator = coordinator
        self.stream = stream

        # ---- membership view (the epoch-stamped server list) ----
        # Installed by the coordinator's enlistment handshake and kept
        # current by ``server_list`` pushes; every placement and
        # liveness decision below consults THIS view, never the
        # coordinator's ground truth.  Initialized before the log so
        # the segment-open callback can already consult it.
        self.server_list_version = 0
        self.live_view: Tuple[str, ...] = ()
        self.dead_view: frozenset = frozenset()
        # Fencing: set when this server learns (via a server-list
        # update or a backup's StaleEpoch rejection) that the cluster
        # evicted it.  A fenced server self-quiesces: it stops serving
        # data RPCs and stops replicating, so it can never diverge the
        # durable log after its own recovery began.
        self.fenced = False
        self.fenced_at: Optional[float] = None
        self.writes_completed_at_fence: Optional[int] = None
        # Clients whose cached map predates this epoch are rejected
        # with StaleEpoch (raised after recovery hands us tablets).
        self.min_client_epoch = 0
        # Durability repair: (segment_id, slot) pairs whose replica was
        # lost with a dead backup, awaiting re-replication.
        self.under_replicated: set = set()
        self.replicas_lost = 0
        self.segments_repaired = 0
        self._repair_proc: Optional[Process] = None

        # ---- master state ----
        self._bulk_loading = False
        self.log = Log(config, on_open=self._choose_backups,
                       on_close=self._segment_closed)
        self.hashtable = HashTable()
        self.log_lock = Mutex(sim, name=f"{self.server_id}:log")
        # One replication/replay pipeline per master: during recovery the
        # replay→re-replicate stream is serialized on this lock (it is a
        # single log being re-built), so recovery *time* grows with the
        # replication factor, not just CPU (Finding 6).
        self.replay_lock = Mutex(sim, name=f"{self.server_id}:replay")
        # (table_id, tablet_index, shard) → status
        self.tablets: Dict[Tuple[int, int, int], str] = {}
        # (table_id, tablet_index) → shard count of that tablet
        self.tablet_shards: Dict[Tuple[int, int], int] = {}
        self._next_version = 1
        # Guard-check handles (debug mode): the hash table and log
        # declare @guarded_by("log_lock"), resolved against this server.
        self.hashtable.race = shared(sim, f"{self.server_id}:hashtable",
                                     obj=self.hashtable, owner=self)
        self.log.set_race(shared(sim, f"{self.server_id}:log",
                                 obj=self.log, owner=self))

        # ---- secondary indexes (repro.ramcloud.indexing) ----
        # index_table_id → indexlet boundaries, installed by the
        # coordinator at create_index/enlist time (and by a recovery
        # plan).  Empty for index-free runs: every hot-path guard below
        # is a single falsy-dict check, so such runs stay bit-identical.
        self.index_configs: Dict[int, Tuple[str, ...]] = {}
        # The sorted entry-key lists range Search scans; maintained in
        # lock-step with the hash table under log_lock.
        self.index_entries = SortedIndexEntries()
        self.index_entries.race = shared(sim, f"{self.server_id}:index",
                                         obj=self.index_entries, owner=self)
        # Index-entry maintenance RPCs get their own queue and worker,
        # spawned lazily by the first install_index_config: a data
        # master blocks a worker while its index entries land, so index
        # appends must not queue behind client ops (same circular-wait
        # argument as backup_worker_threads — index workers only ever
        # wait on backup workers, which never wait on anyone).
        self._index_queue: Optional[Store] = None
        self.index_inserts = 0
        self.index_removes = 0
        self.searches_served = 0

        # ---- multi-tenant tables (repro.ramcloud.tenancy) ----
        # table_id → tenant default consistency level; table_id →
        # dispatch-path token bucket.  Both empty unless the
        # coordinator installs a tenant, keeping untenanted runs (and
        # SYNC_RF-default tenants with no admission cap) bit-identical.
        self._tenant_defaults: Dict[int, str] = {}
        self._tenant_throttles: Dict[int, TenantThrottle] = {}
        self.requests_throttled = 0

        # ---- backup state ----
        self.replicas: Dict[Tuple[str, int], SegmentReplica] = {}
        # master_id → highest object version this backup has applied
        # from that master (fed by the replicate_append ``upto``
        # watermarks).  EVENTUAL backup reads gate visibility — and the
        # client's read-your-writes session check — on this.
        self.backup_watermarks: Dict[str, int] = {}

        # ---- per-request consistency (docs/CONSISTENCY.md) ----
        # The batched-replication queue for ASYNC_BOUNDED/EVENTUAL
        # writes: (segment, entry, upto, acked_at) tuples awaiting a
        # flush.  All machinery is built lazily by the first async
        # write, so SYNC_RF-only runs schedule no extra events and stay
        # bit-identical to pre-consistency builds.
        self._repl_pending: List[Tuple[Segment, LogEntry, int, float]] = []
        # Acknowledged-but-unreplicated bytes; writers backpressure once
        # this reaches ServerConfig.staleness_bound_bytes.
        self.unreplicated_bytes = 0
        self._flush_queue: Optional[Store] = None
        self._flusher: Optional[Process] = None
        # Largest (backup-apply time − client-ack time) any flushed
        # batch observed — the measured staleness the durability-gap
        # harness reports against the configured bound.
        self.max_observed_staleness = 0.0
        self.async_writes_acked = 0
        self.backup_reads_served = 0

        # ---- threading ----
        self.worker_queue = Store(sim, name=f"{self.server_id}:work",
                                  lifo_getters=True)
        self.backup_queue = Store(sim, name=f"{self.server_id}:backup-work",
                                  lifo_getters=True)
        self.active_workers = 0
        self._threads: List[Process] = []
        self._background: List[Process] = []
        self.killed = False

        # ---- adaptive power management (repro.powermgmt) ----
        # The paper's mode (busy-poll dispatch, no parking) until a
        # governor or a SetGovernor fault action calls set_power_mode;
        # the dispatch and worker loops re-read both on every iteration.
        self.dispatch_mode = "poll"
        self.core_parking = False
        self.dispatch_sleeps = 0
        self.core_parks = 0

        # ---- statistics ----
        self.ops_completed = 0
        self.reads_completed = 0
        self.writes_completed = 0
        self.replications_handled = 0
        self.recovery_bytes_replayed = 0
        self.requests_dropped = 0

        self.node.cpu.pin_core()  # the dispatch thread's core
        self._threads.append(
            sim.process(self._dispatch_loop(), name=f"{self.name}:dispatch"))
        # Workers run _serve_queue directly (no per-thread wrapper
        # generator: a trampoline frame would be re-entered on every
        # resume of every worker).
        for i in range(config.worker_threads):
            self._threads.append(
                sim.process(self._serve_queue(self.worker_queue),
                            name=f"{self.name}:worker{i}"))
        for i in range(config.backup_worker_threads):
            self._threads.append(
                sim.process(self._serve_queue(self.backup_queue),
                            name=f"{self.name}:backup-worker{i}"))
        self._cleaner = sim.process(self._cleaner_loop(),
                                    name=f"{self.name}:cleaner")
        self._threads.append(self._cleaner)

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------

    def kill(self) -> None:
        """Kill the RAMCloud process on this machine (the paper's crash
        injection: "we kill RAMCloud process on that node").

        The machine itself stays up; the PDU keeps metering it.
        """
        if self.killed:
            return
        self.killed = True
        self.shutdown(NodeUnreachable(f"{self.server_id} crashed"))
        queued = self.worker_queue.drain() + self.backup_queue.drain()
        if self._index_queue is not None:
            queued += self._index_queue.drain()
        for request in queued:
            if not request.reply.triggered:
                request.fail(NodeUnreachable(f"{self.server_id} crashed"))
        for proc in self._threads + self._background:
            proc.interrupt("killed")
        self.node.cpu.unpin_core()

    def set_power_mode(self, dispatch_mode: Optional[str] = None,
                       core_parking: Optional[bool] = None) -> None:
        """Flip the adaptive-dispatch / core-parking policy at runtime
        (called by :class:`~repro.powermgmt.PowerManager` and the
        ``SetGovernor`` fault action).  Loops pick the change up on
        their next iteration; a dispatch thread already blocked stays
        blocked until its next request, exactly like a real governor
        change taking effect at the next idle transition."""
        if dispatch_mode is not None:
            if dispatch_mode not in ("poll", "adaptive"):
                raise ValueError(f"bad dispatch_mode {dispatch_mode!r}")
            self.dispatch_mode = dispatch_mode
        if core_parking is not None:
            self.core_parking = core_parking

    def _spawn(self, generator, name: str) -> Process:
        """Track a background process so kill() can reap it."""
        proc = self.sim.process(generator, name=name)
        self._background.append(proc)
        if len(self._background) > 64:
            self._background = [p for p in self._background if p.is_alive]
        return proc

    # ------------------------------------------------------------------
    # membership view, fencing, durability repair
    # ------------------------------------------------------------------

    def apply_server_list(self, version: int, live, dead) -> None:
        """Install a coordinator server-list update.

        Idempotent and monotonic: stale or duplicate versions are
        ignored.  Runs at zero simulated time — the RPC that carried
        the update already paid the wire and CPU costs.  Side effects:
        newly-dead backups kick durability repair; finding *ourselves*
        in the dead set fences this server.
        """
        if self.killed or version <= self.server_list_version:
            return
        old_dead = self.dead_view
        self.server_list_version = version
        self.live_view = tuple(live)
        self.dead_view = frozenset(dead)
        if self.server_id in self.dead_view:
            self._fence()
            return
        for backup_id in sorted(self.dead_view - old_dead):
            self._on_backup_lost(backup_id)

    def _handle_server_list(self, request: RpcRequest) -> Generator:
        version, live, dead = request.args
        yield from self.node.cpu.execute(2.0e-6)
        self.apply_server_list(version, live, dead)
        request.respond(("ack", self.server_list_version))

    def _fence(self) -> None:
        """Self-quiesce: the cluster evicted this server (a server-list
        update lists it dead, or a backup rejected its replication with
        StaleEpoch).  Clients get WrongServer and re-route to the
        recovery masters; replication stops, so nothing this zombie
        appends can ever reach the durable log."""
        if self.fenced:
            return
        self.fenced = True
        self.fenced_at = self.sim.now
        self.writes_completed_at_fence = self.writes_completed
        # The repair loop (and every other background producer) checks
        # ``self.fenced`` at each step and winds down on its own; no
        # interrupt here — _fence may be called from inside one of them.

    def _on_backup_lost(self, backup_id: str) -> None:
        """A server-list update evicted ``backup_id``: every replica we
        placed on it is gone.  Record the holes and kick repair."""
        if self.killed or self.fenced:
            return
        for segment_id in sorted(self.log.segments):
            segment = self.log.segments[segment_id]
            for slot, sid in enumerate(segment.replica_backups):
                if sid == backup_id:
                    self._record_lost_replica(segment, slot)

    def _record_lost_replica(self, segment: Segment, slot: int) -> None:
        """One replica of ``segment`` is known lost (dead backup or a
        replication RPC that never acknowledged): remember the hole and
        make sure the repair loop is running."""
        key = (segment.segment_id, slot)
        if key not in self.under_replicated:
            self.under_replicated.add(key)
            self.replicas_lost += 1
        self._kick_repair()

    def _kick_repair(self) -> None:
        if self.killed or self.fenced:
            return
        if self._repair_proc is not None and self._repair_proc.is_alive:
            return
        self._repair_proc = self._spawn(self._repair_loop(),
                                        name=f"{self.name}:repair")

    def _repair_loop(self) -> Generator:
        """Re-replicate every under-replicated segment through the
        normal ``replicate_segment`` path until the set drains (the
        paper's durability invariant: every segment back at the
        replication factor).  Single instance per master; retries with
        a pause while no candidate backups exist."""
        try:
            while not (self.killed or self.fenced):
                pending = sorted(self.under_replicated)
                if not pending:
                    return
                progressed = False
                for segment_id, slot in pending:
                    if self.killed or self.fenced:
                        return
                    segment = self.log.segments.get(segment_id)
                    if segment is None:
                        # Cleaned away while queued: nothing to repair.
                        self.under_replicated.discard((segment_id, slot))
                        progressed = True
                        continue
                    backup = yield from self._replace_backup(segment, slot)
                    if backup is not None:
                        self.under_replicated.discard((segment_id, slot))
                        # Monotonic single-writer progress counter.
                        self.segments_repaired += 1  # simlint: disable=SIM006 gauge
                        progressed = True
                if not progressed:
                    # No live replacement candidates right now; wait for
                    # membership to change.
                    yield self.sim.timeout(0.1)
        except StaleEpoch:
            # A backup's view says we are dead; _replace_backup already
            # fenced us.  The repair is the new owners' problem now.
            return

    # ------------------------------------------------------------------
    # secondary indexes / tenancy installs (coordinator pushes)
    # ------------------------------------------------------------------

    def install_index_config(self, index_id: int,
                             boundaries: Tuple[str, ...]) -> None:
        """Install one index's indexlet boundaries (zero simulated time:
        rides create_index, enlist, or a recovery plan — like
        :meth:`apply_server_list`).  Idempotent.  The first install also
        spawns this server's index worker, so index-free runs never
        carry the extra thread or its events."""
        if self.killed:
            return
        self.index_configs[index_id] = tuple(boundaries)
        if self._index_queue is None:
            self._index_queue = Store(self.sim,
                                      name=f"{self.server_id}:index-work",
                                      lifo_getters=True)
            self._threads.append(
                self.sim.process(self._serve_queue(self._index_queue),
                                 name=f"{self.name}:index-worker0"))

    def install_tenant(self, table_id: int, name: str,
                       default_level: Optional[str],
                       admission_rate: float) -> None:
        """Bind a table to its tenant's defaults (zero simulated time,
        pushed at create_table/enlist).  A tenant with no explicit
        default and no admission cap installs nothing the hot path can
        observe — such tenants stay bit-identical to untenanted runs."""
        if self.killed:
            return
        if default_level is not None:
            self._tenant_defaults[table_id] = default_level
        if not math.isinf(admission_rate):
            self._tenant_throttles[table_id] = TenantThrottle(
                name, admission_rate)

    # ------------------------------------------------------------------
    # tablet ownership
    # ------------------------------------------------------------------

    def take_tablet(self, unit: Tuple[int, int, int], shard_count: int = 1,
                    ready: bool = True) -> None:
        """Own one (tablet, shard) unit.  ``unit`` is
        ``(table_id, tablet_index, shard)``."""
        table_id, index, _shard = unit
        self.tablets[unit] = (TabletStatus.NORMAL if ready
                              else TabletStatus.RECOVERING)
        self.tablet_shards[(table_id, index)] = shard_count

    def drop_tablet(self, unit: Tuple[int, int, int]) -> None:
        """Stop owning one (tablet, shard) unit."""
        self.tablets.pop(unit, None)

    def _check_ownership(self, table_id: int, key: str, h: int, span: int,
                         epoch: Optional[int] = None) -> None:
        """:meth:`_check_unit` for the unit ``key`` routes to: by key
        range for an index table whose boundaries this server holds, by
        hash otherwise.  ``h`` is ``key_hash(key)``, which the sender
        computed when it routed the request."""
        index, h = tablet_of(key, span, self.index_configs.get(table_id)
                             if self.index_configs else None, h)
        # A tablet we hold no unit of counts as unsplit; _check_unit
        # then refuses it.
        tablet = (table_id, index)
        shard_count = (self.tablet_shards[tablet]
                       if tablet in self.tablet_shards else 1)
        self._check_unit((table_id, index, shard_of(h, span, shard_count)),
                         epoch)

    def _check_unit(self, unit: Tuple[int, int, int],
                    epoch: Optional[int]) -> None:
        """May this server serve ``unit`` (a (table, tablet, shard)
        triple) to a client whose map is at ``epoch``?  Raises
        WrongServer / StaleEpoch / RetryLater otherwise; the worker
        loop fails the request with whatever escapes a handler."""
        if self.fenced:
            # Evicted from the cluster: route the client to whoever
            # recovered our tablets (it refreshes its map and retries).
            raise WrongServer(
                f"{self.server_id} is fenced (evicted from the cluster)")
        if epoch is not None and epoch < self.min_client_epoch:
            # The client routed here off a map that predates the
            # membership change that handed us these tablets; its view
            # of *other* tablets is equally stale, so force a refresh.
            raise StaleEpoch(
                f"client map epoch {epoch} predates ownership change "
                f"(this master requires >= {self.min_client_epoch})")
        status = self.tablets.get(unit)
        if status is None:
            raise WrongServer(
                f"{self.server_id} does not own tablet shard {unit}")
        if status == TabletStatus.RECOVERING:
            raise RetryLater(f"tablet shard {unit} is recovering")

    # ------------------------------------------------------------------
    # replica placement
    # ------------------------------------------------------------------

    def _choose_backups(self, _segment: Optional[Segment] = None,
                        if_short: str = "none") -> Tuple[str, ...]:
        """Pick ``replication_factor`` random distinct backups (§II-B:
        random selection so recovery parallelizes).  ``if_short`` says
        what to do when our view holds fewer live candidates than that:

        * ``"none"`` — no backups yet.  The segment-open callback (which
          is why a segment argument is accepted): during cluster
          bootstrap the first head segment opens before peers have
          enlisted; it gets its backups assigned lazily by
          :meth:`_ensure_head_replicated` on the first actual append.
        * ``"raise"`` — that first append: the data must not go
          unreplicated.
        * ``"all"`` — recovery re-replication: use whoever is left.
        """
        rf = self.config.replication_factor
        if rf == 0:
            return ()
        candidates = [sid for sid in self.live_view
                      if sid != self.server_id]
        if len(candidates) >= rf:
            return tuple(self.stream.sample(candidates, rf))
        if if_short == "raise":
            raise RuntimeError(
                f"replication factor {rf} needs {rf} live backups, "
                f"have {len(candidates)}"
            )
        return tuple(candidates) if if_short == "all" else ()

    def _ensure_head_replicated(self) -> None:
        if (self.config.replication_factor > 0
                and not self.log.head.replica_backups):
            self.log.head.replica_backups = self._choose_backups(
                if_short="raise")

    def _segment_closed(self, segment: Segment) -> None:
        """Log head rolled: tell this segment's backups to flush."""
        if self.killed or self._bulk_loading:
            return
        for slot, backup_id in enumerate(segment.replica_backups):
            if backup_id in self.dead_view:
                # Known dead per our server-list view: the replica is
                # already gone; go straight to repair.
                self._record_lost_replica(segment, slot)
                continue
            backup = self.coordinator.lookup_server(backup_id)
            if backup is None:
                continue
            self._spawn(
                self._send_close(backup, segment, slot),
                name=f"{self.name}:close-seg{segment.segment_id}",
            )

    def _send_close(self, backup: "RamCloudServer", segment: Segment,
                    slot: int) -> Generator:
        try:
            yield from backup.call(
                self.node, "replicate_close",
                args=(self.server_id, segment.segment_id),
                size_bytes=64, response_bytes=64,
                timeout=self.config.rpc_timeout,
            )
        except StaleEpoch:
            # The backup's epoch marks US dead: quiesce quietly (this
            # is a background process with no client to answer).
            self._fence()
        except (NodeUnreachable, RpcTimeout):
            # The backup died with the close in flight.  Its replica of
            # this segment can no longer be trusted durable: record the
            # hole and let the repair loop re-replicate elsewhere.
            if not self.killed:
                self._record_lost_replica(segment, slot)
        except Interrupt:
            pass  # killed while the close was in flight

    # ------------------------------------------------------------------
    # dispatch and workers
    # ------------------------------------------------------------------

    # Ops served by the collocated backup service's own threads (they
    # never issue nested RPCs, which is what makes the split
    # deadlock-free; see ServerConfig.backup_worker_threads).
    # ``server_list`` rides the backup queue too: membership updates
    # must keep flowing even when every master worker is wedged behind
    # the log lock (and the handler issues no nested RPCs).  ``ping``
    # does not: liveness probes are answered inline by the dispatch
    # thread (below), because a backup worker stuck behind a queue of
    # long recovery reads means "busy", not "dead".
    _BACKUP_OPS = frozenset({
        "replicate_append", "replicate_close", "replicate_segment",
        "recovery_read", "free_replica", "server_list", "backup_read",
    })

    # Index-entry maintenance from other masters' write paths: served
    # by the dedicated index worker (see install_index_config) so a
    # fleet of masters blocking on each other's index appends cannot
    # exhaust the shared worker pool in a circular wait.
    _INDEX_OPS = frozenset({"index_write", "index_remove"})

    # Client-facing data ops subject to per-tenant admission control
    # (maintenance traffic — replication, index appends, recovery — is
    # never throttled: stalling it would wedge the writers it serves).
    _TENANT_OPS = frozenset({
        "read", "write", "delete", "multiread", "search", "index_lookup",
    })

    def _dispatch_loop(self) -> Generator:
        """The pinned polling thread: inbox → per-request handoff cost →
        worker queue.  Its core is accounted 100 % busy by pin_core().

        Bulk data arriving for this server (recovery segment fetches)
        also crosses the dispatch thread (``_rx`` pseudo-requests),
        stalling the dispatch of concurrent client requests — the
        paper's Fig. 10 collateral damage on live-data reads.

        With ``dispatch_mode == "adaptive"`` (repro.powermgmt), an
        empty inbox sends the thread through :meth:`_dispatch_idle_wait`
        — bounded busy-polling, then an interrupt-style block that
        releases the pinned core's busy accounting — before the normal
        handoff.

        The handoff cost runs on the dispatch core (already pinned, so
        it is pure latency/serialization, not extra utilization) from
        the moment a request is taken.  In "poll" mode that is one
        delayed get; adaptive mode keeps a plain get and a timer,
        because its idle wait watches the get.
        """
        sim = self.sim
        inbox = self.inbox
        cost = self.cost
        while True:
            if self.dispatch_mode == "adaptive":
                get = inbox.get()
                if not get.triggered:
                    yield from self._dispatch_idle_wait(get)
                request = yield get
                yield sim.timeout(cost.dispatch_per_request)
            else:
                request = yield inbox.get(cost.dispatch_per_request)
            if request.op == "_rx":
                yield sim.timeout(request.args)
                request.respond(None)
            elif request.op == "ping":
                # Answered from the dispatch thread itself, as in
                # RAMCloud where the failure detector sits at transport
                # level.  Routing pongs through a worker queue turns
                # every long queue wedge (e.g. a backup grinding
                # through 32 MB recovery reads) into a false-positive
                # death — and with it a cascade of recoveries.
                yield sim.timeout(cost.ping_service)
                request.respond(("pong", self.server_list_version))
            elif request.op in self._BACKUP_OPS:
                self.backup_queue.put(request)
            elif request.op in self._INDEX_OPS:
                # Installed before any index op can arrive (the
                # coordinator pushes configs at create_index/enlist).
                self._index_queue.put(request)
            elif self._tenant_throttles and not self._admit_tenant(request):
                pass  # failed fast with RetryLater inside _admit_tenant
            elif (self.config.overload_queue_limit is not None
                  and len(self.worker_queue)
                  >= self.config.overload_queue_limit):
                self._drop_overloaded(request)
            else:
                self.worker_queue.put(request)

    def _dispatch_idle_wait(self, get) -> Generator:
        """Adaptive dispatch (docs/POWER.md): busy-poll the empty inbox
        for ``POLL_IDLE_THRESHOLD`` intervals, then block interrupt-style.

        While blocked the pinned core is accounted idle
        (:meth:`Cpu.pinned_core_idle`), which is what collapses the
        paper's 25 % idle-CPU floor; the price is
        ``DISPATCH_WAKE_LATENCY`` added to the request that ends the
        nap — the busy-poll/wake-latency trade the paper's §X points at.
        Returns with ``get`` triggered.
        """
        polls = 0
        while not get.triggered and polls < POLL_IDLE_THRESHOLD:
            # Not cpu.spin_wait: the pinned core is already accounted
            # busy, so the poll takes no spin lease.
            yield SpinWait(self.sim, get, POLL_INTERVAL, wake=True)
            polls += 1
        if get.triggered:
            return
        self.dispatch_sleeps += 1
        self.node.cpu.pinned_core_idle()
        try:
            yield get
        finally:
            # Also runs when kill() interrupts a sleeping dispatch
            # thread (pinned_core_busy is lenient about the unpin
            # having already cleared the idle state).
            self.node.cpu.pinned_core_busy()
        yield self.sim.timeout(DISPATCH_WAKE_LATENCY)

    def _admit_tenant(self, request: RpcRequest) -> bool:
        """Per-tenant admission on the dispatch path (only reached when
        at least one tenant has a rate cap).  Non-blocking by design:
        the dispatch thread must never sleep on a tenant's behalf, so
        an over-budget request is failed with RetryLater immediately —
        the client's normal backoff absorbs the drop — and counted on
        the tenant's token bucket."""
        if request.op not in self._TENANT_OPS:
            return True
        throttle = self._tenant_throttles.get(request.args[0])
        if throttle is None or throttle.try_admit(self.sim.now):
            return True
        self.requests_throttled += 1
        request.fail(RetryLater(
            f"tenant {throttle.tenant} over its admission rate "
            f"at {self.server_id}"))
        return False

    def _drop_overloaded(self, request: RpcRequest) -> None:
        """Admission control past ``overload_queue_limit``: drop the
        request on the floor.  The caller hears nothing and waits out
        its full rpc_timeout — the 1 s stall behind the paper's §VI
        "excessive timeouts" crashes.  A failsafe at 2x the timeout
        closes the reply for callers that never imposed a deadline of
        their own (or were interrupted first), so no event leaks.
        """
        self.requests_dropped += 1
        failsafe = self.sim.timeout(2.0 * self.config.rpc_timeout)

        def _close_reply(_ev, request=request):  # simlint: disable=PERF002 drop path must capture its request
            request.fail(RpcTimeout(
                f"{request.op} dropped by {self.server_id} under overload"))

        failsafe.add_callback(_close_reply)

    def _dispatch_rx(self, nbytes: int) -> Generator:
        """Pass ``nbytes`` of received bulk data through the dispatch
        thread (see :meth:`_dispatch_loop`)."""
        rx = RpcRequest(self.sim, "_rx", self.cost.dispatch_rx_per_byte
                        * nbytes, 0, 0.0, self.node)
        self.inbox.put(rx)
        yield rx.reply

    def _serve_queue(self, queue: Store) -> Generator:
        # The worker-thread inner loop: every served request resumes
        # this generator several times, so loop-invariant lookups are
        # bound once (self.core_parking / self.dispatch_mode stay
        # attribute reads — they are runtime-mutable policy knobs).
        sim = self.sim
        cpu = self.node.cpu
        worker_spin = self.cost.worker_spin
        handlers = self._HANDLERS
        while True:
            get = queue.get()
            if get.triggered:
                request = yield get
            else:
                # Spin-then-sleep: busy-poll briefly for the next request
                # before blocking (RAMCloud's nanoscheduling; see
                # CostModel.worker_spin).  The window is a CPU spin
                # lease: one that runs out empty schedules nothing, and
                # a request arriving inside it resumes this worker one
                # hop after its get.  Under core parking (read at wait
                # start, like every policy knob) a timer also wakes the
                # worker at the window's end, where it parks.
                wait = cpu.spin_wait(get, worker_spin, self.core_parking)
                try:
                    request = yield wait
                finally:
                    cpu.spin_end(wait.until)
                if request is None:
                    # The parking timer ended the window.  If it ended
                    # empty, power-gate this worker's core while blocked
                    # (docs/POWER.md); the wake pays core_wake_latency
                    # before serving.  try_park_core refuses when it
                    # would strand a runner or park the last core.
                    if (not get.triggered and self.core_parking
                            and cpu.try_park_core()):
                        self.core_parks += 1
                        try:
                            yield get
                        finally:
                            cpu.unpark_core()
                        yield sim.timeout(self.config.core_wake_latency)
                    request = yield get
            self.active_workers += 1
            try:
                handler = handlers.get(request.op)
                if handler is None:
                    request.fail(ValueError(f"unknown op {request.op!r}"))
                else:
                    yield from handler(self, request)
            except Interrupt:
                if not request.reply.triggered:
                    request.fail(NodeUnreachable(f"{self.server_id} crashed"))
                raise
            except (NodeUnreachable, RpcTimeout, RamCloudError) as exc:
                if not request.reply.triggered:
                    request.fail(exc)
            finally:
                # Each += / -= is atomic within its step; the gauge is
                # *meant* to span the service yield (it counts busy
                # workers).
                self.active_workers -= 1  # simlint: disable=SIM006 gauge

    # ------------------------------------------------------------------
    # master ops
    # ------------------------------------------------------------------

    def _handle_read(self, request: RpcRequest) -> Generator:
        table_id, key, h, span, epoch = request.args
        yield from self.node.cpu.execute(self.cost.read_service)
        self._check_ownership(table_id, key, h, span, epoch)
        entry = self.hashtable.lookup(table_id, key)
        if entry is None:
            request.fail(ObjectDoesntExist(f"t{table_id}/{key}"))
            return
        self.ops_completed += 1
        self.reads_completed += 1
        request.respond((entry.value, entry.version, entry.value_size))

    def _append_locked(self, table_id: int, key: str, value_size: int,
                       value: Optional[bytes],
                       is_tombstone: bool,
                       expected_version: Optional[int] = None,
                       require_exists: bool = False,
                       index_keys: Optional[Tuple[Tuple[int, str], ...]]
                       = None) -> Generator:
        """The serialized log-append critical section.

        Returns ``(segment, entry, closed_segment, old_index_keys)``.
        ``old_index_keys`` is the displaced (or deleted) entry's
        ``index_keys`` — the write path diffs it against the new pairs
        to decide which index entries to add and which became stale.
        The critical section's CPU cost scales with concurrently-active
        workers — the contention the paper blames for update-heavy
        collapse.

        ``expected_version`` / ``require_exists`` are checked *inside*
        the lock, immediately after acquisition: checking them before
        acquiring would be a check-then-act race — a concurrent writer
        could change the object between the check and the append, and
        a conditional write would overwrite a version it never saw.
        On violation the lock is released and :class:`StaleVersion` /
        :class:`ObjectDoesntExist` raised (no version is consumed).
        """
        self._ensure_head_replicated()
        charged_crit = False
        log_lock = self.log_lock
        cpu = self.node.cpu
        hashtable = self.hashtable
        for _attempt in range(200):
            token = log_lock.acquire()
            # Contending writers busy-poll on the log head (the
            # active contention — cache-line bouncing, futex storms —
            # that makes update-heavy draw MORE power than read-only
            # per node, paper Fig. 4a).  Flattened spin accounting: the
            # write path traverses this section once per update.
            cpu.spin_begin()
            try:
                yield token
            except BaseException:
                log_lock.abort(token)
                raise
            finally:
                cpu.spin_end()
            try:
                if expected_version is not None or require_exists:
                    found = hashtable.lookup(table_id, key)
                    if require_exists and found is None:
                        raise ObjectDoesntExist(f"t{table_id}/{key}")
                    if expected_version is not None:
                        current = found.version if found is not None else 0
                        if current != expected_version:
                            raise StaleVersion(
                                f"t{table_id}/{key}: expected "
                                f"v{expected_version}, at v{current}")
                if not charged_crit:
                    writers = log_lock.queue_length + 1
                    other_active = max(0, self.active_workers - writers)
                    crit = self.cost.write_crit(
                        writers, other_active,
                        queued=len(self.worker_queue))
                    yield from cpu.execute(crit)
                    charged_crit = True
                try:
                    version = self._next_version
                    segment, entry, closed = self.log.append(
                        table_id, key, value_size, version,
                        value=value, is_tombstone=is_tombstone,
                        index_keys=index_keys)
                except LogOutOfMemory:
                    segment = None
                else:
                    self._next_version += 1
                    if is_tombstone:
                        displaced = hashtable.remove(table_id, key)
                    else:
                        displaced = hashtable.insert(table_id, key, entry)
                    if self.index_configs and table_id in self.index_configs:
                        # This append IS an index entry: the sorted
                        # range structure moves in lock-step with the
                        # hash table (same lock, same step).
                        if is_tombstone:
                            self.index_entries.remove(table_id, key)
                        else:
                            self.index_entries.insert(table_id, key)
                    old_index_keys = (displaced.index_keys
                                      if displaced is not None else None)
            finally:
                log_lock.release(token)
            if segment is not None:
                return segment, entry, closed, old_index_keys
            # Log full: stall until the cleaner frees space (RAMCloud
            # blocks writes behind the cleaner rather than failing).
            yield self.sim.timeout(0.02)
        raise RetryLater(f"{self.server_id}: log full, cleaner starved")

    def _acquire(self, lock: Mutex) -> Generator:
        """Wait for ``lock``; returns the granted token, which the
        caller releases in a ``finally``.  If the wait is interrupted —
        migration, recovery lanes and the cleaner are all killed with
        their node — the queued request is withdrawn so the lock is not
        leaked.  (:meth:`_append_locked` keeps its own flattened copy:
        it is the hot path.)"""
        token = lock.acquire()
        try:
            yield token
        except BaseException:
            lock.abort(token)
            raise
        return token

    def _insert_versioned(self, table_id: int, key: str, value_size: int,
                          version: int, value: Optional[bytes],
                          index_keys) -> None:
        """Insert one record whose version is already decided — bulk
        load, a migrating shard, crash-recovery replay — into the log,
        the hash table and (for an index entry) the sorted view, in one
        step under the log lock.

        The record keeps its acknowledged version, so this master's
        counter must advance past it — otherwise a later write could
        re-issue an already-acknowledged version number for different
        data, and a client holding the old (value, version) pair could
        never detect the change.
        """
        _segment, entry, _closed = self.log.append(
            table_id, key, value_size, version, value, False, False,
            index_keys)
        self.hashtable.insert(table_id, key, entry)
        if self.index_configs and table_id in self.index_configs:
            self.index_entries.insert(table_id, key)
        if version >= self._next_version:
            self._next_version = version + 1

    def _replicate_append(self, segment: Segment, nbytes: int, upto: int,
                          spin: bool) -> Generator:
        """Push ``nbytes`` of appended log to every backup of
        ``segment`` and wait for every acknowledgement before
        returning.  ``upto`` is the segment's entry count the bytes
        reach up to: the applied-prefix watermark the backup records
        (see :class:`SegmentReplica`).

        The one replication mechanism; the consistency level only
        decides who calls it.  SYNC_RF calls it from the write path,
        per entry, with ``spin`` set — the strong-consistency rule the
        paper identifies as a major cost ("it has to wait for the
        acknowledgements from the backups ... crucial for providing
        strong consistency guarantees", §VI).  ASYNC_BOUNDED/EVENTUAL
        call it from the background flusher, per batched segment,
        blocking plainly on the acks (:meth:`_flush_pending`).

        Raises :class:`StaleEpoch` (after fencing this server) if a
        backup's server-list epoch marks us dead — a zombie's bytes
        must never reach the durable log.  On the write path the
        client's request fails, it refreshes its map and retries at the
        new owner; the flusher stops.
        """
        for slot, backup_id in enumerate(segment.replica_backups):
            if (backup_id in self.dead_view
                    or (segment.segment_id, slot) in self.under_replicated):
                # Known-lost replica (dead backup, or an earlier append
                # already failed): write through degraded, the repair
                # loop re-replicates the whole segment asynchronously.
                self._record_lost_replica(segment, slot)
                continue
            backup = self.coordinator.lookup_server(backup_id)
            if backup is None:
                continue
            yield from self.node.cpu.execute(self.cost.replication_send)
            call = backup.call(
                self.node, "replicate_append",
                args=(self.server_id, segment.segment_id, nbytes, upto),
                size_bytes=nbytes + 64, response_bytes=64,
                timeout=self.config.rpc_timeout,
            )
            try:
                if spin:
                    # The worker busy-polls for the backup's
                    # acknowledgement (RPC waits spin in RAMCloud):
                    # replication raises power per node with the
                    # replication factor (paper Fig. 7).
                    yield from self.node.cpu.spinning(call)
                else:
                    yield from call
            except StaleEpoch:
                self._fence()
                raise
            except (NodeUnreachable, RpcTimeout):
                # The backup went silent mid-replication: record the
                # lost replica and continue degraded; repair runs in
                # the background rather than stalling this write.
                self._record_lost_replica(segment, slot)

    def _replace_backup(self, segment: Segment, slot: int):
        """A backup of ``segment`` is dead: pick a replacement from our
        server-list view and re-replicate the segment's current contents
        to it (RAMCloud's backup-failure handling keeps every segment at
        full replication).

        Returns the new backup server, or None if no candidate exists
        or the replacement could not be reached.  Raises
        :class:`StaleEpoch` (after fencing) if the replacement's epoch
        marks us dead.
        """
        current = list(segment.replica_backups)
        candidates = [sid for sid in self.live_view
                      if sid != self.server_id and sid not in current]
        if not candidates:
            return None
        new_id = self.stream.choice(candidates)
        backup = self.coordinator.lookup_server(new_id)
        if backup is None:
            return None
        yield from self.node.cpu.execute(self.cost.replication_send)
        try:
            yield from backup.call(
                self.node, "replicate_segment",
                args=(self.server_id, segment.segment_id,
                      max(segment.bytes_used, 1)),
                size_bytes=segment.bytes_used + 64, response_bytes=64,
                timeout=self.config.rpc_timeout,
            )
        except StaleEpoch:
            self._fence()
            raise
        except (NodeUnreachable, RpcTimeout):
            return None
        current[slot] = new_id
        segment.replica_backups = tuple(current)
        return backup

    # ------------------------------------------------------------------
    # batched replication (ASYNC_BOUNDED / EVENTUAL writes)
    # ------------------------------------------------------------------

    def _async_enqueue(self, segment: Segment, entry: LogEntry,
                       upto: int) -> Generator:
        """Queue one acknowledged write for batched replication.

        The ack does not wait for backups; the staleness bound is held
        two ways — the flusher ships the batch within a quarter of
        ``staleness_bound_seconds`` of its oldest ack, and once
        ``staleness_bound_bytes`` of acknowledged-but-unreplicated
        bytes accumulate the writer backpressures *here*, before
        acking, so the byte bound holds even under overload.

        All machinery is lazily built on the first async write:
        SYNC_RF-only runs never create the flusher process or its
        queue, keeping the default path bit-identical.
        """
        if self._flush_queue is None:
            self._flush_queue = Store(self.sim,
                                      name=f"{self.server_id}:flush")
            self._flusher = self._spawn(self._async_flush_loop(),
                                        name=f"{self.name}:flusher")
        bound = self.config.staleness_bound_bytes
        while (self.unreplicated_bytes + entry.log_bytes > bound
               and not (self.killed or self.fenced)):
            # Backpressure: the bound is at risk — hold the ack until
            # the flusher drains.
            yield self.sim.timeout(self.config.staleness_bound_seconds / 8.0)
        if self.killed or self.fenced:
            return
        was_empty = not self._repl_pending
        self._repl_pending.append((segment, entry, upto, self.sim.now))
        self.unreplicated_bytes += entry.log_bytes
        self.async_writes_acked += 1
        if was_empty:
            # Wake an idle flusher; while a batch is already pending
            # the flusher is awake and will pick this entry up too.
            self._flush_queue.put("wake")

    def _async_flush_loop(self) -> Generator:
        """One background flusher per master (lazily spawned, see
        :meth:`_async_enqueue`): ships the pending batch no later than
        ``staleness_bound_seconds/4`` after its oldest ack — or as soon
        as half the byte bound accumulates — leaving three quarters of
        the bound as delivery margin, so backup-apply-time staleness
        stays inside the bound while this master is alive."""
        sim = self.sim
        interval = self.config.staleness_bound_seconds / 4.0
        half_bound = max(1, self.config.staleness_bound_bytes // 2)
        try:
            while not (self.killed or self.fenced):
                yield self._flush_queue.get()
                while self._repl_pending and not (self.killed
                                                  or self.fenced):
                    deadline = self._repl_pending[0][3] + interval
                    while (self._repl_pending and sim.now < deadline
                           and self.unreplicated_bytes < half_bound):
                        yield sim.timeout(min(interval / 4.0,
                                              deadline - sim.now))
                    yield from self._flush_pending()
        except Interrupt:
            pass  # killed with a batch in flight: the tail is lost
        except StaleEpoch:
            pass  # fenced mid-flush; the pending tail must never land

    def _flush_pending(self) -> Generator:
        """Ship everything queued: one ``replicate_append`` per
        (segment, backup) pair covering the whole batch — the batching
        that makes ASYNC_BOUNDED cheaper than per-entry sync
        replication.  Runs on the background flusher, so the wait for
        backup acks is a plain block (no ack-spin CPU): that, plus the
        amortized send cost, is the §IX throughput/energy win."""
        batch = self._repl_pending
        self._repl_pending = []
        oldest = batch[0][3]
        # segment_id → [segment, batched bytes, max upto]
        per_segment: Dict[int, list] = {}
        for segment, entry, upto, _acked_at in batch:
            rec = per_segment.get(segment.segment_id)
            if rec is None:
                per_segment[segment.segment_id] = [segment,
                                                   entry.log_bytes, upto]
            else:
                rec[1] += entry.log_bytes
                rec[2] = max(rec[2], upto)
        for segment_id in sorted(per_segment):
            segment, nbytes, upto = per_segment[segment_id]
            yield from self._replicate_append(segment, nbytes, upto,
                                              spin=False)
            self.unreplicated_bytes -= nbytes
        staleness = self.sim.now - oldest
        if staleness > self.max_observed_staleness:
            self.max_observed_staleness = staleness

    def _handle_write(self, request: RpcRequest) -> Generator:
        """Write one object.  ``expected_version`` (if not None) makes
        the write conditional — RAMCloud's reject-rules, the primitive
        its linearizable read-modify-write builds on [10]."""
        (table_id, key, h, value_size, value, span, expected_version, epoch,
         level, index_keys) = request.args
        return self._mutate(request, table_id, key, h, span, epoch, level,
                            "ops_completed", value_size, value,
                            expected_version=expected_version,
                            index_keys=index_keys)

    def _handle_delete(self, request: RpcRequest) -> Generator:
        table_id, key, h, span, epoch, level = request.args
        return self._mutate(request, table_id, key, h, span, epoch, level,
                            "ops_completed", is_tombstone=True)

    def _mutate(self, request: RpcRequest, table_id: int, key: str, h: int,
                span: int, epoch: Optional[int], level: Optional[str],
                counter: str, value_size: int = 0,
                value: Optional[bytes] = None, is_tombstone: bool = False,
                expected_version: Optional[int] = None,
                index_keys: Optional[Tuple[Tuple[int, str], ...]]
                = None) -> Generator:
        """The one mutation path — append, charge, replicate, answer —
        behind write, delete, index_write and index_remove.  The
        handlers hand this generator straight to the worker loop (no
        frame of their own) and differ only in what they append and in
        ``counter``, the per-kind statistic bumped on success next to
        ``writes_completed``.  A tombstone requires the object to
        exist."""
        if level is None:
            # Tenant default first (empty dict unless tenants exist),
            # then the cluster-wide config default.
            level = self._tenant_defaults.get(table_id,
                                              self.config.default_consistency)
        self._check_ownership(table_id, key, h, span, epoch)
        try:
            segment, entry, closed, old_index_keys = \
                yield from self._append_locked(
                    table_id, key, value_size, value, is_tombstone,
                    expected_version=expected_version,
                    require_exists=is_tombstone, index_keys=index_keys)
        except StaleVersion as exc:
            yield from self.node.cpu.execute(self.cost.read_service)
            request.fail(exc)
            return
        del closed  # backups were notified by the on_close callback
        # The segment's entry count right after the append (no yields
        # intervene): the applied-prefix watermark the backups record.
        upto = len(segment.entries)
        yield from self.node.cpu.execute(self.cost.write_service)
        # Index maintenance, crash-ordered: new entries land BEFORE the
        # data record replicates (a crash can leave a dangling entry,
        # which index_lookup validation filters — never a missing one
        # for an acknowledged write); stale entries are removed only
        # AFTER replication, so a crash in between leaves filterable
        # garbage, not lost index coverage.  For a delete every entry
        # is stale: they come off only after the tombstone is durable,
        # never resurrecting an object.  (Index entries themselves
        # carry no index keys, so the index ops skip all of this.)
        added = stale = ()
        if index_keys or old_index_keys:
            added, stale = self._diff_index_keys(index_keys, old_index_keys)
        for index_id, secondary in added:
            yield from self._index_entry_rpc(
                "index_write", index_id, encode_entry_key(secondary, key),
                level)
        if self.config.replication_factor > 0:
            if level == SYNC_RF:
                yield from self._replicate_append(segment, entry.log_bytes,
                                                  upto, spin=True)
            else:
                # ASYNC_BOUNDED / EVENTUAL: ack after the local append;
                # the flusher replicates in batches within the bound.
                yield from self._async_enqueue(segment, entry, upto)
        for index_id, secondary in stale:
            yield from self._index_entry_rpc(
                "index_remove", index_id, encode_entry_key(secondary, key),
                level)
        self.writes_completed += 1
        setattr(self, counter, getattr(self, counter) + 1)
        request.respond(entry.version)

    def _handle_multiread(self, request: RpcRequest) -> Generator:
        """Batched read (RAMCloud's MultiRead RPC): one dispatch, one
        worker pass over many keys.  YCSB's scans map onto this.
        ``keys`` holds ``(key, key_hash(key))`` pairs."""
        table_id, keys, span, epoch = request.args
        yield from self.node.cpu.execute(
            self.cost.multiread_batch_overhead
            + self.cost.multiread_per_key * len(keys))
        results = {}
        for key, h in keys:
            self._check_ownership(table_id, key, h, span, epoch)
            entry = self.hashtable.lookup(table_id, key)
            if entry is not None:
                results[key] = (entry.value, entry.version, entry.value_size)
        self.ops_completed += len(keys)
        self.reads_completed += len(keys)
        request.respond(results)

    # ------------------------------------------------------------------
    # secondary indexes (repro.ramcloud.indexing)
    # ------------------------------------------------------------------

    @staticmethod
    def _diff_index_keys(index_keys, old_index_keys):
        """Diff a write's (index_id, secondary) pairs against the
        displaced entry's: returns ``(added, stale)``."""
        new_pairs = tuple(index_keys or ())
        old_pairs = tuple(old_index_keys or ())
        added = tuple(p for p in new_pairs if p not in old_pairs)
        stale = tuple(p for p in old_pairs if p not in new_pairs)
        return added, stale

    def _index_entry_rpc(self, op: str, index_id: int, entry_key: str,
                         level: Optional[str]) -> Generator:
        """Apply one index-entry mutation at the owning indexlet master
        (the synchronous index maintenance of the write path).

        Routing peeks the coordinator's tablet map — the same modeling
        shortcut as ``lookup_server``; a stale peek fails at the target
        with WrongServer/RetryLater and is retried against a fresh one.
        Removes tolerate ObjectDoesntExist: a crash window (or a replay
        racing a migration) can have taken the entry off already.
        """
        for _attempt in range(64):
            if self.killed or self.fenced:
                return
            route = self.coordinator.index_entry_route(index_id, entry_key)
            if route is None:
                return  # index dropped while the write was in flight
            owner_id, span, h = route
            target = self.coordinator.lookup_server(owner_id)
            if target is None:
                yield self.sim.timeout(0.01)
                continue
            yield from self.node.cpu.execute(self.cost.index_maintain_send)
            call = target.call(
                self.node, op,
                args=(index_id, entry_key, h, span, None, level),
                size_bytes=len(entry_key) + 64, response_bytes=64,
                timeout=self.config.rpc_timeout,
            )
            try:
                # The write-path worker spins on the indexlet's ack,
                # exactly like a replication ack wait.
                yield from self.node.cpu.spinning(call)
                return
            except ObjectDoesntExist:
                return
            except (WrongServer, RetryLater, NodeUnreachable, RpcTimeout):
                yield self.sim.timeout(0.01)
        raise RetryLater(
            f"index {index_id} entry unreachable from {self.server_id}")

    def _handle_index_write(self, request: RpcRequest) -> Generator:
        """Append one index entry to this indexlet's log (sent by a
        data master's write path).  The entry is an ordinary log
        record: replicated at the write's consistency level, relocated
        by the cleaner, replayed by crash recovery."""
        index_id, entry_key, h, span, epoch, level = request.args
        return self._mutate(request, index_id, entry_key, h, span, epoch,
                            level, "index_inserts")

    def _handle_index_remove(self, request: RpcRequest) -> Generator:
        """Tombstone one index entry (a data delete, or an overwrite
        that changed the secondary key)."""
        index_id, entry_key, h, span, epoch, level = request.args
        return self._mutate(request, index_id, entry_key, h, span, epoch,
                            level, "index_removes", is_tombstone=True)

    def _handle_search(self, request: RpcRequest) -> Generator:
        """Range lookup over one indexlet *shard*: entry keys in
        ``[lo, hi)``, clipped to the indexlet's upper boundary, at most
        ``limit`` of them (``truncated`` tells the client to continue
        from the last returned key).  The client fans out across an
        indexlet's shards and walks indexlets in boundary order."""
        index_id, lo, hi, limit, span, shard, epoch = request.args
        boundaries = self.index_configs.get(index_id)
        if boundaries is None:
            raise WrongServer(
                f"{self.server_id} has no indexlet map for index "
                f"{index_id}")
        indexlet = indexlet_of(boundaries, lo)
        self._check_unit((index_id, indexlet, shard), epoch)
        hi_eff = hi
        if indexlet + 1 < len(boundaries) and boundaries[indexlet + 1] < hi:
            hi_eff = boundaries[indexlet + 1]
        shard_count = self.tablet_shards.get((index_id, indexlet), 1)
        scanned = self.index_entries.range(index_id, lo, hi_eff)
        matches = []
        truncated = False
        for entry_key in scanned:
            if shard_count > 1 and shard_of(key_hash(entry_key), span,
                                            shard_count) != shard:
                continue
            if len(matches) >= limit:
                truncated = True
                break
            matches.append(entry_key)
        yield from self.node.cpu.execute(
            self.cost.search_base
            + self.cost.search_per_entry * max(1, len(scanned)))
        self.ops_completed += 1
        self.reads_completed += 1
        self.searches_served += 1
        request.respond((tuple(matches), truncated))

    def _handle_index_lookup(self, request: RpcRequest) -> Generator:
        """Validate-and-fetch for search results: for each
        ``(primary, index_id, secondary)`` item, return the object only
        if it still carries that secondary key — the filter that makes
        dangling index entries (crash windows, concurrent deletes)
        invisible to readers.  Each item also carries the primary key's
        hash."""
        table_id, items, span, epoch = request.args
        yield from self.node.cpu.execute(
            self.cost.multiread_batch_overhead
            + self.cost.multiread_per_key * len(items))
        results = {}
        for primary, h, index_id, secondary in items:
            self._check_ownership(table_id, primary, h, span, epoch)
            entry = self.hashtable.lookup(table_id, primary)
            if entry is None:
                continue
            pairs = entry.index_keys
            if pairs is not None and (index_id, secondary) in pairs:
                results[primary] = (entry.value, entry.version,
                                    entry.value_size)
        self.ops_completed += len(items)
        self.reads_completed += len(items)
        request.respond(results)

    # ------------------------------------------------------------------
    # backup ops
    # ------------------------------------------------------------------

    def _reject_if_fenced(self, request: RpcRequest,
                          master_id: str) -> bool:
        """Backup-side zombie fencing (the heart of the epoch protocol):
        refuse replication from any master our server-list epoch marks
        dead — its recovery may already be replaying the old replicas,
        and accepting the write would diverge the durable log.  A fenced
        backup likewise refuses everything: it is out of the cluster.

        Fails the request and returns True when rejecting.
        """
        if self.fenced:
            request.fail(NodeUnreachable(
                f"{self.server_id} is fenced (evicted from the cluster)"))
            return True
        if master_id in self.dead_view:
            request.fail(StaleEpoch(
                f"{self.server_id} rejects {request.op} from {master_id}: "
                f"evicted as of epoch {self.server_list_version}"))
            return True
        return False

    def _replica_for(self, master_id: str, segment: Segment) -> SegmentReplica:
        key = (master_id, segment.segment_id)
        replica = self.replicas.get(key)
        if replica is None:
            replica = SegmentReplica(master_id, segment)
            self.replicas[key] = replica
        return replica

    def _handle_replicate_append(self, request: RpcRequest) -> Generator:
        master_id, segment_id, nbytes, upto = request.args
        if self._reject_if_fenced(request, master_id):
            return
        load = (len(self.backup_queue) + len(self.worker_queue)
                + self.active_workers - 1)
        yield from self.node.cpu.execute(self.cost.replication_cost(load))
        master = self.coordinator.lookup_server(master_id)
        if master is not None:
            segment = master.log.segments.get(segment_id)
            if segment is not None:
                replica = self._replica_for(master_id, segment)
                replica.nbytes += nbytes
                self._advance_watermark(replica, upto)
        self.replications_handled += 1
        request.respond("ack")

    def _advance_watermark(self, replica: SegmentReplica, upto: int,
                           top: Optional[int] = None) -> None:
        """Record that ``replica`` now durably holds its segment's
        first ``upto`` entries, and advance this backup's per-master
        version watermark to the highest version in the newly-applied
        slice.  Sync acks can arrive out of segment order (RF > 1,
        concurrent writers), so both advances are monotonic maxes.

        A caller that knows ``top``, the highest version among the
        segment's first ``upto`` entries, passes it in: the part of them
        already applied is at or below the watermark, so the watermark
        ends the same."""
        old = replica.entries_applied
        if upto <= old:
            return
        replica.entries_applied = upto
        if top is None:
            applied = replica.segment.entries[old:upto]
            if not applied:
                return
            top = max(e.version for e in applied)
        if top > self.backup_watermarks.get(replica.master_id, 0):
            self.backup_watermarks[replica.master_id] = top

    def _handle_replicate_close(self, request: RpcRequest) -> Generator:
        master_id, segment_id = request.args
        if self._reject_if_fenced(request, master_id):
            return
        yield from self.node.cpu.execute(2.0e-6)
        replica = self.replicas.get((master_id, segment_id))
        if replica is not None and not replica.closed:
            replica.closed = True
            self._spawn(self._flush_replica(replica),
                        name=f"{self.name}:flush-{master_id}-{segment_id}")
        request.respond("ack")

    def _credit_disk(self, nbytes: int) -> None:
        """Count ``nbytes`` of replica data as stored on this backup's
        disk; bytes that no longer fit are left uncounted, not failed."""
        if self.node.disk.space.free >= nbytes:
            self.node.disk.space.put(nbytes)

    def _flush_replica(self, replica: SegmentReplica) -> Generator:
        """Spill a closed replica to disk and free its DRAM (§II-B:
        backups keep a segment copy in DRAM "until it fills. Only then,
        they will flush the segment to disk and remove it from DRAM")."""
        nbytes = replica.size
        yield from self.node.disk.write(nbytes, stream_id=replica.key)
        replica.on_disk = True
        self._credit_disk(nbytes)

    def _handle_replicate_segment(self, request: RpcRequest) -> Generator:
        """Whole-segment replication during recovery re-replication.

        Unlike steady-state appends, recovery replicas are flushed to
        disk before acknowledging: a recovery that buffered everything
        in DRAM would leave the cluster one failure away from data
        loss, so RAMCloud forces recovery segments down early — this is
        the write burst of Fig. 12.
        """
        master_id, segment_id, nbytes = request.args
        if self._reject_if_fenced(request, master_id):
            return
        yield from self.node.cpu.execute(
            self.cost.replication_segment_per_byte * nbytes)
        master = self.coordinator.lookup_server(master_id)
        if master is not None:
            segment = master.log.segments.get(segment_id)
            if segment is not None:
                replica = self._replica_for(master_id, segment)
                replica.nbytes = nbytes
                replica.closed = True
                replica.on_disk = True
                # Whole-segment replication ships the full current
                # contents: the applied prefix is everything.
                self._advance_watermark(replica, len(segment.entries))
        yield from self.node.disk.write(nbytes, stream_id=(master_id, "recov"))
        self._credit_disk(nbytes)
        self.replications_handled += 1
        request.respond("ack")

    def _handle_recovery_read(self, request: RpcRequest) -> Generator:
        """Serve a crashed master's segment to a recovery master.

        The first read of a segment pays the disk read; the backup then
        keeps it in memory, so other recovery masters fetching their
        share of the same segment skip the disk.  The backup partitions
        the replica once and sends each recovery master only the
        entries of its own units (:meth:`SegmentReplica.recovery_entries`).
        """
        (master_id, segment_id, share, units, spans, index_ranges,
         shard_counts) = request.args
        replica = self.replicas.get((master_id, segment_id))
        if replica is None:
            request.fail(ObjectDoesntExist(
                f"no replica of {master_id}/seg{segment_id}"))
            return
        nbytes = replica.size
        if replica.on_disk and not replica.cached:
            yield from self.node.disk.read(nbytes, stream_id=replica.key)
            replica.cached = True
        served = max(1, int(nbytes * share))
        yield from self.node.cpu.execute(
            self.cost.recovery_read_per_byte * served)
        # Serve only the prefix this backup durably applied (see
        # SegmentReplica.entries_applied): an ASYNC_BOUNDED master's
        # acknowledged-but-unreplicated tail is honestly lost here —
        # the durability-gap harness counts exactly these entries.
        request.respond((replica.recovery_entries(
            units, spans, index_ranges, shard_counts), served))

    def _handle_backup_read(self, request: RpcRequest) -> Generator:
        """EVENTUAL read served from this backup's replicated state.

        The client sends its per-master session watermark (the highest
        version it has written there); we serve only when our applied
        watermark covers both that token and the object's own version,
        and we actually hold a replica of the object's segment —
        otherwise :class:`BackupBehind` redirects the client to the
        master (a routed retry, never a backoff-counted failure).

        Availability semantics: a backup keeps serving through the
        undetected-crash window of its master (the EVENTUAL read's
        availability win — and the race the ``pytest -m faults``
        scenario exercises), but once its server-list view marks the
        master dead it refuses with StaleEpoch, exactly as it fences
        the master's replication.

        Modeling shortcut: the object lookup consults the master's
        hash table (the replica byte copy is modeled by reference, as
        in :class:`SegmentReplica`), but *visibility* is gated on this
        backup's own applied watermark — which is the part that
        matters for staleness and read-your-writes.
        """
        master_id, table_id, key, _span, client_watermark = request.args
        if self._reject_if_fenced(request, master_id):
            return
        yield from self.node.cpu.execute(self.cost.read_service)
        watermark = self.backup_watermarks.get(master_id, 0)
        if client_watermark > watermark:
            # Session check: the client has writes we have not applied.
            request.fail(BackupBehind(
                f"{self.server_id} applied {master_id} up to v{watermark}, "
                f"client session requires v{client_watermark}"))
            return
        master = self.coordinator.lookup_server(master_id)
        if master is None:
            request.fail(BackupBehind(f"no replica source for {master_id}"))
            return
        entry = master.hashtable.lookup(table_id, key)
        if entry is None:
            # Unknown key: cannot distinguish "never existed" from
            # "not yet replicated" — let the master decide.
            request.fail(BackupBehind(
                f"t{table_id}/{key} not in replicated state"))
            return
        if (master_id, entry.segment_id) not in self.replicas:
            request.fail(BackupBehind(
                f"{self.server_id} holds no replica of "
                f"{master_id}/seg{entry.segment_id}"))
            return
        if entry.version > watermark:
            request.fail(BackupBehind(
                f"t{table_id}/{key} v{entry.version} newer "
                f"than applied watermark v{watermark}"))
            return
        self.ops_completed += 1
        self.reads_completed += 1
        self.backup_reads_served += 1
        request.respond((entry.value, entry.version, entry.value_size))

    def _handle_migrate_in(self, request: RpcRequest) -> Generator:
        """Receive a migrating tablet shard: bulk-append the entries and
        take ownership (RAMCloud's MigrateTablet, used by the paper's
        §IX elastic-sizing discussion)."""
        unit, shard_count, entries, nbytes = request.args
        table_id, index, shard = unit
        yield from self._dispatch_rx(nbytes)
        replay_cpu = (len(entries) * self.cost.replay_per_entry
                      + nbytes * self.cost.replay_per_byte)
        yield from self.node.cpu.execute_sliced(replay_cpu)
        token = yield from self._acquire(self.log_lock)
        try:
            for entry in entries:
                self._insert_versioned(
                    entry.table_id, entry.key, entry.value_size,
                    entry.version, entry.value, entry.index_keys)
        finally:
            self.log_lock.release(token)
        self.take_tablet(unit, shard_count, ready=True)
        request.respond("migrated")

    def migrate_shard_out(self, unit, shard_count: int,
                          span: int, target) -> Generator:
        """Push one owned (tablet, shard) unit to ``target`` and drop it
        locally; ``yield from`` this from an orchestration process."""
        table_id, index, shard = unit
        if self.tablets.get(unit) is None:
            raise WrongServer(f"{self.server_id} does not own {unit}")
        boundaries = (self.index_configs.get(table_id)
                      if self.index_configs else None)
        moving = []
        nbytes = 0
        for key in list(self.hashtable.keys_for_table(table_id)):
            tablet, h = tablet_of(key, span, boundaries)
            if tablet != index or shard_of(h, span, shard_count) != shard:
                continue
            entry = self.hashtable.lookup(table_id, key)
            moving.append(entry)
            nbytes += entry.log_bytes
        # Stop serving the unit while it moves (brief unavailability;
        # clients retry through the map refresh).
        self.tablets[unit] = TabletStatus.RECOVERING
        yield from self.node.cpu.execute_sliced(
            nbytes * self.cost.replay_per_byte)
        yield from target.call(
            self.node, "migrate_in",
            args=(unit, shard_count, moving, nbytes),
            size_bytes=nbytes + 256, response_bytes=64,
            timeout=60.0,
        )
        # Drop the moved keys from the index under the log lock (index
        # mutations and entry liveness must stay consistent with the
        # cleaner's copy-forward); dead entries stay behind for it.
        token = yield from self._acquire(self.log_lock)
        try:
            for entry in moving:
                self.hashtable.remove(entry.table_id, entry.key)
                if self.index_configs and entry.table_id in self.index_configs:
                    self.index_entries.remove(entry.table_id, entry.key)
        finally:
            self.log_lock.release(token)
        self.drop_tablet(unit)
        return len(moving)

    def _handle_free_replica(self, request: RpcRequest) -> Generator:
        master_id, segment_id = request.args
        yield from self.node.cpu.execute(1.0e-6)
        replica = self.replicas.pop((master_id, segment_id), None)
        if replica is not None and replica.on_disk:
            self.node.disk.space.take(
                min(self.node.disk.space.level, replica.size))
        request.respond("ack")

    # ------------------------------------------------------------------
    # crash recovery (recovery-master role)
    # ------------------------------------------------------------------

    def _handle_recover_partition(self, request: RpcRequest) -> Generator:
        """Coordinator RPC: replay a partition of a crashed master.

        The replay runs as a dedicated background process — NOT holding
        a worker thread for the whole recovery, mirroring RAMCloud's
        recovery threads.  The worker only pays the scheduling cost; the
        background process answers the coordinator when the partition is
        durable.
        """
        if self.fenced:
            # An evicted server cannot be a recovery master; failing
            # fast lets the coordinator reassign the partition.
            request.fail(NodeUnreachable(
                f"{self.server_id} is fenced (evicted from the cluster)"))
            return
        plan = request.args
        self._spawn(self._run_recovery(request, plan),
                    name=f"{self.name}:recover")
        yield from self.node.cpu.execute(2.0e-6)

    def _run_recovery(self, request: RpcRequest, plan) -> Generator:
        try:
            lost = yield from self._recover_partition(plan)
        except Interrupt:
            if not request.reply.triggered:
                request.fail(NodeUnreachable(f"{self.server_id} crashed"))
            raise
        except BaseException as exc:
            if not request.reply.triggered:
                request.fail(exc)
            return
        request.respond(("recovered", lost))

    def _recover_partition(self, plan) -> Generator:
        """Fetch, filter, replay and re-replicate one recovery partition.

        ``plan`` carries: the crashed master id, the tablet ids this
        partition covers, the table spans, and for each segment the
        backup to read it from.  Replays go through the normal write
        path semantics (append + index + replicate) but batched per
        source segment, and pipelined ``pipeline_width`` segments deep —
        RAMCloud overlaps segment fetch, replay and re-replication,
        which is why recovery drives CPUs to >90 % (Fig. 9a).
        """
        crashed_id = plan["crashed_id"]
        # units: [(table_id, tablet_index, shard, shard_count)]
        units = list(plan["units"])
        spans = plan["spans"]  # table_id → span
        assignments = plan["segments"]  # [(segment_id, backup_id, nbytes)]
        share = plan.get("share", 1.0)
        pipeline_width = plan.get("pipeline_width", 3)
        # Indexlet boundaries for any index tables in this partition:
        # the recovery master must know them to range-route replayed
        # entries (and to serve Search once it takes ownership).  An
        # index is recovered exactly like data — never rebuilt by
        # scanning the base table.
        for index_id in sorted(plan.get("index_ranges", ())):
            self.install_index_config(index_id,
                                      plan["index_ranges"][index_id])

        # What each backup needs to pick out our units' entries.
        routing = (units, spans, plan.get("index_ranges"),
                   plan["shard_counts"])

        pending = list(assignments)
        lost_ids = set()

        def pump():
            while pending:
                segment_id, backup_id, nbytes = pending.pop(0)
                sources = [backup_id]
                recovered = False
                while True:
                    try:
                        yield from self._recover_one_segment(
                            crashed_id, segment_id, sources[-1], nbytes,
                            routing, share)
                        recovered = True
                        break
                    except StaleEpoch:
                        # WE were evicted mid-recovery (fenced inside
                        # the re-replication path): abandon the lane;
                        # the coordinator reassigns our partitions.
                        return
                    except (NodeUnreachable, RpcTimeout,
                            ObjectDoesntExist):
                        # The designated source died mid-recovery: fall
                        # back to any other live holder of this segment.
                        alternative = self._find_live_replica_source(
                            crashed_id, segment_id, exclude=sources)
                        if alternative is None:
                            break
                        sources.append(alternative)
                if not recovered:
                    # Master and every replica are gone: correlated
                    # failure, this segment's data is lost.
                    lost_ids.add(segment_id)

        lanes = [self._spawn(pump(), name=f"{self.name}:recover-lane{i}")
                 for i in range(min(pipeline_width, max(1, len(pending))))]
        yield self.sim.all_of(lanes)
        if self.fenced:
            # Evicted while recovering: never take ownership; fail the
            # coordinator's RPC so it reassigns the partition.
            raise NodeUnreachable(f"{self.server_id} fenced mid-recovery")
        # Partition replayed and durable: this master now owns the units.
        for table_id, index, shard, shard_count in units:
            self.take_tablet((table_id, index, shard), shard_count,
                             ready=True)
        # Ownership just moved because of a membership change: clients
        # still routing off a map that predates our current server-list
        # epoch get StaleEpoch until they refresh (cache invalidation).
        self.min_client_epoch = max(self.min_client_epoch,
                                    self.server_list_version)
        return sorted(lost_ids)

    def _find_live_replica_source(self, crashed_id: str, segment_id: int,
                                  exclude) -> Optional[str]:
        """Another holder of the segment, per OUR server-list view (no
        ground-truth liveness peek: a stale pick fails its RPC and the
        caller excludes it and asks again).  Peeking the candidate's
        replica index stands in for the replica inventory the
        coordinator collects at planning time."""
        for sid in self.live_view:
            if sid in exclude:
                continue
            backup = self.coordinator.lookup_server(sid)
            if backup is None:
                continue
            if (crashed_id, segment_id) in backup.replicas:
                return sid
        return None

    def _recover_one_segment(self, crashed_id: str, segment_id: int,
                             backup_id: str, nbytes: int, routing,
                             share: float) -> Generator:
        backup = self.coordinator.lookup_server(backup_id)
        if backup is None:
            raise NodeUnreachable(f"backup {backup_id} gone")
        # The backup partitions the segment and ships only this
        # partition's share of the bytes (the disk read, paid once, is
        # of course the whole segment).  The fetching thread busy-polls
        # while it waits — RAMCloud's polling discipline, which drives
        # whole machines past 90 % CPU during recovery (Fig. 9a).
        fetched = max(1, int(nbytes * share))
        entries, _actual_bytes = yield from self.node.cpu.spinning(
            backup.call(
                self.node, "recovery_read",
                args=(crashed_id, segment_id, share) + routing,
                size_bytes=64, response_bytes=fetched,
                timeout=30.0,
            ))
        # The fetched bytes cross this master's dispatch thread.
        yield from self._dispatch_rx(fetched)
        # The backup sent our units' entries only; skip the dead ones.
        mine = [entry for entry in entries if entry.live]
        if not mine:
            return
        my_bytes = sum(entry.log_bytes for entry in mine)
        # Data is re-inserted through the normal write path: one
        # serialized replay→re-replicate pipeline per master (Finding 6:
        # "data is re-inserted in the same fashion", so the Finding 3
        # degradation applies to recovery too).
        # Recovery threads poll while queueing for the stream.
        stream_token = yield from self.node.cpu.spinning(
            self._acquire(self.replay_lock))
        try:
            rf = self.config.replication_factor
            replay_cpu = (len(mine) * self.cost.replay_per_entry
                          + my_bytes * self.cost.replay_per_byte
                          + my_bytes * rf * self.cost.replay_replication_per_byte)
            yield from self.node.cpu.execute_sliced(replay_cpu)
            token = yield from self._acquire(self.log_lock)
            try:
                for entry in mine:
                    self._insert_versioned(
                        entry.table_id, entry.key, entry.value_size,
                        entry.version, entry.value, entry.index_keys)
            finally:
                self.log_lock.release(token)
            self.recovery_bytes_replayed += my_bytes
            # Ship the replayed batch to the new backups ("As the
            # segments are written to a server's memory, they are
            # replicated to new backups", §II-B), spinning through the
            # ack waits.
            if rf > 0:
                targets = self._choose_backups(if_short="all")
                for backup_id2 in targets:
                    target = self.coordinator.lookup_server(backup_id2)
                    if target is None:
                        continue
                    yield from self.node.cpu.execute(
                        self.cost.replication_send)
                    try:
                        yield from self.node.cpu.spinning(target.call(
                            self.node, "replicate_segment",
                            args=(self.server_id, self.log.head.segment_id,
                                  my_bytes),
                            size_bytes=my_bytes + 64, response_bytes=64,
                            timeout=30.0,
                        ))
                    except StaleEpoch:
                        self._fence()
                        raise
                    except (NodeUnreachable, RpcTimeout):
                        # Target died while we re-replicated: continue
                        # with the remaining targets; the durability
                        # hole is visible in the recovered segments'
                        # replica sets and repaired like any other.
                        continue
        finally:
            self.replay_lock.release(stream_token)

    # ------------------------------------------------------------------
    # cleaner
    # ------------------------------------------------------------------

    def _cleaner_loop(self) -> Generator:
        """Wake periodically; clean while memory utilization exceeds the
        threshold (§II-B: "a cleaning mechanism is triggered whenever a
        server reaches a certain memory utilization threshold")."""
        while True:
            yield self.sim.timeout(0.1)
            while (self.log.memory_utilization
                   >= self.config.cleaner_threshold
                   and not self.killed):
                cleaned = yield from self._clean_one_segment()
                if not cleaned:
                    break
                if (self.log.memory_utilization
                        < self.config.cleaner_low_watermark):
                    break

    def _clean_one_segment(self) -> Generator:
        candidates = self.log.cleanable_segments()
        if not candidates:
            return False
        victim = candidates[0]
        live = [e for e in victim.live_entries()]
        live_bytes = sum(e.log_bytes for e in live)
        # Copy-forward cost on a worker core, preemptible.
        yield from self.node.cpu.execute_sliced(
            max(live_bytes, 1) * self.cost.cleaner_per_byte)
        token = yield from self._acquire(self.log_lock)
        try:
            for entry in live:
                if not entry.live:
                    continue  # overwritten while we copied
                # Index entries are log records too: the cleaner
                # relocates them like any object, carrying the record's
                # secondary keys forward.  The sorted per-index view is
                # keyed by entry key, which relocation does not change.
                _segment, new_entry, _closed = self.log.append(
                    entry.table_id, entry.key, entry.value_size,
                    entry.version, value=entry.value, privileged=True,
                    index_keys=entry.index_keys)
                entry.live = False
                self.hashtable.relocate(entry.table_id, entry.key,
                                        new_entry)
            self.log.free_segment(victim)
        finally:
            self.log_lock.release(token)
        for backup_id in victim.replica_backups:
            if backup_id in self.dead_view:
                continue  # per our view; a stale skip just leaks a free
            backup = self.coordinator.lookup_server(backup_id)
            if backup is None:
                continue
            self._spawn(self._send_free_replica(backup, victim),
                        name=f"{self.name}:free-seg{victim.segment_id}")
        # The victim can no longer be under-replicated: it is gone.
        doomed = [k for k in self.under_replicated
                  if k[0] == victim.segment_id]
        for k in doomed:
            self.under_replicated.discard(k)
        return True

    def _send_free_replica(self, backup: "RamCloudServer",
                           victim: Segment) -> Generator:
        try:
            yield from backup.call(
                self.node, "free_replica",
                args=(self.server_id, victim.segment_id),
                size_bytes=64, response_bytes=64,
                timeout=self.config.rpc_timeout,
            )
        except (NodeUnreachable, RpcTimeout, Interrupt):
            pass

    # ------------------------------------------------------------------
    # bulk loading (experiment setup fast path)
    # ------------------------------------------------------------------

    def bulk_load(self, table_id: int, keys: Iterable[str],
                  value_size: int) -> int:
        """Populate this master directly, bypassing the simulated RPC
        path (zero simulated time).

        The paper's measurement window starts *after* the YCSB load
        phase; this fast path reproduces the post-load state — log
        segments populated, backup replicas placed and flushed —
        without simulating millions of load RPCs.

        Loads one plain record of ``value_size`` bytes per key of
        ``keys`` into data table ``table_id``, in order, each with the
        next version, through one :meth:`Log.append_plain` loop, and
        indexes them; the state is what :meth:`_insert_versioned` per
        record would leave.  Returns the number of objects loaded.

        Exception safety: if an append raises (:class:`LogOutOfMemory`
        once the log is full), the records before it stay loaded and
        indexed, ``_next_version`` is one past the last of them,
        bulk-loading mode is off again, and the error propagates without
        backup replica state being materialized.
        """
        first = self._next_version
        loaded: List[LogEntry] = []
        with self._bulk_loading_phase():
            try:
                self.log.append_plain(table_id, keys, value_size, first,
                                      loaded)
            finally:
                self.hashtable.insert_all(table_id, loaded)
                self._next_version = first + len(loaded)
        return len(loaded)

    def bulk_load_items(self, items) -> int:
        """:meth:`bulk_load` for records that differ in table, size or
        secondary keys: ``items`` is an iterable of ``(table_id, key,
        value_size, index_keys)`` tuples (``index_keys`` may be None),
        each inserted with the next version through
        :meth:`_insert_versioned`, the insert that migration and
        recovery replay use.  Same exception safety."""
        insert = self._insert_versioned
        first = self._next_version
        with self._bulk_loading_phase():
            for table_id, key, value_size, index_keys in items:
                insert(table_id, key, value_size, self._next_version, None,
                       index_keys)
        return self._next_version - first

    @contextmanager
    def _bulk_loading_phase(self) -> Iterator[None]:
        """Run a bulk load: bulk-loading mode on (a head roll sends no
        close RPCs) and the head's backups chosen; on success, every
        segment's backup replica state is materialized as if replicated
        and flushed.  Each segment's top version is read once for all
        its backups."""
        self._bulk_loading = True
        try:
            self._ensure_head_replicated()
            yield
        finally:
            self._bulk_loading = False
        for segment in self.log.segments.values():
            upto = len(segment.entries)
            top = None
            for backup_id in segment.replica_backups:
                backup = self.coordinator.lookup_server(backup_id)
                if backup is None:
                    continue
                replica = backup._replica_for(self.server_id, segment)
                replica.nbytes = segment.bytes_used
                if top is None and upto > replica.entries_applied:
                    top = max(map(_version_of, segment.entries))
                backup._advance_watermark(replica, upto, top)
                if segment.closed:
                    replica.closed = True
                    if not replica.on_disk:
                        replica.on_disk = True
                        backup._credit_disk(segment.bytes_used)

    # ------------------------------------------------------------------

    # Opcode dispatch table: built at class creation, read-only afterwards.
    _HANDLERS = {
        "read": _handle_read,
        "multiread": _handle_multiread,
        "write": _handle_write,
        "delete": _handle_delete,
        "server_list": _handle_server_list,
        "replicate_append": _handle_replicate_append,
        "replicate_close": _handle_replicate_close,
        "replicate_segment": _handle_replicate_segment,
        "recovery_read": _handle_recovery_read,
        "backup_read": _handle_backup_read,
        "free_replica": _handle_free_replica,
        "recover_partition": _handle_recover_partition,
        "migrate_in": _handle_migrate_in,
        "search": _handle_search,
        "index_lookup": _handle_index_lookup,
        "index_write": _handle_index_write,
        "index_remove": _handle_index_remove,
    }
