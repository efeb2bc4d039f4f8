"""The RAMCloud coordinator (§II-B).

"A coordinator maintaining meta-data information about storage servers,
backup servers, and data location."

Responsibilities reproduced here:

* cluster membership (enlist / failure detection via ping timeouts);
* the authoritative tablet map, served to clients;
* crash-recovery orchestration: verify the crash, collect the crashed
  master's will and the locations of its segment replicas, assign the
  will's partitions to recovery masters, and update the tablet map when
  they finish (§VII: "When a server is suspected to be crashed, the
  coordinator will check whether that server truly crashed. If it
  happens to be the case, the coordinator will schedule a recovery,
  after checking that the data held by that server is available on
  backups.").
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Generator, List, Optional, Set, Tuple

from repro.hardware.node import Node
from repro.net.fabric import Fabric, NodeUnreachable
from repro.net.rpc import RpcRequest, RpcService, RpcTimeout
from repro.ramcloud.config import CostModel, ServerConfig
from repro.ramcloud.indexing import IndexDescriptor
from repro.ramcloud.tablets import TabletMap, TabletStatus, shard_of, tablet_of
from repro.ramcloud.tenancy import TenantSpec, tenant_table_name
from repro.sim.distributions import RandomStream
from repro.sim.kernel import Simulator

__all__ = ["Coordinator", "RecoveryStats", "RepairStats"]


@dataclass
class RepairStats:
    """Durability repair after one server's eviction: how far segment
    replication dropped and how long the surviving masters took to
    restore it (re-replication through ``replicate_segment``).

    ``finished_at`` stays None if under-replication never returned to
    zero inside the watch window (e.g. too few live backups to reach
    the replication factor again)."""

    dead_server: str
    started_at: float
    peak_under_replicated: int = 0
    replicas_lost: int = 0
    segments_repaired: int = 0
    finished_at: Optional[float] = None

    @property
    def duration(self) -> Optional[float]:
        """Time from eviction to full replication, or None."""
        if self.finished_at is None:
            return None
        return self.finished_at - self.started_at


@dataclass
class RecoveryStats:
    """What happened during one crash recovery."""

    crashed_id: str
    detected_at: float
    started_at: float
    finished_at: Optional[float] = None
    partitions: int = 0
    segments: int = 0
    # Segments of the crashed master with no surviving replica anywhere
    # (correlated failures, the paper's §X closing concern): their data
    # is permanently lost.  ``plan_lost_segments`` had no live replica
    # at planning time; ``runtime_lost_segment_ids`` lost their last
    # replica mid-recovery.
    plan_lost_segments: int = 0
    runtime_lost_segment_ids: Set[int] = field(default_factory=set)
    bytes_to_recover: int = 0
    recovery_masters: List[str] = field(default_factory=list)

    @property
    def lost_segments(self) -> int:
        """Distinct segments whose data is permanently gone."""
        return self.plan_lost_segments + len(self.runtime_lost_segment_ids)

    @property
    def data_was_lost(self) -> bool:
        """True if any segment had no surviving replica."""
        return self.lost_segments > 0

    @property
    def duration(self) -> Optional[float]:
        """Recovery wall time, or None while unfinished."""
        if self.finished_at is None:
            return None
        return self.finished_at - self.started_at

    @property
    def unavailability(self) -> Optional[float]:
        """Client-visible outage: from the crash being detectable to the
        data being served again."""
        if self.finished_at is None:
            return None
        return self.finished_at - self.detected_at


class Coordinator(RpcService):
    """The (single) coordinator service on its own node."""

    def __init__(self, sim: Simulator, fabric: Fabric, node: Node,
                 config: ServerConfig, cost: CostModel,
                 stream: RandomStream,
                 ping_interval: float = 0.5,
                 ping_timeout: float = 0.4,
                 detection_misses: int = 2,
                 verify_rounds: int = 2,
                 verify_gap: float = 0.1):
        super().__init__(sim, fabric, node, name="coordinator")
        self.config = config
        self.cost = cost
        self.stream = stream
        self.ping_interval = ping_interval
        self.ping_timeout = ping_timeout
        self.detection_misses = detection_misses
        # Honest suspicion handling: after ``detection_misses`` missed
        # pings the coordinator runs a second round of ``verify_rounds``
        # back-to-back pings before declaring the server dead.  There is
        # no ground-truth peek anywhere in the path, so a server that is
        # merely slow, paused or partitioned long enough IS declared
        # dead — false positives are real, which is exactly why the
        # epoch/fencing machinery below exists.
        self.verify_rounds = verify_rounds
        self.verify_gap = verify_gap
        # Repair watcher cadence (see RepairStats / _repair_watcher).
        self.repair_poll = 0.05
        self.repair_grace = 0.2
        self.repair_watch_cap = 60.0
        # How many segments each recovery master fetches/replays/
        # re-replicates concurrently.  RAMCloud pipelines deeply enough
        # to keep recovery masters CPU-bound (Fig. 9a: >90 % CPU).
        self.recovery_pipeline_width = 6

        self.tablet_map = TabletMap()
        # Secondary indexes: hidden index table id → IndexDescriptor.
        # Indexlets are ordinary tablets of the hidden table, so the
        # recovery/migration machinery moves them without special cases.
        self.indexes: Dict[int, IndexDescriptor] = {}
        # Multi-tenancy: registered tenants and the tables they own.
        self.tenants: Dict[str, TenantSpec] = {}
        self.tenant_of_table: Dict[int, str] = {}
        self._servers: Dict[str, object] = {}  # server_id → RamCloudServer
        self._live: Dict[str, bool] = {}
        self._missed_pings: Dict[str, int] = {}
        # The epoch-stamped server list: every membership change bumps
        # ``membership_version`` and pushes the new (version, live, dead)
        # view to every live server; ``_dead`` remembers the version at
        # which each server was evicted (its fencing epoch).
        self.membership_version = 0
        self._dead: Dict[str, int] = {}
        self._verifying: set = set()
        self._pushes: List = []
        self.recoveries: List[RecoveryStats] = []
        # One RepairStats per eviction: the under-replication window the
        # death opened and when the survivors closed it.
        self.repairs: List[RepairStats] = []
        self._repair_watchers: List = []
        self._detector = None
        # Observers called with the RecoveryStats the instant a recovery
        # is scheduled (repro.faults anchors "crash a backup
        # mid-recovery" schedules on this).
        self.on_recovery_start: List = []

        self._service = sim.process(self._serve_loop(),
                                    name="coordinator:serve")

    # ------------------------------------------------------------------
    # membership
    # ------------------------------------------------------------------

    def enlist(self, server) -> None:
        """Register a storage server (object handle kept for metadata
        lookups; all timed interactions still go through RPC).

        Enlistment bumps the membership epoch and installs the new view
        directly on every live server — this models the enlistment RPC
        handshake (the response carries the current server list) at
        zero simulated time, matching the zero-time build-phase enlist.
        Later changes (evictions) disseminate through real RPCs."""
        if server.server_id in self._servers:
            raise ValueError(f"server {server.server_id!r} already enlisted")
        self._servers[server.server_id] = server
        self._live[server.server_id] = True
        self._missed_pings[server.server_id] = 0
        # The enlistment response carries existing index/tenant configs
        # (same zero-time handshake modeling as the server list below).
        for index_id in sorted(self.indexes):
            server.install_index_config(index_id,
                                        self.indexes[index_id].boundaries)
        for table_id in sorted(self.tenant_of_table):
            spec = self.tenants[self.tenant_of_table[table_id]]
            server.install_tenant(table_id, spec.name,
                                  spec.default_consistency,
                                  spec.admission_rate)
        self.membership_version += 1
        live, dead = self._view_tuples()
        for sid in live:
            peer = self._servers[sid]
            if not peer.killed:
                peer.apply_server_list(self.membership_version, live, dead)

    def _view_tuples(self):
        """The current server list as ``(live, dead)`` tuples, in
        deterministic enlistment order."""
        live = tuple(sid for sid in self._servers if self._live.get(sid))
        dead = tuple(sorted(self._dead))
        return live, dead

    def lookup_server(self, server_id: str):
        """The server object handle, or None if never enlisted."""
        return self._servers.get(server_id)

    def live_server_ids(self) -> List[str]:
        """Ids of servers currently believed alive (an optimistic scan:
        membership can change under any caller that later yields)."""
        return [sid for sid, alive in self._live.items() if alive]

    def is_live(self, server_id: str) -> bool:
        """Whether the coordinator believes the server is alive."""
        return self._live.get(server_id, False)

    # ------------------------------------------------------------------
    # coordinator RPC service
    # ------------------------------------------------------------------

    def _serve_loop(self) -> Generator:
        """Single-threaded service loop (the coordinator is not on the
        data path, one thread suffices)."""
        while True:
            request = yield self.inbox.get()
            yield from self.node.cpu.execute(self.cost.coordinator_service)
            try:
                self._serve(request)
            except Exception as exc:  # surface as RPC error, keep serving
                if not request.reply.triggered:
                    request.fail(exc)

    def _serve(self, request: RpcRequest) -> None:
        if request.op == "get_tablet_map":
            snapshot = self.tablet_map.snapshot()
            # Stamp the snapshot with the membership epoch: clients
            # carry it on data RPCs so masters can reject routes that
            # predate an ownership change (stale-epoch rejection).
            snapshot.membership_version = self.membership_version
            # Live servers (enlistment order) let EVENTUAL reads pick a
            # deterministic backup candidate without extra RNG draws.
            snapshot.live_servers = tuple(self.live_server_ids())
            snapshot.indexes = dict(self.indexes)
            request.respond(snapshot)
        elif request.op == "create_table":
            name, span, tenant = request.args
            table = self.create_table(name, span, tenant=tenant)
            request.respond(table.table_id)
        elif request.op == "create_index":
            table_id, name, boundaries = request.args
            desc = self.create_index(table_id, name, boundaries)
            request.respond(desc)
        elif request.op == "create_tenant":
            self.register_tenant(request.args)
            request.respond("ok")
        elif request.op == "drop_table":
            self.tablet_map.drop_table(request.args)
            request.respond("ok")
        else:
            request.fail(ValueError(f"unknown coordinator op {request.op!r}"))

    # ------------------------------------------------------------------
    # tables
    # ------------------------------------------------------------------

    def create_table(self, name: str, span: Optional[int] = None,
                     tenant: Optional[str] = None):
        """Create a table spanning ``span`` servers (the paper sets
        ServerSpan equal to the number of servers).

        With ``tenant``, the table lives in that tenant's namespace
        (``tenant/name``) and every live server learns the tenant's
        default consistency level and admission rate for it."""
        live = self.live_server_ids()
        if span is None:
            span = len(live)
        if not live:
            raise RuntimeError("cannot create a table with no live servers")
        if tenant is not None and tenant not in self.tenants:
            raise KeyError(f"tenant {tenant!r} not registered")
        full_name = tenant_table_name(tenant, name)
        table = self.tablet_map.create_table(full_name, span, live)
        for tablet in self.tablet_map.all_tablets():
            if tablet.table_id == table.table_id:
                self._servers[tablet.server_id].take_tablet(
                    (tablet.table_id, tablet.index, 0), shard_count=1,
                    ready=True)
        if tenant is not None:
            self._bind_tenant_table(table.table_id, tenant)
        return table

    def register_tenant(self, spec: TenantSpec) -> None:
        """Register a tenant; its tables are created with
        ``create_table(..., tenant=spec.name)``."""
        if spec.name in self.tenants:
            raise ValueError(f"tenant {spec.name!r} already registered")
        self.tenants[spec.name] = spec

    def _bind_tenant_table(self, table_id: int, tenant: str) -> None:
        """Record the table's tenant and install its defaults (zero-time
        push, like enlistment) on every live server."""
        spec = self.tenants[tenant]
        self.tenant_of_table[table_id] = tenant
        for sid in self.live_server_ids():
            server = self._servers[sid]
            if not server.killed:
                server.install_tenant(table_id, spec.name,
                                      spec.default_consistency,
                                      spec.admission_rate)

    # ------------------------------------------------------------------
    # secondary indexes
    # ------------------------------------------------------------------

    def create_index(self, table_id: int, name: str,
                     boundaries) -> IndexDescriptor:
        """Create a secondary index over ``table_id``: a hidden table of
        ``len(boundaries)`` range-partitioned tablets (indexlets).

        Because indexlets are ordinary tablets of an ordinary (hidden)
        table, the existing recovery and migration machinery moves them
        without special cases; only key→tablet routing differs (by
        range, not hash).  The boundary list is immutable after
        creation."""
        base = self.tablet_map.table_by_id(table_id)
        if base is None:
            raise KeyError(f"no table id {table_id}")
        boundaries = tuple(boundaries)
        hidden = f"__index:{table_id}:{name}"
        table = self.create_table(hidden, span=len(boundaries))
        desc = IndexDescriptor(index_id=table.table_id, table_id=table_id,
                               name=name, boundaries=boundaries)
        self.indexes[table.table_id] = desc
        # The index inherits the base table's tenant (search and
        # index_lookup admission throttles by the addressed table id).
        tenant = self.tenant_of_table.get(table_id)
        if tenant is not None:
            self._bind_tenant_table(table.table_id, tenant)
        for sid in self.live_server_ids():
            server = self._servers[sid]
            if not server.killed:
                server.install_index_config(table.table_id, boundaries)
        return desc

    def index_entry_route(self, index_id: int, entry_key: str):
        """Where an index-entry mutation must go: ``(owner_id, span,
        key_hash(entry_key))`` for the indexlet shard owning
        ``entry_key`` (the hash rides in the request), or None if the
        index no longer exists.  A metadata peek (like
        :meth:`lookup_server`); a stale answer fails at the target and
        the caller retries."""
        desc = self.indexes.get(index_id)
        if desc is None:
            return None
        span = len(desc.boundaries)
        indexlet, h = tablet_of(entry_key, span, desc.boundaries)
        tablet = self.tablet_map._tablets.get((index_id, indexlet))
        if tablet is None:
            return None
        shards = tablet.shards
        return shards[shard_of(h, span, len(shards))], span, h

    # ------------------------------------------------------------------
    # elastic sizing (§IX "How to choose the right cluster size?")
    # ------------------------------------------------------------------

    def drain_server(self, server_id: str) -> Generator:
        """Migrate every (tablet, shard) unit off ``server_id`` onto the
        least-loaded live servers; ``yield from`` inside a process.

        This is the mechanism behind the paper's §IX suggestion of "a
        smart approach ... at the coordinator level, which can decide
        whether to add or remove nodes depending on the workload".
        """
        source = self._servers[server_id]
        moved = 0
        for tablet, shard in self.tablet_map.tablets_of_server(server_id):
            table = self.tablet_map.table_by_id(tablet.table_id)
            target_id = self._least_loaded(exclude=server_id)
            target = self._servers[target_id]
            unit = (tablet.table_id, tablet.index, shard)
            self.tablet_map.reassign_shard(tablet.tablet_id, shard,
                                           target_id,
                                           TabletStatus.RECOVERING)
            yield from source.migrate_shard_out(
                unit, tablet.shard_count, table.span, target)
            self.tablet_map.set_shard_status(tablet.tablet_id, shard,
                                             TabletStatus.NORMAL)
            moved += 1
        return moved

    def _least_loaded(self, exclude: str) -> str:
        candidates = [sid for sid in self.live_server_ids()
                      if sid != exclude]
        if not candidates:
            raise RuntimeError("no live server to migrate onto")
        load = {sid: 0 for sid in candidates}
        for tablet in self.tablet_map.all_tablets():
            for owner in tablet.shards:
                if owner in load:
                    load[owner] += 1
        return min(sorted(candidates), key=load.get)

    def rebalance(self) -> Generator:
        """Even out tablet-shard ownership over the live servers by live
        migration (run after :meth:`~repro.cluster.deployment.Cluster.
        add_server`); ``yield from`` inside a process.  Returns how many
        units moved."""
        moved = 0
        while True:
            load: Dict[str, int] = {sid: 0 for sid in self.live_server_ids()}
            for tablet in self.tablet_map.all_tablets():
                for owner in tablet.shards:
                    if owner in load:
                        load[owner] += 1
            if not load:
                return moved
            busiest = max(sorted(load), key=load.get)
            idlest = min(sorted(load), key=load.get)
            if load[busiest] - load[idlest] <= 1:
                return moved
            tablet, shard = self.tablet_map.tablets_of_server(busiest)[0]
            table = self.tablet_map.table_by_id(tablet.table_id)
            unit = (tablet.table_id, tablet.index, shard)
            source = self._servers[busiest]
            target = self._servers[idlest]
            self.tablet_map.reassign_shard(tablet.tablet_id, shard,
                                           idlest, TabletStatus.RECOVERING)
            yield from source.migrate_shard_out(
                unit, tablet.shard_count, table.span, target)
            self.tablet_map.set_shard_status(tablet.tablet_id, shard,
                                             TabletStatus.NORMAL)
            moved += 1

    def decommission_server(self, server_id: str) -> Generator:
        """Gracefully remove a server: drain its tablets, retire it from
        membership (no crash recovery fires) and power the machine off —
        the Sierra/Rabbit-style energy lever the paper's §IX cites."""
        moved = yield from self.drain_server(server_id)
        server = self._servers[server_id]
        server.kill()
        # Retire it from the epoch-stamped server list (no recovery —
        # the drain moved its tablets — but masters that replicated
        # segments onto it learn of the loss and re-replicate).
        self._mark_dead(server_id)
        self._watch_repair(server_id)
        server.node.power.powered_off = True
        return moved

    # ------------------------------------------------------------------
    # failure detection
    # ------------------------------------------------------------------

    def start_failure_detector(self) -> None:
        """Begin the periodic ping loop (idempotent)."""
        if self._detector is None:
            self._detector = self.sim.process(self._ping_loop(),
                                              name="coordinator:pings")

    def stop_failure_detector(self) -> None:
        """Halt the ping loop; crashes go undetected afterwards."""
        if self._detector is not None:
            self._detector.interrupt("detector stopped")
            self._detector = None

    def stop_service(self) -> None:
        """Shut the coordinator down for good: stop pinging, stop the
        serve loop, fail anything still queued.  Used by
        :meth:`~repro.cluster.deployment.Cluster.shutdown` so a test can
        drain the schedule completely and assert zero event leaks."""
        self.stop_failure_detector()
        self.shutdown()
        self._service.interrupt("coordinator stopped")
        for proc in self._repair_watchers + self._pushes:
            if proc.is_alive:
                proc.interrupt("coordinator stopped")

    def _ping_loop(self) -> Generator:
        while True:
            yield self.sim.timeout(self.ping_interval)
            for server_id in self.live_server_ids():
                self.sim.process(self._ping_one(server_id),
                                 name=f"coordinator:ping:{server_id}")

    def _ping_one(self, server_id: str) -> Generator:
        server = self._servers[server_id]
        try:
            pong = yield from server.call(self.node, "ping",
                                          timeout=self.ping_timeout)
            self._missed_pings[server_id] = 0
            # Pong piggybacks the server's server-list version: re-push
            # the list to anyone who missed an update (healed partition,
            # dropped dissemination RPC).
            _ack, version = pong
            if (version < self.membership_version
                    and self._live.get(server_id, False)):
                self._push_server_list(server_id)
        except (NodeUnreachable, RpcTimeout):
            if not self._live.get(server_id, False):
                return
            self._missed_pings[server_id] += 1
            if self._missed_pings[server_id] >= self.detection_misses:
                self._on_server_suspected(server_id)

    def _on_server_suspected(self, server_id: str) -> None:
        """Suspicion path: verify with a second ping round, then (and
        only then) declare the server dead.  No ground truth anywhere —
        a live server that stays silent through the verification round
        (paused, partitioned) is honestly, wrongly, declared dead."""
        if not self._live.get(server_id, False):
            return
        if server_id in self._verifying:
            return
        self._verifying.add(server_id)
        self.sim.process(self._verify_suspect(server_id),
                         name=f"coordinator:verify:{server_id}")

    def _verify_suspect(self, server_id: str) -> Generator:
        server = self._servers[server_id]
        try:
            for attempt in range(self.verify_rounds):
                if attempt:
                    yield self.sim.timeout(self.verify_gap)
                try:
                    yield from server.call(self.node, "ping",
                                           timeout=self.ping_timeout)
                except (NodeUnreachable, RpcTimeout):
                    continue
                # Alive after all: clear the suspicion.
                self._missed_pings[server_id] = 0
                return
            if self._live.get(server_id, False):
                self._declare_dead(server_id)
        finally:
            self._verifying.discard(server_id)

    def _mark_dead(self, server_id: str) -> None:
        """Evict a server from the list: bump the epoch, record the
        eviction version, and disseminate the new view."""
        self._live[server_id] = False
        self.membership_version += 1
        self._dead[server_id] = self.membership_version
        for sid in self.live_server_ids():
            self._push_server_list(sid)

    def _push_server_list(self, server_id: str) -> None:
        """Fire-and-forget push of the current server list (failures are
        healed later by the ping piggyback)."""
        proc = self.sim.process(self._push_one(server_id),
                                name=f"coordinator:serverlist:{server_id}")
        self._pushes.append(proc)
        if len(self._pushes) > 64:
            self._pushes = [p for p in self._pushes if p.is_alive]

    def _push_one(self, server_id: str) -> Generator:
        server = self._servers[server_id]
        live, dead = self._view_tuples()
        update = (self.membership_version, live, dead)
        try:
            yield from server.call(
                self.node, "server_list", args=update,
                size_bytes=128 + 16 * (len(live) + len(dead)),
                response_bytes=64, timeout=self.config.rpc_timeout)
        except (NodeUnreachable, RpcTimeout):
            pass  # unreachable now; the ping piggyback re-pushes later

    def _declare_dead(self, server_id: str) -> None:
        """Verified-dead path: evict, disseminate, watch the repair, and
        schedule a recovery exactly once."""
        self._mark_dead(server_id)
        self._watch_repair(server_id)
        stats = RecoveryStats(crashed_id=server_id,
                              detected_at=self.sim.now,
                              started_at=self.sim.now)
        self.recoveries.append(stats)
        for observer in self.on_recovery_start:
            observer(stats)
        self.sim.process(self._run_recovery(server_id, stats),
                         name=f"coordinator:recovery:{server_id}")

    # ------------------------------------------------------------------
    # durability repair tracking
    # ------------------------------------------------------------------

    def under_replicated_total(self) -> int:
        """Segment replicas currently known lost and not yet repaired,
        summed over the live masters (a metrics scan, like the stats
        aggregation in :mod:`repro.cluster.crash`)."""
        return sum(len(self._servers[sid].under_replicated)
                   for sid in self.live_server_ids())

    def _repair_counters(self):
        lost = sum(self._servers[sid].replicas_lost
                   for sid in self.live_server_ids())
        repaired = sum(self._servers[sid].segments_repaired
                       for sid in self.live_server_ids())
        return lost, repaired

    def _watch_repair(self, server_id: str) -> None:
        stats = RepairStats(dead_server=server_id, started_at=self.sim.now)
        self.repairs.append(stats)
        proc = self.sim.process(self._repair_watcher(stats),
                                name=f"coordinator:repair-watch:{server_id}")
        self._repair_watchers.append(proc)

    def _repair_watcher(self, stats: RepairStats) -> Generator:
        """Sample under-replication until the survivors restore full
        replication; fills in the eviction's :class:`RepairStats`."""
        lost0, repaired0 = self._repair_counters()
        deadline = stats.started_at + self.repair_watch_cap
        settle_at = stats.started_at + self.repair_grace
        while self.sim.now < deadline:
            yield self.sim.timeout(self.repair_poll)
            total = self.under_replicated_total()
            if total > stats.peak_under_replicated:
                stats.peak_under_replicated = total
            lost, repaired = self._repair_counters()
            stats.replicas_lost = lost - lost0
            stats.segments_repaired = repaired - repaired0
            if total == 0 and self.sim.now >= settle_at:
                stats.finished_at = self.sim.now
                return

    # ------------------------------------------------------------------
    # crash recovery orchestration
    # ------------------------------------------------------------------

    def _recovery_plan(self, server_id: str, stats: RecoveryStats):
        """Build per-partition recovery plans from the crashed master's
        will and the backups' replica inventories.

        The will splits each of the crashed master's (tablet, shard)
        units into enough subshards that the number of recovery
        partitions ≈ the number of survivors ("to have as many machines
        performing the crash-recovery as possible", §II-B).
        """
        # Survivors are whatever the verified membership state says is
        # alive — nothing else.  A server that is dead but not yet
        # detected can be picked as a recovery master or segment source;
        # the RPC failure surfaces it and the retry rounds (below) and
        # per-segment source fallback absorb it, exactly as in the real
        # system.
        survivors = list(self.live_server_ids())
        if not survivors:
            raise RuntimeError("no survivors to recover onto")

        # Units already RECOVERING were assigned to this server by
        # another in-flight recovery (it died before finishing the
        # replay): that recovery's own retry rounds re-assign them, so
        # claiming them here would have two recoveries fighting over
        # the same shard.
        owned = [(tablet, shard)
                 for tablet, shard in
                 self.tablet_map.tablets_of_server(server_id)
                 if tablet.statuses[shard] != TabletStatus.RECOVERING]
        if not owned:
            stats.finished_at = self.sim.now
            return {}, [], {}, {}

        # How many ways to split each owned unit.
        split = max(1, -(-len(survivors) // len(owned)))  # ceil division

        # units: (table_id, index, shard, shard_count) → recovery master
        offset = self.stream.randint(0, max(len(survivors) - 1, 0))
        partitions: Dict[str, List[Tuple[int, int, int, int]]] = {}
        unit_no = 0
        for tablet, shard in owned:
            if tablet.shard_count == 1 and split > 1:
                owners = []
                for sub in range(split):
                    master = survivors[(offset + unit_no) % len(survivors)]
                    owners.append(master)
                    partitions.setdefault(master, []).append(
                        (tablet.table_id, tablet.index, sub, split))
                    unit_no += 1
                self.tablet_map.split_shard(tablet.tablet_id, 0, owners,
                                            TabletStatus.RECOVERING)
            else:
                master = survivors[(offset + unit_no) % len(survivors)]
                partitions.setdefault(master, []).append(
                    (tablet.table_id, tablet.index, shard,
                     tablet.shard_count))
                unit_no += 1
                self.tablet_map.reassign_shard(tablet.tablet_id, shard,
                                               master,
                                               TabletStatus.RECOVERING)

        # Locate every segment replica of the crashed master.  RAMCloud's
        # setup phase finds the most up-to-date replica of each segment
        # (essential for the open head, whose copies can trail each
        # other); among equally-complete holders, spread the reads.
        # The tie-break coin flip is drawn exactly as often as the old
        # spread-only logic whenever all replicas are complete — the
        # SYNC_RF steady state — keeping those digests bit-identical.
        segment_sources: Dict[int, Tuple[str, int]] = {}
        best_applied: Dict[int, int] = {}
        for sid in survivors:
            backup = self._servers[sid]
            for (master_id, segment_id), replica in backup.replicas.items():
                if master_id != server_id:
                    continue
                nbytes = replica.size
                applied = replica.entries_applied
                if segment_id not in segment_sources:
                    segment_sources[segment_id] = (sid, nbytes)
                    best_applied[segment_id] = applied
                elif applied > best_applied[segment_id]:
                    segment_sources[segment_id] = (sid, nbytes)
                    best_applied[segment_id] = applied
                elif (applied == best_applied[segment_id]
                      and self.stream.uniform() < 0.5):
                    segment_sources[segment_id] = (sid, nbytes)

        spans = {}
        index_ranges = {}
        for tablet, _shard in owned:
            table = self.tablet_map.table_by_id(tablet.table_id)
            spans[tablet.table_id] = table.span
            # Indexlet boundaries ride in the plan: recovery masters
            # range-route replayed index entries and serve Search from
            # the replayed state — an index is recovered like data,
            # never rebuilt by scanning its base table.
            desc = self.indexes.get(tablet.table_id)
            if desc is not None:
                index_ranges[tablet.table_id] = desc.boundaries

        segments = [(seg_id, src, nbytes)
                    for seg_id, (src, nbytes) in sorted(segment_sources.items())]
        stats.partitions = sum(len(u) for u in partitions.values())
        stats.segments = len(segments)
        # Segments with no live replica cannot be recovered: correlated
        # failures took the master and every backup of those segments.
        # Only data-bearing segments count — a freshly-opened empty head
        # has nothing to lose (and no replicas yet).
        crashed = self._servers[server_id]
        data_segments = sum(1 for s in crashed.log.segments.values()
                            if s.bytes_used > 0)
        stats.plan_lost_segments = max(0, data_segments - len(segments))
        stats.bytes_to_recover = sum(n for _s, _b, n in segments)
        stats.recovery_masters = sorted(partitions)
        return partitions, segments, spans, index_ranges

    def _run_recovery(self, server_id: str,
                      stats: RecoveryStats) -> Generator:
        (partitions, segments, spans,
         index_ranges) = self._recovery_plan(server_id, stats)
        if not partitions:
            return
        total_units = sum(len(u) for u in partitions.values())
        # Every recovered tablet's shard count, shared by all the plans:
        # a backup partitions each segment by unit once, for everyone.
        shard_counts = {(table_id, index): count
                        for units in partitions.values()
                        for table_id, index, _shard, count in units}
        completed: Dict[str, List] = {}
        # Masters whose recover_partition RPC failed: the coordinator
        # just observed them unreachable, so later rounds avoid them
        # even while the ping detector has not evicted them yet.
        failed_masters: set = set()

        # Recovery masters can themselves die mid-recovery; real
        # RAMCloud restarts the affected partitions on other servers,
        # so we retry failed partitions for a few rounds.
        for _round in range(4):
            waits = []
            for master_id, units in partitions.items():
                master = self._servers[master_id]
                plan = {
                    "crashed_id": server_id,
                    "units": units,
                    "spans": spans,
                    "shard_counts": shard_counts,
                    "segments": segments,
                    "share": len(units) / total_units,
                    "pipeline_width": self.recovery_pipeline_width,
                }
                if index_ranges:
                    plan["index_ranges"] = index_ranges
                waits.append((master_id, units, self.sim.process(
                    self._recover_on(master, plan, stats),
                    name=f"coordinator:recover-on:{master_id}",
                )))
            failed_units: List = []
            for master_id, units, proc in waits:
                ok = yield proc
                if ok:
                    completed.setdefault(master_id, []).extend(units)
                else:
                    failed_units.extend(units)
                    failed_masters.add(master_id)
            if not failed_units:
                break
            survivors = [sid for sid in self.live_server_ids()
                         if sid not in failed_masters]
            if not survivors:
                survivors = list(self.live_server_ids())
            if not survivors:
                stats.recovery_masters.append("FAILED: no survivors")
                return
            partitions = {}
            offset = self.stream.randint(0, len(survivors) - 1)
            for i, unit in enumerate(failed_units):
                master_id = survivors[(offset + i) % len(survivors)]
                partitions.setdefault(master_id, []).append(unit)
                self.tablet_map.reassign_shard(
                    (unit[0], unit[1]), unit[2], master_id,
                    TabletStatus.RECOVERING)
        else:
            stats.recovery_masters.append("FAILED: retries exhausted")
            return
        # Flip shard statuses in the tablet map; recovery masters already
        # marked their units ready locally.
        for master_id, units in completed.items():
            for table_id, index, shard, _count in units:
                self.tablet_map.reassign_shard((table_id, index), shard,
                                               master_id,
                                               TabletStatus.NORMAL)
        # "At the end of the recovery the segments are cleaned from old
        # backups" (§II-B).
        for sid in self.live_server_ids():
            backup = self._servers[sid]
            doomed = [key for key in backup.replicas if key[0] == server_id]
            for key in doomed:
                replica = backup.replicas.pop(key)
                if replica.on_disk:
                    backup.node.disk.space.take(
                        min(backup.node.disk.space.level, replica.size))
        stats.finished_at = self.sim.now

    def _recover_on(self, master, plan, stats: RecoveryStats) -> Generator:
        """Drive one recovery master; returns True on success, False if
        the master itself became unreachable (never raises, so the
        orchestrator can always collect every partition's outcome)."""
        try:
            _status, lost_ids = yield from master.call(
                self.node, "recover_partition", args=plan,
                size_bytes=1024, response_bytes=64, timeout=600.0)
        except (NodeUnreachable, RpcTimeout):
            return False
        # Segments whose every replica died mid-recovery (correlated
        # failures) are gone for good.  De-duplicated across recovery
        # masters: each of them fetches every segment.
        stats.runtime_lost_segment_ids.update(lost_ids)
        return True
