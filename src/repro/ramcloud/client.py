"""The RAMCloud client library.

A client caches the coordinator's tablet map and routes each operation
directly to the owning master.  On routing failures (crashed master,
stale cache, tablet under recovery) it backs off exponentially
(optionally jittered from a seeded stream, so retry storms decorrelate
without breaking determinism), refreshes the map and retries — which is
exactly why the paper's Fig. 10 client that requests lost data blocks
for the whole duration of crash recovery.

Every operation runs under one retry loop,
:meth:`RamCloudClient._retrying`.  Single-key operations (read, write,
delete) are routed to one master per attempt.  Multi-master operations
(multiread, index search, the search's validating ``index_lookup``)
group their keys by master afresh on each attempt and issue one
concurrent RPC per group through :meth:`RamCloudClient._fan_out`.
"""

from __future__ import annotations

from typing import Dict, Generator, Optional

from repro.hardware.node import Node
from repro.net.fabric import NodeUnreachable
from repro.net.rpc import RpcTimeout
from repro.ramcloud.consistency import EVENTUAL
from repro.ramcloud.coordinator import Coordinator
from repro.ramcloud.indexing import KEY_SEP, decode_entry_key
from repro.ramcloud.errors import (
    BackupBehind,
    RetryLater,
    StaleEpoch,
    TableDoesntExist,
    WrongServer,
)
from repro.ramcloud.tablets import indexlet_of, key_hash
from repro.sim.distributions import RandomStream
from repro.sim.kernel import Simulator

__all__ = ["RamCloudClient"]

# Sizes of the RPC envelopes, matching RAMCloud's wire format closely
# enough for the network model.
READ_REQUEST_BYTES = 64
WRITE_OVERHEAD_BYTES = 64
RESPONSE_OVERHEAD_BYTES = 64

# Retry n sleeps min(RETRY_BACKOFF * BACKOFF_FACTOR**(n-1), BACKOFF_CAP)
# seconds, scaled by a uniform [0.5, 1.5) jitter when the client has a
# seeded ``stream``.
RETRY_BACKOFF = 0.05
BACKOFF_FACTOR = 2.0
BACKOFF_CAP = 1.0


class RamCloudClient:  # simlint: disable=PERF001 O(clients) service object; __dict__ cost is amortized
    """One application's connection to the cluster."""

    def __init__(self, sim: Simulator, node: Node, coordinator: Coordinator,
                 stream: Optional[RandomStream] = None):
        self.sim = sim
        self.node = node
        self.coordinator = coordinator
        self.stream = stream  # backoff jitter
        # None retries forever; a YCSB give-up or a verifier sets it.
        self.max_retries: Optional[int] = None
        self._map = None
        self.rpc_timeout = coordinator.config.rpc_timeout
        # Read-your-writes session state: per-master high-water mark of
        # the versions this client has been acknowledged (plain dict —
        # the client is single-threaded per op, but EVENTUAL reads ship
        # the watermark to backups, which check it against their own
        # applied prefix).
        self.session_watermarks: Dict[str, int] = {}
        # statistics
        self.ops_done = 0
        self.retries = 0
        self.timeouts = 0
        self.redirects = 0
        self.backup_reads = 0

    def _backoff_delay(self, tries: int) -> float:
        """Sleep before retry number ``tries`` (1-based)."""
        delay = min(RETRY_BACKOFF * BACKOFF_FACTOR ** (tries - 1), BACKOFF_CAP)
        if self.stream is not None:
            delay *= 0.5 + self.stream.uniform()
        return delay

    # -- tablet map management ------------------------------------------

    def refresh_map(self) -> Generator:
        """Fetch a fresh tablet-map snapshot from the coordinator."""
        self._map = yield from self.coordinator.call(
            self.node, "get_tablet_map",
            size_bytes=64, response_bytes=1024,
        )
        return self._map

    def _route(self, table_id: int, key: str, h: Optional[int] = None):
        """Resolve (table, key) → (master service, span, key hash) from
        the cache.  A caller that knows ``key_hash(key)`` passes it as
        ``h``; debug mode checks it."""
        if self._map is None:
            raise RuntimeError("call refresh_map() (or any op) first")
        if (h is not None and self.sim._sanitizer is not None
                and h != key_hash(key)):
            raise AssertionError(
                f"carried hash {h:#x} of {key!r} is not its key_hash")
        snapshot = self._map
        span = snapshot.tables_by_id[table_id].span
        server_id, h = snapshot.route(table_id, key, span, h)
        return self._master(server_id), span, h

    def _master(self, server_id: str):
        master = self.coordinator.lookup_server(server_id)
        if master is None:
            raise NodeUnreachable(f"unknown server {server_id}")
        return master

    @property
    def _epoch(self) -> int:
        """The cached map's server-list epoch, stamped onto data RPCs
        so a master can reject routes that predate the membership
        change that moved its tablets (StaleEpoch → refresh + retry)."""
        return self._map.membership_version

    # -- administrative ops -------------------------------------------------

    def create_table(self, name: str, span: int,
                     tenant: Optional[str] = None) -> Generator:
        """Create a table via the coordinator; returns the table id.
        With ``tenant``, the table lives in that tenant's namespace."""
        table_id = yield from self.coordinator.call(
            self.node, "create_table", args=(name, span, tenant),
            size_bytes=128, response_bytes=64,
        )
        yield from self.refresh_map()
        return table_id

    def create_tenant(self, spec) -> Generator:
        """Register a :class:`~repro.ramcloud.tenancy.TenantSpec`."""
        yield from self.coordinator.call(
            self.node, "create_tenant", args=spec,
            size_bytes=128, response_bytes=64,
        )

    def create_index(self, table_id: int, name: str,
                     boundaries) -> Generator:
        """Create a secondary index over ``table_id`` with the given
        indexlet ``boundaries``; returns its
        :class:`~repro.ramcloud.indexing.IndexDescriptor`."""
        desc = yield from self.coordinator.call(
            self.node, "create_index",
            args=(table_id, name, tuple(boundaries)),
            size_bytes=256, response_bytes=256,
        )
        yield from self.refresh_map()
        return desc

    def index_id(self, table_id: int, name: str) -> int:
        """Resolve an index by base table and name from the cached map."""
        if self._map is not None:
            for iid, desc in self._map.indexes.items():
                if desc.table_id == table_id and desc.name == name:
                    return iid
        raise TableDoesntExist(f"index {name!r} on table {table_id}")

    def table_id(self, name: str) -> int:
        """Resolve a table name from the cached map."""
        if self._map is None or name not in self._map.tables_by_name:
            raise TableDoesntExist(name)
        return self._map.tables_by_name[name].table_id

    # -- the retry loop and the fan-out ------------------------------------

    def _retrying(self, what: str, attempt, args: tuple, ops: int = 1,
                  routed: bool = False, record_write: bool = False,
                  h: Optional[int] = None) -> Generator:
        """The client's one retry loop: run attempts of one operation
        until one succeeds and return its result.

        A ``routed`` operation is single-key: ``args`` starts with
        ``(table_id, key)`` and each attempt is ``attempt(master, span,
        h, *args)`` at the key's owner in the cached map, ``h`` being the
        key's hash — a bound method returning the RPC's generator, so no
        frame is added per op.  A caller that knows the hash passes it as
        ``h``; otherwise the first route hashes the key.
        Otherwise ``attempt(*args)`` routes itself from the cached map
        (the multi-master operations, via :meth:`_fan_out`).

        ``ObjectDoesntExist``, ``TableDoesntExist`` and ``StaleVersion``
        are answers, not failures: they propagate.  Routing failures and
        ``RpcTimeout`` back off, refresh the map and retry; past
        ``max_retries`` retries the operation raises ``RpcTimeout``,
        naming ``what`` (plus the table and key of a routed op).  A
        success adds ``ops`` to ``ops_done``; ``record_write`` folds the
        returned version into the session watermark (read-your-writes).
        """
        if self._map is None:
            yield from self.refresh_map()
        tries = 0
        while True:
            try:
                if routed:
                    master, span, h = self._route(args[0], args[1], h)
                    result = yield from attempt(master, span, h, *args)
                    if record_write:
                        self._note_write(master.server_id, result)
                else:
                    result = yield from attempt(*args)
                self.ops_done += ops
                return result
            except BackupBehind:
                # The backup cannot satisfy this session yet: re-route
                # to the master *immediately*.  This is the expected
                # redirect path of EVENTUAL reads, not a failure — it
                # must not burn a backoff-counted retry (Fig. 6a's
                # give-up accounting would otherwise see phantom
                # failures under healthy operation).
                self.redirects += 1
                # Only the EVENTUAL read attempt raises this, and its
                # consistency level is always the last attempt arg:
                # dropping it to None routes every remaining attempt of
                # this op to the master (the wire-identical sync read).
                args = args[:-1] + (None,)
                continue
            except (NodeUnreachable, WrongServer, RetryLater, StaleEpoch):
                # StaleEpoch: the cached map predates a membership
                # change — invalidate it and re-route (a fenced zombie
                # answers WrongServer; either way the refresh below
                # finds the new owner).
                pass
            except RpcTimeout:
                self.timeouts += 1
            tries += 1
            self.retries += 1
            if self.max_retries is not None and tries > self.max_retries:
                if routed:
                    what = f"{what} t{args[0]}/{args[1]}"
                raise RpcTimeout(f"{what}: exhausted {tries} retries")
            yield self.sim.sleep(self._backoff_delay(tries))
            yield from self.refresh_map()

    def _fan_out(self, op: str, group, *group_args) -> Generator:
        """One attempt of a multi-master operation; returns the replies
        in group order.

        ``group(*group_args)`` lists the attempt's RPCs as ``(server_id,
        args, size_bytes, response_bytes)`` from the cached map — re-run
        on every attempt, since a refreshed map can regroup every key.
        Each RPC runs in its own process: ``call()`` performs the
        request's transfer in the calling process, so one caller issuing
        them in turn would queue each send behind its previous wait.
        The first failure fails the attempt.
        """
        rpcs = group(*group_args)
        masters = [self._master(rpc[0]) for rpc in rpcs]
        sim = self.sim
        calls = [sim.process(master.call(self.node, op, args=args,
                                         size_bytes=size_bytes,
                                         response_bytes=response_bytes,
                                         timeout=self.rpc_timeout))
                 for master, (_sid, args, size_bytes, response_bytes)
                 in zip(masters, rpcs)]
        yield sim.all_of(calls)
        return [call.value for call in calls]

    # -- single-key operations ----------------------------------------------

    def _note_write(self, server_id: str, version) -> None:
        """Advance this session's per-master write watermark."""
        if not isinstance(version, int):
            return
        if version > self.session_watermarks.get(server_id, 0):
            self.session_watermarks[server_id] = version

    def _backup_for(self, master, h: int):
        """Deterministically pick a backup candidate for an EVENTUAL
        read of the key whose hash is ``h`` — keyed off the snapshot's
        live-server list, so no RNG draw and no divergence between
        reruns."""
        candidates = [sid for sid in getattr(self._map, "live_servers", ())
                      if sid != master.server_id]
        if not candidates:
            return None
        backup_id = candidates[h % len(candidates)]
        return self.coordinator.lookup_server(backup_id)

    def _read_attempt(self, master, span, h, table_id, key, level):
        if level == EVENTUAL:
            backup = self._backup_for(master, h)
            if backup is not None:
                self.backup_reads += 1
                return backup.call(
                    self.node, "backup_read",
                    args=(master.server_id, table_id, key, span,
                          self.session_watermarks.get(master.server_id, 0)),
                    size_bytes=READ_REQUEST_BYTES,
                    response_bytes=RESPONSE_OVERHEAD_BYTES
                    + self._expected_size(table_id, key),
                    timeout=self.rpc_timeout,
                )
        return master.call(
            self.node, "read", args=(table_id, key, h, span, self._epoch),
            size_bytes=READ_REQUEST_BYTES,
            response_bytes=RESPONSE_OVERHEAD_BYTES
            + self._expected_size(table_id, key),
            timeout=self.rpc_timeout,
        )

    def read(self, table_id: int, key: str,
             level: Optional[str] = None,
             h: Optional[int] = None) -> Generator:
        """Read one object; returns ``(value, version, value_size)``.

        ``level`` only matters for :data:`EVENTUAL`, which first tries
        a backup replica (scaling reads past the owning master) and
        falls back to the master when the backup is behind the
        session's watermark.  SYNC_RF and ASYNC_BOUNDED reads are
        master-only and identical on the wire.

        ``h``, if given, is ``key_hash(key)``, which the caller already
        holds (a YCSB client's preloaded records); the key is then not
        hashed again.
        """
        return self._retrying("read", self._read_attempt,
                              (table_id, key, level), routed=True, h=h)

    def _expected_size(self, table_id: int, key: str) -> int:
        # The response size is only known server-side; use a nominal
        # 1 KB (the paper's record size) — refined after the first read.
        return 1024

    def write(self, table_id: int, key: str, value_size: int,
              value: Optional[bytes] = None,
              expected_version: Optional[int] = None,
              level: Optional[str] = None,
              index_entries=None, h: Optional[int] = None) -> Generator:
        """Write (insert or update) one object; returns the new version.

        ``expected_version`` makes the write conditional (RAMCloud's
        reject-rules): it only applies if the object is currently at
        exactly that version (0 = must not exist), otherwise
        :class:`~repro.ramcloud.errors.StaleVersion` is raised.

        ``level`` picks the durability/ack point for this write (see
        :mod:`repro.ramcloud.consistency`); None uses the cluster's
        configured default.

        ``index_entries`` is a tuple of ``(index_id, secondary_key)``
        pairs the object carries; the master maintains the secondary
        indexes synchronously before acknowledging.

        ``h`` is the key's hash if the caller holds it, as for
        :meth:`read`.
        """
        return self._retrying(
            "write", self._write_attempt,
            (table_id, key, value_size, value, expected_version, level,
             index_entries),
            routed=True, record_write=True, h=h)

    def _write_attempt(self, master, span, h, table_id, key, value_size,
                       value, expected_version, level, index_entries):
        size = WRITE_OVERHEAD_BYTES + value_size
        if index_entries is not None:
            index_entries = tuple(index_entries)
            size += sum(len(s) for _i, s in index_entries)
        return master.call(
            self.node, "write",
            args=(table_id, key, h, value_size, value, span,
                  expected_version, self._epoch, level, index_entries),
            size_bytes=size,
            response_bytes=RESPONSE_OVERHEAD_BYTES,
            timeout=self.rpc_timeout,
        )

    def _delete_attempt(self, master, span, h, table_id, key, level):
        return master.call(
            self.node, "delete",
            args=(table_id, key, h, span, self._epoch, level),
            size_bytes=READ_REQUEST_BYTES,
            response_bytes=RESPONSE_OVERHEAD_BYTES,
            timeout=self.rpc_timeout,
        )

    def delete(self, table_id: int, key: str,
               level: Optional[str] = None) -> Generator:
        """Delete one object; returns the tombstone's version."""
        return self._retrying("delete", self._delete_attempt,
                              (table_id, key, level),
                              routed=True, record_write=True)

    # -- multi-master operations --------------------------------------------

    def multiread(self, table_id: int, keys) -> Generator:
        """Batched read of many keys (RAMCloud's MultiRead).

        Keys are grouped by owning master and fetched with one RPC per
        master, issued concurrently; returns ``{key: (value, version,
        size)}`` with absent keys omitted.  YCSB's scans (workload E)
        run on this path.
        """
        if self._map is None:
            yield from self.refresh_map()
        keys = list(keys)
        if not keys:
            return {}
        span = self._map.tables_by_id[table_id].span
        replies = yield from self._retrying(
            f"multiread t{table_id}", self._fan_out,
            ("multiread", self._multiread_group, table_id, keys, span),
            ops=len(keys))
        merged = {}
        for reply in replies:
            merged.update(reply)
        return merged

    def _multiread_group(self, table_id: int, keys, span: int):
        by_master = {}
        route = self._map.route
        for key in keys:
            server_id, h = route(table_id, key, span)
            by_master.setdefault(server_id, []).append((key, h))
        return [(server_id, (table_id, batch, span, self._epoch),
                 READ_REQUEST_BYTES + 32 * len(batch),
                 RESPONSE_OVERHEAD_BYTES + 1024 * len(batch))
                for server_id, batch in by_master.items()]

    def search(self, index_id: int, lo: str, hi: Optional[str] = None,
               limit: int = 1000) -> Generator:
        """Range lookup over a secondary index (RAMCloud's indexed
        read): secondary keys in ``[lo, hi)`` (``hi=None`` means to the
        end of the index), at most ``limit`` index entries.

        Walks the indexlets in boundary order, fanning out over each
        indexlet's shards concurrently and continuing from the last
        returned key when a shard truncates its reply; each indexlet
        gets its own retry budget.  Every matching entry is then
        validated against the base table with one concurrent
        ``index_lookup`` per owning master — an entry whose object no
        longer carries that secondary key (a crash window or a
        concurrent delete) is silently dropped, so readers never see
        dangling entries.  Returns ``[(secondary, primary, value,
        version)]`` ordered by ``(secondary, primary)``.
        """
        if self._map is None:
            yield from self.refresh_map()
        desc = self._map.indexes.get(index_id)
        if desc is None:
            yield from self.refresh_map()
            desc = self._map.indexes.get(index_id)
            if desc is None:
                raise TableDoesntExist(f"index {index_id}")
        hi_eff = hi if hi is not None else "\uffff"
        entry_keys = yield from self._search_entries(desc, lo, hi_eff, limit)
        if not entry_keys:
            return []
        result = yield from self._validate_entries(desc, entry_keys)
        return result

    def _search_entries(self, desc, lo: str, hi: str,
                        limit: int) -> Generator:
        """The indexlet walk: collect up to ``limit`` matching entry
        keys in ``[lo, hi)`` (entry-key space — encoded secondary+primary
        sorts exactly like (secondary, primary))."""
        span = desc.num_indexlets
        cursor = lo
        found = []
        while cursor < hi and len(found) < limit:
            indexlet = indexlet_of(desc.boundaries, cursor)
            replies = yield from self._retrying(
                f"search index {desc.index_id}", self._fan_out,
                ("search", self._search_group, desc, indexlet, cursor, hi,
                 limit - len(found)),
                ops=0)
            merged = []
            bound = None  # lowest truncation point across the shards
            for matches, truncated in replies:
                merged.extend(matches)
                if truncated:
                    # The shard stopped early: it covered only
                    # [cursor, matches[-1]].
                    if bound is None or matches[-1] < bound:
                        bound = matches[-1]
            merged.sort()
            if bound is not None:
                # Beyond the lowest truncation point the merge is
                # incomplete; keep the covered prefix and continue from
                # just past it (next-key continuation).
                merged = [k for k in merged if k <= bound]
            for entry_key in merged:
                if len(found) >= limit:
                    break
                found.append(entry_key)
            if len(found) >= limit:
                break
            if bound is not None:
                cursor = bound + KEY_SEP
            else:
                nxt = indexlet + 1
                cursor = desc.boundaries[nxt] if nxt < span else hi
        self.ops_done += 1
        return found

    def _search_group(self, desc, indexlet: int, cursor: str, hi: str,
                      remaining: int):
        """One search RPC per shard of the indexlet."""
        tablet = self._map.tablets.get((desc.index_id, indexlet))
        if tablet is None:
            raise RetryLater(f"index {desc.index_id} indexlet {indexlet} "
                             f"is not in the map")
        return [(tablet.shards[shard],
                 (desc.index_id, cursor, hi, remaining, desc.num_indexlets,
                  shard, self._epoch),
                 READ_REQUEST_BYTES + len(cursor) + len(hi),
                 RESPONSE_OVERHEAD_BYTES + 32 * remaining)
                for shard in range(tablet.shard_count)]

    def _validate_entries(self, desc, entry_keys) -> Generator:
        """Fetch-and-filter the matched entries against the base table
        (grouped by master like multiread)."""
        pairs = [decode_entry_key(k) for k in entry_keys]
        span = self._map.tables_by_id[desc.table_id].span
        replies = yield from self._retrying(
            f"index_lookup t{desc.table_id}", self._fan_out,
            ("index_lookup", self._lookup_group, desc, pairs, span),
            ops=len(pairs))
        merged = {}
        for reply in replies:
            merged.update(reply)
        results = []
        for secondary, primary in pairs:
            got = merged.get(primary)
            if got is None:
                continue  # dangling entry: filtered out
            value, version, _value_size = got
            results.append((secondary, primary, value, version))
        return results

    def _lookup_group(self, desc, pairs, span: int):
        by_master = {}
        for secondary, primary in pairs:
            server_id, h = self._map.route(desc.table_id, primary, span)
            by_master.setdefault(server_id, []).append(
                (primary, h, desc.index_id, secondary))
        return [(server_id, (desc.table_id, items, span, self._epoch),
                 READ_REQUEST_BYTES + 48 * len(items),
                 RESPONSE_OVERHEAD_BYTES + 1024 * len(items))
                for server_id, items in by_master.items()]
