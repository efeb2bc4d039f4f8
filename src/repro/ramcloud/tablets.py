"""Tables, tablets and the tablet map.

Data in RAMCloud is stored in tables that can span multiple storage
servers (§II-B).  The paper configures ``ServerSpan`` equal to the
number of servers so each table is split uniformly: we model a table as
``span`` tablets assigned round-robin over the live servers.

Routing a key is two levels, and this module is the only place either
is spelled:

* :func:`tablet_of` — the tablet: ``key_hash(key) % span`` for a data
  table, or for an index table the indexlet whose key range holds the
  key (:func:`indexlet_of` over the sorted lower ``boundaries``);
* :func:`shard_of` — the subshard within a tablet that crash recovery
  split over several masters: ``(key_hash(key) // span) % shard_count``,
  hash-based for both kinds of table.

A bulk load routes numbered keys (``prefix + str(i)``) in one pass:
:func:`numbered_key_hashes` gives the same hashes as :func:`key_hash`
by folding each key from its decimal prefix, and
:meth:`TabletMap.numbered_key_owners` applies :func:`tablet_of`'s rule.

The coordinator owns the authoritative :class:`TabletMap`; clients keep
epoch-stamped copies and refresh on routing failures.
"""

from __future__ import annotations

from array import array
from bisect import bisect_right
from dataclasses import dataclass, field
from functools import partial
from typing import (Callable, Dict, Iterator, List, Optional, Sequence,
                    Tuple)


__all__ = ["Table", "Tablet", "TabletMap", "TabletStatus", "indexlet_of",
           "key_hash", "numbered_key_hashes", "shard_of", "tablet_of"]

# 64-bit FNV-1a.
_FNV_OFFSET = 14695981039346656037
_FNV_PRIME = 1099511628211
_MASK64 = 0xFFFFFFFFFFFFFFFF
_DIGIT_BYTES = b"0123456789"


def key_hash(key: str) -> int:
    """Stable hash used for key→tablet routing (never Python's salted
    ``hash``, which would break run-to-run determinism)."""
    h = _FNV_OFFSET
    for byte in key.encode():
        h ^= byte
        h = (h * _FNV_PRIME) & _MASK64
    return h


def numbered_key_hashes(prefix: str, count: int) -> Iterator[int]:
    """``key_hash(prefix + str(i))`` for ``i`` in ``range(count)``, in
    that order.

    FNV-1a is a left fold over the key's bytes, and for ``i >= 10``
    ``str(i)`` is ``str(i // 10)`` plus one digit, so key ``i``'s hash
    is one xor-multiply step from key ``i // 10``'s.  Keys are made in
    blocks of ten siblings from their common parent; only the first
    ``ceil(count / 10)`` hashes, the parents still to come, are held.
    """
    held = -(-count // 10)
    parent = key_hash(prefix)
    block = [((parent ^ byte) * _FNV_PRIME) & _MASK64
             for byte in _DIGIT_BYTES]  # keys 0..9
    parents = array("Q", block[:held])  # 8 B per hash, not an int object
    yield from block[:count]
    for i in range(1, held):  # keys 10*i .. 10*i + 9
        parent = parents[i]
        block = [((parent ^ byte) * _FNV_PRIME) & _MASK64
                 for byte in _DIGIT_BYTES]
        if len(parents) < held:
            parents.extend(block[:held - len(parents)])
        yield from block[:count - 10 * i]


def indexlet_of(boundaries: Sequence[str], key: str) -> int:
    """Which range tablet holds ``key``, given the sorted lower bounds
    of the table's tablets (``boundaries[0] == ""``).

    Works for encoded index-entry keys and bare secondary strings
    alike: ``sec + KEY_SEP + pri`` compares below the next boundary
    exactly when ``sec`` does.
    """
    return bisect_right(boundaries, key) - 1


def tablet_of(key: str, span: int,
              boundaries: Optional[Sequence[str]] = None,
              h: Optional[int] = None) -> Tuple[int, int]:
    """First routing level: ``(tablet_index, key_hash(key))`` — by hash,
    or by key range when the table's ``boundaries`` are given.  The hash
    comes back for :func:`shard_of`; a caller that has it (a server
    handed it in the request) passes it as ``h``."""
    if h is None:
        h = key_hash(key)
    if boundaries is None:
        return h % span, h
    return indexlet_of(boundaries, key), h


def shard_of(h: int, span: int, shard_count: int) -> int:
    """Second routing level: which of a tablet's ``shard_count``
    subshards owns the key whose ``key_hash`` is ``h``."""
    return (h // span) % shard_count


def _owner_of(owners: List[str], span: int,
              boundaries: Optional[Sequence[str]], key: str) -> str:
    """A :meth:`TabletMap.key_router`: the owner of ``key``'s tablet, by
    :func:`tablet_of`'s rule.  An unsplit tablet needs no shard, so a
    range-routed key is never hashed."""
    if boundaries is None:
        return owners[tablet_of(key, span)[0]]
    return owners[indexlet_of(boundaries, key)]


class TabletStatus:
    """Shard states: NORMAL serves requests, RECOVERING rejects with RetryLater."""
    NORMAL = "normal"
    RECOVERING = "recovering"


@dataclass
class Tablet:
    """Tablet ``index`` of a table (see :func:`tablet_of`).

    Normally one server owns the whole tablet.  Crash recovery *splits*
    a tablet into subshards (the crashed master's will partitions its
    data so "as many machines as possible" participate, §II-B): after a
    recovery, ``shards`` lists one owner per subshard and key routing
    adds the second level, :func:`shard_of`.
    """

    table_id: int
    index: int
    shards: List[str] = field(default_factory=list)  # owner per subshard
    statuses: List[str] = field(default_factory=list)

    def __post_init__(self):
        if not self.shards:
            raise ValueError("tablet needs at least one shard owner")
        if not self.statuses:
            self.statuses = [TabletStatus.NORMAL] * len(self.shards)
        if len(self.statuses) != len(self.shards):
            raise ValueError("statuses must match shards")

    @property
    def tablet_id(self) -> Tuple[int, int]:
        """(table_id, tablet_index)."""
        return (self.table_id, self.index)

    @property
    def shard_count(self) -> int:
        """Number of subshards (1 unless split by recovery)."""
        return len(self.shards)

    @property
    def server_id(self) -> str:
        """Owner of an unsplit tablet (the common case)."""
        if len(self.shards) != 1:
            raise ValueError(
                f"tablet {self.tablet_id} is split over {self.shards}")
        return self.shards[0]

    @property
    def status(self) -> str:
        """RECOVERING if any shard is recovering."""
        for s in self.statuses:
            if s != TabletStatus.NORMAL:
                return s
        return TabletStatus.NORMAL

    def clone(self) -> "Tablet":
        """An independent copy (for client snapshots)."""
        return Tablet(self.table_id, self.index, list(self.shards),
                      list(self.statuses))


@dataclass
class Table:
    """A named table split into ``span`` tablets."""
    table_id: int
    name: str
    span: int


class TabletMap:  # simlint: disable=PERF001 one per coordinator; __dict__ cost is amortized
    """The coordinator's table/tablet directory."""

    def __init__(self):
        self.epoch = 0
        self._tables_by_id: Dict[int, Table] = {}
        self._tables_by_name: Dict[str, Table] = {}
        self._tablets: Dict[Tuple[int, int], Tablet] = {}
        self._next_table_id = 1

    # -- tables ---------------------------------------------------------

    def create_table(self, name: str, span: int,
                     server_ids: List[str]) -> Table:
        """Create a table of ``span`` tablets over ``server_ids``
        round-robin (the paper's uniform ServerSpan distribution)."""
        if name in self._tables_by_name:
            raise ValueError(f"table {name!r} already exists")
        if span < 1:
            raise ValueError(f"span must be >= 1, got {span}")
        if not server_ids:
            raise ValueError("no servers to place tablets on")
        table = Table(self._next_table_id, name, span)
        self._next_table_id += 1
        self._tables_by_id[table.table_id] = table
        self._tables_by_name[name] = table
        for i in range(span):
            owner = server_ids[i % len(server_ids)]
            self._tablets[(table.table_id, i)] = Tablet(table.table_id, i,
                                                        [owner])
        self.epoch += 1
        return table

    def drop_table(self, name: str) -> None:
        """Remove a table and its tablets."""
        table = self._tables_by_name.pop(name, None)
        if table is None:
            raise KeyError(f"no table {name!r}")
        del self._tables_by_id[table.table_id]
        for i in range(table.span):
            del self._tablets[(table.table_id, i)]
        self.epoch += 1

    def table(self, name: str) -> Optional[Table]:
        """Look a table up by name."""
        return self._tables_by_name.get(name)

    def table_by_id(self, table_id: int) -> Optional[Table]:
        """Look a table up by id."""
        return self._tables_by_id.get(table_id)

    # -- routing ----------------------------------------------------------

    def _owners(self, table_id: int) -> List[str]:
        """The owner of each tablet of an unsplit table, by index."""
        table = self._tables_by_id.get(table_id)
        if table is None:
            raise KeyError(f"no table id {table_id}")
        return [self._tablets[(table_id, i)].server_id
                for i in range(table.span)]

    def key_router(self, table_id: int,
                   desc=None) -> Callable[[str], str]:
        """Resolve an unsplit table's tablet owners once and return
        ``route(key)``, the id of the server holding ``key``: tablets by
        :func:`tablet_of`, by key range through the index descriptor
        ``desc`` for an index table (whose keys are then not hashed).
        An indexed bulk load routes its index entries through one."""
        owners = self._owners(table_id)
        return partial(_owner_of, owners, len(owners),
                       None if desc is None else desc.boundaries)

    def numbered_key_owners(self, table_id: int, prefix: str,
                            count: int) -> Iterator[str]:
        """The owner of each key ``prefix + str(i)``, ``i`` in
        ``range(count)``, of an unsplit data table, in that order: the
        routing of :meth:`key_router`, hashed by
        :func:`numbered_key_hashes`."""
        owners = self._owners(table_id)
        span = len(owners)
        return (owners[h % span] for h in numbered_key_hashes(prefix, count))

    def tablets_of_server(self, server_id: str) -> List[Tuple[Tablet, int]]:
        """Every (tablet, shard_index) the server owns (optimistic scan)."""
        owned = []
        for tablet in self._tablets.values():
            for shard, owner in enumerate(tablet.shards):
                if owner == server_id:
                    owned.append((tablet, shard))
        return owned

    def all_tablets(self) -> List[Tablet]:
        """Every tablet of every table."""
        return list(self._tablets.values())

    def split_shard(self, tablet_id: Tuple[int, int], shard: int,
                    new_owners: List[str], status: str) -> None:
        """Split one shard of a tablet into ``len(new_owners)`` subshards
        (recovery partitioning).  Only unsplit tablets can be split
        further — recovered shards stay atomic in later recoveries."""
        tablet = self._tablets[tablet_id]
        if tablet.shard_count == 1:
            tablet.shards = list(new_owners)
            tablet.statuses = [status] * len(new_owners)
        else:
            if len(new_owners) != 1:
                raise ValueError(
                    "a subshard cannot be split again; pass one owner")
            tablet.shards[shard] = new_owners[0]
            tablet.statuses[shard] = status
        self.epoch += 1

    def reassign_shard(self, tablet_id: Tuple[int, int], shard: int,
                       new_server: str,
                       status: str = TabletStatus.NORMAL) -> None:
        """Point one subshard at a new owner."""
        tablet = self._tablets[tablet_id]
        tablet.shards[shard] = new_server
        tablet.statuses[shard] = status
        self.epoch += 1

    def set_shard_status(self, tablet_id: Tuple[int, int], shard: int,
                         status: str) -> None:
        """Change one subshard's serving status."""
        self._tablets[tablet_id].statuses[shard] = status
        self.epoch += 1

    # -- client snapshots ----------------------------------------------------

    def snapshot(self) -> "TabletMapSnapshot":
        """An immutable copy for a client cache."""
        tablets = {tid: t.clone() for tid, t in self._tablets.items()}
        tables_by_name = dict(self._tables_by_name)
        tables_by_id = dict(self._tables_by_id)
        return TabletMapSnapshot(self.epoch, tables_by_name, tables_by_id,
                                 tablets)


@dataclass
class TabletMapSnapshot:
    """A client's cached view of the tablet map.

    ``membership_version`` is the coordinator's server-list epoch at
    snapshot time; clients stamp it onto data RPCs so a master can
    reject routes that predate the membership change that moved its
    tablets (see :class:`~repro.ramcloud.errors.StaleEpoch`).

    ``live_servers`` is the live server-id tuple (enlistment order) at
    snapshot time — EVENTUAL reads use it to pick a deterministic
    backup candidate for a key without any extra RNG draw.

    ``indexes`` maps a hidden index table's id to its
    :class:`~repro.ramcloud.indexing.IndexDescriptor`; index tablets
    (indexlets) route by key *range*, not hash (see
    :meth:`route`).  Empty unless indexes exist."""

    epoch: int
    tables_by_name: Dict[str, Table]
    tables_by_id: Dict[int, Table]
    tablets: Dict[Tuple[int, int], Tablet]
    membership_version: int = 0
    live_servers: Tuple[str, ...] = ()
    indexes: Dict[int, object] = field(default_factory=dict)

    def route(self, table_id: int, key: str,
              span: Optional[int] = None) -> Tuple[str, int]:
        """``(server_id, key_hash(key))``: the server serving ``key`` in
        this snapshot — its tablet by :func:`tablet_of` (by key range
        for an index table), then its subshard by :func:`shard_of` —
        and the key's hash, which rides in the request so the server
        does not hash the key again.  A caller that already read the
        table's ``span`` passes it in."""
        if span is None:
            span = self.tables_by_id[table_id].span
        desc = self.indexes.get(table_id) if self.indexes else None
        index, h = tablet_of(key, span, desc and desc.boundaries)
        shards = self.tablets[(table_id, index)].shards
        return shards[shard_of(h, span, len(shards))], h
