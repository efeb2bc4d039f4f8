"""Log entries and segments.

The log-structured memory is divided into fixed-size segments (8 MB in
the paper, §II-B).  A segment is append-only; deleting or overwriting
an object leaves a dead entry behind (plus a tombstone for deletes) that
only the cleaner reclaims.

A record is one Python object per log entry, and a preloaded cell holds
one per record, so its shape is sized: a plain object record
(:class:`LogEntry`) has six slots and the master's hash table points at
it directly; it knows its segment by id.  Values, secondary keys and
tombstones live in the :class:`FullLogEntry` subclass, which the log's
appender picks only when a record needs it.
"""

from __future__ import annotations

from typing import Iterator, List, Optional, Tuple

from repro.sim.sanitize import NULL_SHARED

__all__ = ["LogEntry", "FullLogEntry", "Segment", "ENTRY_HEADER_BYTES"]

# Per-entry log overhead (entry header + checksum), as in RAMCloud.
ENTRY_HEADER_BYTES = 40


class LogEntry:
    """One plain object record in the log: no value bytes, no secondary
    keys, not a tombstone — what a bulk load and every YCSB write
    append.

    Six slots (80 B with the collector's header): the hash table points
    at this object directly, and ``segment_id`` names the segment that
    holds it (set once, by :meth:`Segment.append`).  Records that carry
    a value or secondary keys, and tombstones, are
    :class:`FullLogEntry`; here those fields read as class attributes.
    """

    __slots__ = ("table_id", "key", "value_size", "version", "live",
                 "segment_id")

    value: Optional[bytes] = None
    # Secondary keys this object carries, as (index_id, secondary)
    # pairs (None for unindexed objects).  Stored in the record — as
    # in RAMCloud/SLIK — so recovery replay and the cleaner can
    # re-derive a record's index entries without consulting anyone.
    index_keys: Optional[Tuple[Tuple[int, str], ...]] = None
    is_tombstone = False

    def __init__(self, table_id: int, key: str, value_size: int,
                 version: int):
        if value_size < 0:
            raise ValueError(f"negative value size: {value_size}")
        self.table_id = table_id
        self.key = key
        self.value_size = value_size
        self.version = version
        # A live entry is reachable from the hash table; overwrites and
        # deletes mark the old entry dead for the cleaner.
        self.live = True

    @property
    def log_bytes(self) -> int:
        """Bytes this entry occupies in the log."""
        return ENTRY_HEADER_BYTES + len(self.key) + self.value_size

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        kind = "tombstone" if self.is_tombstone else "object"
        return (f"<LogEntry {kind} t{self.table_id}/{self.key} "
                f"v{self.version} {self.value_size}B>")


class FullLogEntry(LogEntry):
    """A record with value bytes or secondary keys, or a tombstone."""

    __slots__ = ("value", "index_keys", "is_tombstone")

    def __init__(self, table_id: int, key: str, value_size: int,
                 version: int, value: Optional[bytes] = None,
                 is_tombstone: bool = False,
                 index_keys: Optional[Tuple[Tuple[int, str], ...]] = None):
        LogEntry.__init__(self, table_id, key, value_size, version)
        self.value = value
        self.is_tombstone = is_tombstone
        self.index_keys = index_keys
        self.live = not is_tombstone

    @property
    def log_bytes(self) -> int:
        """Bytes this entry occupies in the log, secondary keys included."""
        size = ENTRY_HEADER_BYTES + len(self.key) + self.value_size
        if self.index_keys:
            for _index_id, secondary in self.index_keys:
                size += len(secondary)
        return size


class Segment:
    """A fixed-size append-only region of the in-memory log."""

    __slots__ = ("segment_id", "capacity", "bytes_used", "entries",
                 "closed", "replica_backups", "race")

    def __init__(self, segment_id: int, capacity: int):
        if capacity <= ENTRY_HEADER_BYTES:
            raise ValueError(f"segment capacity too small: {capacity}")
        self.segment_id = segment_id
        self.capacity = capacity
        self.bytes_used = 0
        self.entries: List[LogEntry] = []
        self.closed = False
        # Guard-check handle shared with the owning Log (debug mode).
        self.race = NULL_SHARED
        # Backup server ids holding replicas of this segment (chosen at
        # open time — §II-B: "a random backup in the cluster is chosen
        # for each new segment").
        self.replica_backups: Tuple[str, ...] = ()

    @property
    def free_bytes(self) -> int:
        """Capacity remaining for appends."""
        return self.capacity - self.bytes_used

    @property
    def live_bytes(self) -> int:
        """Bytes of still-indexed entries."""
        return sum(e.log_bytes for e in self.entries if e.live)

    @property
    def dead_bytes(self) -> int:
        """Bytes of overwritten/deleted entries (cleaner fodder)."""
        return self.bytes_used - self.live_bytes

    @property
    def utilization(self) -> float:
        """Fraction of used bytes still live (cleaner candidate metric)."""
        if self.bytes_used == 0:
            return 0.0
        return self.live_bytes / self.bytes_used

    def append(self, entry: LogEntry, nbytes: int) -> None:
        """Add an entry of ``nbytes`` (its :attr:`~LogEntry.log_bytes`,
        which the caller has already read); the segment must be open and
        have room."""
        if self.closed:
            raise ValueError(f"append to closed segment {self.segment_id}")
        if self.bytes_used + nbytes > self.capacity:
            raise ValueError(
                f"entry of {nbytes}B does not fit in segment "
                f"{self.segment_id} ({self.free_bytes}B free)"
            )
        if self.race.enabled:
            self.race.write(f"seg{self.segment_id}")
        entry.segment_id = self.segment_id
        self.entries.append(entry)
        self.bytes_used += nbytes

    def close(self) -> None:
        """Seal the segment (backups flush their replica to disk)."""
        self.race.write(f"seg{self.segment_id}")
        self.closed = True

    def live_entries(self) -> Iterator[LogEntry]:
        """Iterate the entries still reachable from the hash table (an
        optimistic scan: the cleaner revalidates per entry under the
        lock before relocating)."""
        return (e for e in self.entries if e.live)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "closed" if self.closed else "open"
        return (f"<Segment {self.segment_id} {state} "
                f"{self.bytes_used}/{self.capacity}B "
                f"{len(self.entries)} entries>")
