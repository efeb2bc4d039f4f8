"""The append-only log-structured memory (§II-B).

"A server uses an append-only log-structured memory to store its data
and a hash-table to index it. The log-structured memory of each server
is divided into 8MB segments."

The log tracks segment lifecycle: the head segment receives appends;
when full it is *closed* (backups then flush their replica to disk) and
a new head is opened (backups for it are chosen by the owner via the
``on_open`` callback).  The cleaner returns segments to the free pool.

Structural changes and appends happen under the owning master's
``log_lock``, declared with ``@guarded_by``; in debug mode the log and
its segments share one handle that checks each write for the lock
(:mod:`repro.sim.sanitize`).
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, List, Optional, Tuple

from repro.ramcloud.config import ServerConfig
from repro.ramcloud.errors import LogOutOfMemory
from repro.ramcloud.segment import FullLogEntry, LogEntry, Segment
from repro.sim.sanitize import NULL_SHARED, guarded_by

__all__ = ["Log"]


@guarded_by("log_lock")
class Log:
    """One master's log-structured memory.

    Structural mutations (head roll, segment open/free) must hold the
    owning master's ``log_lock``; in debug mode ``self.race`` (installed
    via :meth:`set_race`) checks each of them for it.
    """

    # Segments kept back for the cleaner: without headroom to copy live
    # data into, a full log could never be cleaned (RAMCloud reserves
    # "survivor" segments for exactly this reason).
    RESERVED_SEGMENTS = 2

    __slots__ = ("config", "segment_size", "max_segments", "_on_open",
                 "_on_close", "race", "segments", "_next_segment_id",
                 "head", "appended_bytes")

    def __init__(self, config: ServerConfig,
                 on_open: Optional[Callable[[Segment], Tuple[str, ...]]] = None,
                 on_close: Optional[Callable[[Segment], None]] = None):
        self.config = config
        self.segment_size = config.segment_size
        self.max_segments = config.total_segments
        self._on_open = on_open
        self._on_close = on_close
        self.race = NULL_SHARED
        self.segments: Dict[int, Segment] = {}
        self._next_segment_id = 0
        self.head: Segment = self._open_segment()
        self.appended_bytes = 0

    def set_race(self, race) -> None:
        """Install the guard-check handle (debug mode), covering the
        head segment opened before the handle existed."""
        self.race = race
        self.head.race = race

    # -- segment lifecycle ------------------------------------------------

    def _open_segment(self, privileged: bool = False) -> Segment:
        limit = self.max_segments
        if not privileged and self.max_segments > self.RESERVED_SEGMENTS:
            limit = self.max_segments - self.RESERVED_SEGMENTS
        if len(self.segments) >= limit:
            raise LogOutOfMemory(
                f"log full: {len(self.segments)} segments of "
                f"{self.segment_size} bytes (limit {limit})"
            )
        self.race.write("segments")
        segment = Segment(self._next_segment_id, self.segment_size)
        segment.race = self.race
        self._next_segment_id += 1
        self.segments[segment.segment_id] = segment
        if self._on_open is not None:
            segment.replica_backups = tuple(self._on_open(segment))
        return segment

    def _roll_head(self, privileged: bool = False) -> Segment:
        """Close the head and open a new one; returns the closed segment."""
        new_head = self._open_segment(privileged)  # may raise: head intact
        self.race.write("head")
        closed = self.head
        closed.close()
        if self._on_close is not None:
            self._on_close(closed)
        self.head = new_head
        return closed

    def free_segment(self, segment: Segment) -> None:
        """Return a (cleaned or recovered-from) segment to the free pool."""
        if segment is self.head:
            raise ValueError("cannot free the head segment")
        if segment.segment_id not in self.segments:
            raise KeyError(f"segment {segment.segment_id} not in this log")
        self.race.write("segments")
        del self.segments[segment.segment_id]

    # -- appending ----------------------------------------------------------

    def append(self, table_id: int, key: str, value_size: int, version: int,
               value: Optional[bytes] = None,
               is_tombstone: bool = False,
               privileged: bool = False,
               index_keys: Optional[Tuple[Tuple[int, str], ...]] = None,
               ) -> Tuple[Segment, LogEntry, Optional[Segment]]:
        """Append an entry; returns ``(segment, entry, closed_segment)``.

        The entry is a six-slot :class:`LogEntry` unless it carries a
        value or secondary keys or is a tombstone; then it is a
        :class:`FullLogEntry`.

        ``closed_segment`` is non-None when this append rolled the head,
        so the caller can push the close to backups.  ``privileged``
        appends (the cleaner's survivor copies) may dip into the
        reserved segments.

        Exception safety: an entry larger than a segment raises
        ``ValueError`` and a full log raises :class:`LogOutOfMemory`
        before anything changes — the head, its entries and
        ``appended_bytes`` are as they were, so the caller may stall and
        retry, or stop with every earlier append intact.
        """
        if value is None and index_keys is None and not is_tombstone:
            entry = LogEntry(table_id, key, value_size, version)
        else:
            entry = FullLogEntry(table_id, key, value_size, version, value,
                                 is_tombstone, index_keys)
        nbytes = entry.log_bytes
        if nbytes > self.segment_size:
            raise self._oversized(nbytes)
        closed = None
        if self.race.enabled:
            self.race.write("head")
        head = self.head
        if head.bytes_used + nbytes > head.capacity:
            closed = self._roll_head(privileged)
            head = self.head
        head.append(entry, nbytes)
        self.appended_bytes += nbytes
        return head, entry, closed

    def append_plain(self, table_id: int, keys: Iterable[str],
                     value_size: int, version: int,
                     entries: List[LogEntry]) -> None:
        """Append one plain record (a :class:`LogEntry`) per key, in
        order, with versions counting up from ``version``, and add each
        to ``entries``: :meth:`append`'s work for a bulk load, in one
        loop.

        Every check :meth:`append` makes is made per record, and the
        head rolls where it would.  On an error (a negative
        ``value_size``, an entry larger than a segment, a full log) the
        records before the failing one stay appended and are in
        ``entries``, and the log is as that many :meth:`append` calls
        would have left it.
        """
        segment_size = self.segment_size
        race = self.race
        add = entries.append
        head = self.head
        for key in keys:
            entry = LogEntry(table_id, key, value_size, version)
            nbytes = entry.log_bytes
            if nbytes > segment_size:
                raise self._oversized(nbytes)
            if race.enabled:
                race.write("head")
            if head.bytes_used + nbytes > head.capacity:
                self._roll_head()
                head = self.head
            head.append(entry, nbytes)
            self.appended_bytes += nbytes
            add(entry)
            version += 1

    def _oversized(self, nbytes: int) -> ValueError:
        return ValueError(
            f"object of {nbytes}B exceeds segment size {self.segment_size}B")

    # -- accounting -----------------------------------------------------------

    @property
    def used_bytes(self) -> int:
        """Bytes of DRAM held by allocated segments."""
        return len(self.segments) * self.segment_size

    @property
    def live_bytes(self) -> int:
        """Bytes of live (indexed) data across all segments."""
        return sum(seg.live_bytes for seg in self.segments.values())

    @property
    def memory_utilization(self) -> float:
        """Fraction of the log memory budget in use (cleaner trigger)."""
        return self.used_bytes / (self.max_segments * self.segment_size)

    def closed_segments(self) -> List[Segment]:
        """Segments no longer accepting appends (optimistic snapshot)."""
        return [s for s in self.segments.values() if s.closed]

    def cleanable_segments(self) -> List[Segment]:
        """Closed segments with any dead data, best candidates first
        (lowest live fraction — the cost/benefit policy RAMCloud uses).
        An optimistic snapshot: the cleaner revalidates under the lock."""
        candidates = [s for s in self.segments.values()
                      if s.closed and s.dead_bytes > 0]
        candidates.sort(key=lambda s: s.utilization)
        return candidates
