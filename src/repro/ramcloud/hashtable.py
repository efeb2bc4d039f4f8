"""The master's in-memory index: (table, key) → log position.

RAMCloud indexes its log with a hash table; every read goes through it
and every write updates it.  We model it as one dict per table,
``{table_id: {key: (segment, entry)}}``, with live/dead bookkeeping so
the cleaner can tell what to copy forward.  Keeping the tables apart
means no ``(table_id, key)`` tuple is built per object or per lookup,
and a per-table scan (:meth:`HashTable.keys_for_table`,
:meth:`HashTable.drop_table`) touches only that table's keys, in their
insertion order.

Every mutation happens under the owning master's ``log_lock``: the
class declares it with ``@guarded_by`` and, in debug mode, each write
is checked for it (:mod:`repro.sim.sanitize`).  Lookups are not
checked.
"""

from __future__ import annotations

from typing import Dict, Iterator, Optional, Tuple

from repro.ramcloud.segment import LogEntry, Segment
from repro.sim.sanitize import NULL_SHARED, guarded_by

__all__ = ["HashTable"]

# Stands in for a table with no keys; never written to.
_EMPTY: Dict[str, Tuple[Segment, LogEntry]] = {}


@guarded_by("log_lock")
class HashTable:
    """Maps live objects to their current log entry.

    Mutations must hold the owning master's ``log_lock`` (the index and
    the log entry's liveness change together); in debug mode
    ``self.race`` checks each per-key write for it.
    """

    __slots__ = ("_tables", "race")

    def __init__(self):
        self._tables: Dict[int, Dict[str, Tuple[Segment, LogEntry]]] = {}
        self.race = NULL_SHARED

    def __len__(self) -> int:
        return sum(len(keys) for keys in self._tables.values())

    def lookup(self, table_id: int, key: str) -> Optional[Tuple[Segment, LogEntry]]:
        """The live (segment, entry) for a key, or None."""
        return self._tables.get(table_id, _EMPTY).get(key)

    def insert(self, table_id: int, key: str, segment: Segment,
               entry: LogEntry) -> Optional[LogEntry]:
        """Point (table, key) at a new entry; returns the displaced
        entry (now dead) if the key existed."""
        if self.race.enabled:
            self.race.write(f"t{table_id}/{key}")
        keys = self._tables.get(table_id)
        if keys is None:
            keys = self._tables[table_id] = {}
        old = keys.get(key)
        keys[key] = (segment, entry)
        if old is not None:
            old_entry = old[1]
            old_entry.live = False
            return old_entry
        return None

    def remove(self, table_id: int, key: str) -> Optional[LogEntry]:
        """Drop the index entry (object deleted); returns the dead entry."""
        if self.race.enabled:
            self.race.write(f"t{table_id}/{key}")
        old = self._tables.get(table_id, _EMPTY).pop(key, None)
        if old is None:
            return None
        old[1].live = False
        return old[1]

    def relocate(self, table_id: int, key: str, segment: Segment,
                 entry: LogEntry) -> None:
        """Repoint a live object after the cleaner copied it forward.

        Unlike :meth:`insert` this must only be called for an object the
        cleaner verified is still the current version.
        """
        self.race.write(f"t{table_id}/{key}")
        keys = self._tables.get(table_id, _EMPTY)
        if key not in keys:
            raise KeyError(f"relocate of unindexed object t{table_id}/{key}")
        keys[key] = (segment, entry)

    def keys_for_table(self, table_id: int) -> Iterator[str]:
        """Iterate the live keys of one table (an optimistic snapshot:
        callers revalidate per key under the lock)."""
        return iter(self._tables.get(table_id, _EMPTY))

    def drop_table(self, table_id: int) -> int:
        """Remove every object of a table; returns how many were dropped."""
        doomed = self._tables.pop(table_id, _EMPTY)
        for _segment, entry in doomed.values():
            entry.live = False
        return len(doomed)
