"""The master's in-memory index: (table, key) → log entry.

RAMCloud indexes its log with a hash table; every read goes through it
and every write updates it.  We model it as one dict per table,
``{table_id: {key: entry}}``: the value is the :class:`LogEntry` itself,
which carries its own liveness (for the cleaner) and the id of the
segment that holds it, so the index keeps no per-record tuple.  Keeping
the tables apart means no ``(table_id, key)`` tuple is built per object
or per lookup, and a per-table scan (:meth:`HashTable.keys_for_table`,
:meth:`HashTable.drop_table`) touches only that table's keys, in their
insertion order.

Every mutation happens under the owning master's ``log_lock``: the
class declares it with ``@guarded_by`` and, in debug mode, each write
is checked for it (:mod:`repro.sim.sanitize`).  Lookups are not
checked.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional

from repro.ramcloud.segment import LogEntry
from repro.sim.sanitize import NULL_SHARED, guarded_by

__all__ = ["HashTable"]

# Stands in for a table with no keys; never written to.
_EMPTY: Dict[str, LogEntry] = {}


@guarded_by("log_lock")
class HashTable:
    """Maps live objects to their current log entry.

    Mutations must hold the owning master's ``log_lock`` (the index and
    the log entry's liveness change together); in debug mode
    ``self.race`` checks each per-key write for it.
    """

    __slots__ = ("_tables", "race")

    def __init__(self):
        self._tables: Dict[int, Dict[str, LogEntry]] = {}
        self.race = NULL_SHARED

    def __len__(self) -> int:
        return sum(len(keys) for keys in self._tables.values())

    def lookup(self, table_id: int, key: str) -> Optional[LogEntry]:
        """The live entry for a key (``entry.segment_id`` names the
        segment that holds it), or None."""
        return self._tables.get(table_id, _EMPTY).get(key)

    def insert(self, table_id: int, key: str, entry: LogEntry,
               placed: Optional[LogEntry] = None) -> Optional[LogEntry]:
        """Point (table, key) at a new entry; returns the displaced
        entry (now dead) if the key existed.

        The older form ``insert(table_id, key, segment, entry)``, which
        the benchmark's micro ladder still calls, is accepted too: it
        stamps the entry with that segment's id first.
        """
        if placed is not None:
            placed.segment_id = entry.segment_id
            entry = placed
        if self.race.enabled:
            self.race.write(f"t{table_id}/{key}")
        keys = self._tables.get(table_id)
        if keys is None:
            keys = self._tables[table_id] = {}
        old = keys.get(key)
        keys[key] = entry
        if old is not None:
            old.live = False
        return old

    def insert_all(self, table_id: int, entries: List[LogEntry]) -> None:
        """:meth:`insert` each entry under its own key, in order (a bulk
        load's records)."""
        if not entries:
            return
        race = self.race
        keys = self._tables.get(table_id)
        if keys is None:
            keys = self._tables[table_id] = {}
        for entry in entries:
            key = entry.key
            if race.enabled:
                race.write(f"t{table_id}/{key}")
            old = keys.get(key)
            keys[key] = entry
            if old is not None:
                old.live = False

    def remove(self, table_id: int, key: str) -> Optional[LogEntry]:
        """Drop the index entry (object deleted); returns the dead entry."""
        if self.race.enabled:
            self.race.write(f"t{table_id}/{key}")
        old = self._tables.get(table_id, _EMPTY).pop(key, None)
        if old is not None:
            old.live = False
        return old

    def relocate(self, table_id: int, key: str, entry: LogEntry) -> None:
        """Repoint a live object after the cleaner copied it forward.

        Unlike :meth:`insert` this must only be called for an object the
        cleaner verified is still the current version.
        """
        self.race.write(f"t{table_id}/{key}")
        keys = self._tables.get(table_id, _EMPTY)
        if key not in keys:
            raise KeyError(f"relocate of unindexed object t{table_id}/{key}")
        keys[key] = entry

    def keys_for_table(self, table_id: int) -> Iterator[str]:
        """Iterate the live keys of one table (an optimistic snapshot:
        callers revalidate per key under the lock)."""
        return iter(self._tables.get(table_id, _EMPTY))

    def drop_table(self, table_id: int) -> int:
        """Remove every object of a table; returns how many were dropped."""
        doomed = self._tables.pop(table_id, _EMPTY)
        for entry in doomed.values():
            entry.live = False
        return len(doomed)
