"""Log-structured secondary indexes (indexlets).

A secondary index is stored as a *hidden table* whose objects are index
entries: the key is ``secondary + KEY_SEP + primary`` (so entries sort
by secondary key and ties break on primary key) and the value is empty.
Because entries are ordinary log records, the write path appends them,
the cleaner relocates them, replication makes them durable and crash
recovery replays them — an index is never rebuilt by scanning the base
table, it is recovered exactly like data (SLIK's design point).

The hidden table is split into **indexlets**: tablets whose routing is
*range-based* instead of hash-based.  ``boundaries`` is a sorted tuple
of lower bounds, one per indexlet, with ``boundaries[0] == ""`` so the
whole key space is covered; indexlet *i* owns entry keys in
``[boundaries[i], boundaries[i+1])``.  Only the first routing level
changes (:func:`~repro.ramcloud.tablets.tablet_of`) — recovery's shard
splitting still distributes an indexlet's entries by key hash, so a
recovered indexlet fans out over subshards like any tablet.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right, insort
from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.sim.sanitize import NULL_SHARED, guarded_by

__all__ = [
    "KEY_SEP",
    "IndexDescriptor",
    "SortedIndexEntries",
    "decode_entry_key",
    "encode_entry_key",
    "secondary_key",
    "uniform_boundaries",
]

# Separator between the secondary and primary halves of an entry key.
# It sorts below every printable character, so for secondaries free of
# NUL the encoded keys order exactly like (secondary, primary) pairs and
# a pure-secondary string is a valid range bound.
KEY_SEP = "\x00"


def encode_entry_key(secondary: str, primary: str) -> str:
    """The hidden-table key of one index entry."""
    if KEY_SEP in secondary:
        raise ValueError("secondary keys must not contain NUL")
    return secondary + KEY_SEP + primary


def decode_entry_key(entry_key: str) -> Tuple[str, str]:
    """Split an entry key back into (secondary, primary)."""
    secondary, _, primary = entry_key.partition(KEY_SEP)
    return secondary, primary


def secondary_key(i: int) -> str:
    """The canonical synthetic secondary key for record *i*.

    Zero-padded so lexicographic order equals numeric order, which lets
    YCSB turn a numeric record range into a key range."""
    return f"s{i:010d}"


def uniform_boundaries(num_records: int, num_indexlets: int) -> Tuple[str, ...]:
    """Indexlet lower bounds that split ``secondary_key(0..n)`` evenly."""
    if num_indexlets < 1:
        raise ValueError(f"need at least one indexlet, got {num_indexlets}")
    bounds: List[str] = [""]
    for k in range(1, num_indexlets):
        bounds.append(secondary_key((k * num_records) // num_indexlets))
    return tuple(bounds)


@dataclass(frozen=True)
class IndexDescriptor:
    """Coordinator-side description of one secondary index.

    ``index_id`` is the hidden table's table id; ``table_id`` is the
    base table the index covers.  ``boundaries`` has one lower bound per
    indexlet (``boundaries[0] == ""``), strictly increasing.
    """

    index_id: int
    table_id: int
    name: str
    boundaries: Tuple[str, ...]

    def __post_init__(self):
        if not self.boundaries or self.boundaries[0] != "":
            raise ValueError("boundaries must start with the empty string")
        if list(self.boundaries) != sorted(set(self.boundaries)):
            raise ValueError("boundaries must be strictly increasing")

    @property
    def num_indexlets(self) -> int:
        return len(self.boundaries)


@guarded_by("log_lock")
class SortedIndexEntries:
    """A master's sorted view of the index entries it stores.

    The hash table answers point lookups; range ``search`` needs entry
    keys in order, so masters keep one sorted key list per hidden index
    table, updated in lock-step with the hash table under ``log_lock``
    (entry liveness and range membership change together).  The cleaner
    never touches it — relocation keeps keys unchanged.
    """

    __slots__ = ("_sorted", "race")

    def __init__(self):
        self._sorted: Dict[int, List[str]] = {}
        self.race = NULL_SHARED

    def insert(self, index_id: int, entry_key: str) -> None:
        """Add an entry key (idempotent: re-appends of the same entry
        key, e.g. recovery replay after migration, are absorbed)."""
        if self.race.enabled:
            self.race.write(f"i{index_id}/{entry_key}")
        keys = self._sorted.setdefault(index_id, [])
        pos = bisect_right(keys, entry_key)
        if pos > 0 and keys[pos - 1] == entry_key:
            return
        insort(keys, entry_key)

    def remove(self, index_id: int, entry_key: str) -> None:
        """Drop an entry key (tolerates absence: a tombstone can replay
        against a shard that never saw the insert)."""
        if self.race.enabled:
            self.race.write(f"i{index_id}/{entry_key}")
        keys = self._sorted.get(index_id)
        if not keys:
            return
        pos = bisect_right(keys, entry_key) - 1
        if pos >= 0 and keys[pos] == entry_key:
            del keys[pos]

    def range(self, index_id: int, lo: str, hi: str) -> List[str]:
        """Entry keys in ``[lo, hi)``, ascending (a snapshot copy)."""
        keys = self._sorted.get(index_id)
        if not keys:
            return []
        return keys[bisect_left(keys, lo):bisect_left(keys, hi)]

    def count(self, index_id: int) -> int:
        """How many entries this master holds for one index."""
        return len(self._sorted.get(index_id, ()))

    def counts(self) -> Tuple[Tuple[int, int], ...]:
        """(index_id, entries) per index, sorted — digest/test fodder."""
        return tuple(sorted((index_id, len(keys))
                            for index_id, keys in self._sorted.items()))
