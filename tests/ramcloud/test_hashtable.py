"""Unit and property tests for the master's hash table."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import itertools

from repro.hardware.specs import KB
from repro.ramcloud.hashtable import HashTable
from repro.ramcloud.segment import LogEntry, Segment

_segment_ids = itertools.count()


def make_entry(key="k", table=1, version=1):
    """An entry placed in a fresh segment (each with its own id)."""
    seg = Segment(next(_segment_ids), 256 * KB)
    entry = LogEntry(table, key, 100, version=version)
    seg.append(entry, entry.log_bytes)
    return seg, entry


class TestHashTable:
    def test_insert_lookup_roundtrip(self):
        ht = HashTable()
        seg, entry = make_entry("alpha")
        ht.insert(1, "alpha", entry)
        assert ht.lookup(1, "alpha") is entry
        assert entry.segment_id == seg.segment_id
        assert len(ht) == 1

    def test_four_argument_insert_stamps_the_segment(self):
        """The older ``insert(table, key, segment, entry)`` form still
        indexes the entry, stamped with that segment's id."""
        ht = HashTable()
        seg = Segment(41, 256 * KB)
        entry = LogEntry(1, "k", 100, 1)
        assert ht.insert(1, "k", seg, entry) is None
        assert ht.lookup(1, "k") is entry
        assert entry.segment_id == 41

    def test_index_holds_the_entry_not_a_tuple(self):
        ht = HashTable()
        _seg, entry = make_entry("k")
        ht.insert(1, "k", entry)
        assert all(value is entry for keys in ht._tables.values()
                   for value in keys.values())

    def test_lookup_missing_returns_none(self):
        assert HashTable().lookup(1, "ghost") is None

    def test_insert_displaces_old_entry(self):
        ht = HashTable()
        seg1, old = make_entry("k", version=1)
        seg2, new = make_entry("k", version=2)
        ht.insert(1, "k", old)
        displaced = ht.insert(1, "k", new)
        assert displaced is old
        assert not old.live
        assert ht.lookup(1, "k") is new
        assert new.segment_id == seg2.segment_id != seg1.segment_id
        assert len(ht) == 1

    def test_tables_are_isolated(self):
        ht = HashTable()
        _seg1, e1 = make_entry("k", table=1)
        _seg2, e2 = make_entry("k", table=2)
        ht.insert(1, "k", e1)
        ht.insert(2, "k", e2)
        assert ht.lookup(1, "k") is e1
        assert ht.lookup(2, "k") is e2

    def test_remove_marks_dead(self):
        ht = HashTable()
        _seg, entry = make_entry("k")
        ht.insert(1, "k", entry)
        removed = ht.remove(1, "k")
        assert removed is entry
        assert not entry.live
        assert ht.lookup(1, "k") is None

    def test_remove_missing_returns_none(self):
        assert HashTable().remove(1, "nope") is None

    def test_relocate_repoints_live_object(self):
        ht = HashTable()
        seg1, entry = make_entry("k")
        ht.insert(1, "k", entry)
        seg2, moved = make_entry("k")
        ht.relocate(1, "k", moved)
        assert ht.lookup(1, "k") is moved
        assert moved.segment_id == seg2.segment_id != seg1.segment_id
        # Relocate does not kill the original (the cleaner does that).
        assert entry.live

    def test_relocate_unindexed_rejected(self):
        ht = HashTable()
        _seg, entry = make_entry("k")
        with pytest.raises(KeyError):
            ht.relocate(1, "k", entry)

    def test_keys_for_table(self):
        ht = HashTable()
        for table, key in ((1, "a"), (2, "z"), (1, "b"), (2, "y"),
                           (1, "c")):
            _seg, e = make_entry(key, table=table)
            ht.insert(table, key, e)
        _seg, e = make_entry("other", table=2)
        ht.insert(2, "other", e)
        assert sorted(ht.keys_for_table(1)) == ["a", "b", "c"]
        # Per-table insertion order: an overwrite keeps its place, a
        # remove + re-insert moves last; other tables are untouched.
        _seg, e = make_entry("a", table=1, version=2)
        ht.insert(1, "a", e)
        ht.remove(1, "b")
        _seg, e = make_entry("b", table=1, version=2)
        ht.insert(1, "b", e)
        assert list(ht.keys_for_table(1)) == ["a", "c", "b"]
        assert list(ht.keys_for_table(2)) == ["z", "y", "other"]
        assert list(ht.keys_for_table(3)) == []

    def test_drop_table(self):
        ht = HashTable()
        entries = []
        for key in ("a", "b"):
            _seg, e = make_entry(key)
            ht.insert(1, key, e)
            entries.append(e)
        _seg, other = make_entry("a", table=2)
        ht.insert(2, "a", other)
        dropped = ht.drop_table(1)
        assert dropped == 2
        assert len(ht) == 1
        assert all(not e.live for e in entries)
        # The second table is untouched.
        assert ht.lookup(2, "a") is other
        assert other.live
        assert list(ht.keys_for_table(2)) == ["a"]
        assert ht.drop_table(1) == 0

    @given(keys=st.lists(st.text(min_size=1, max_size=8), min_size=1,
                         max_size=50, unique=True))
    @settings(max_examples=30, deadline=None)
    def test_insert_then_remove_leaves_empty(self, keys):
        """Property: inserting N distinct keys then removing them all
        leaves the table empty and every entry dead."""
        ht = HashTable()
        entries = []
        for key in keys:
            _seg, e = make_entry(key)
            ht.insert(1, key, e)
            entries.append(e)
        assert len(ht) == len(keys)
        for key in keys:
            ht.remove(1, key)
        assert len(ht) == 0
        assert all(not e.live for e in entries)
