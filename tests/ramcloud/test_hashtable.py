"""Unit and property tests for the master's hash table."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hardware.specs import KB
from repro.ramcloud.hashtable import HashTable
from repro.ramcloud.segment import LogEntry, Segment


def make_entry(key="k", table=1, version=1):
    seg = Segment(0, 256 * KB)
    entry = LogEntry(table, key, 100, version=version)
    seg.append(entry)
    return seg, entry


class TestHashTable:
    def test_insert_lookup_roundtrip(self):
        ht = HashTable()
        seg, entry = make_entry("alpha")
        ht.insert(1, "alpha", seg, entry)
        assert ht.lookup(1, "alpha") == (seg, entry)
        assert len(ht) == 1

    def test_lookup_missing_returns_none(self):
        assert HashTable().lookup(1, "ghost") is None

    def test_insert_displaces_old_entry(self):
        ht = HashTable()
        seg1, old = make_entry("k", version=1)
        seg2, new = make_entry("k", version=2)
        ht.insert(1, "k", seg1, old)
        displaced = ht.insert(1, "k", seg2, new)
        assert displaced is old
        assert not old.live
        assert ht.lookup(1, "k") == (seg2, new)
        assert len(ht) == 1

    def test_tables_are_isolated(self):
        ht = HashTable()
        seg1, e1 = make_entry("k", table=1)
        seg2, e2 = make_entry("k", table=2)
        ht.insert(1, "k", seg1, e1)
        ht.insert(2, "k", seg2, e2)
        assert ht.lookup(1, "k") == (seg1, e1)
        assert ht.lookup(2, "k") == (seg2, e2)

    def test_remove_marks_dead(self):
        ht = HashTable()
        seg, entry = make_entry("k")
        ht.insert(1, "k", seg, entry)
        removed = ht.remove(1, "k")
        assert removed is entry
        assert not entry.live
        assert ht.lookup(1, "k") is None

    def test_remove_missing_returns_none(self):
        assert HashTable().remove(1, "nope") is None

    def test_relocate_repoints_live_object(self):
        ht = HashTable()
        seg1, entry = make_entry("k")
        ht.insert(1, "k", seg1, entry)
        seg2, moved = make_entry("k")
        ht.relocate(1, "k", seg2, moved)
        assert ht.lookup(1, "k") == (seg2, moved)
        # Relocate does not kill the original (the cleaner does that).
        assert entry.live

    def test_relocate_unindexed_rejected(self):
        ht = HashTable()
        seg, entry = make_entry("k")
        with pytest.raises(KeyError):
            ht.relocate(1, "k", seg, entry)

    def test_keys_for_table(self):
        ht = HashTable()
        for table, key in ((1, "a"), (2, "z"), (1, "b"), (2, "y"),
                           (1, "c")):
            seg, e = make_entry(key, table=table)
            ht.insert(table, key, seg, e)
        seg, e = make_entry("other", table=2)
        ht.insert(2, "other", seg, e)
        assert sorted(ht.keys_for_table(1)) == ["a", "b", "c"]
        # Per-table insertion order: an overwrite keeps its place, a
        # remove + re-insert moves last; other tables are untouched.
        seg, e = make_entry("a", table=1, version=2)
        ht.insert(1, "a", seg, e)
        ht.remove(1, "b")
        seg, e = make_entry("b", table=1, version=2)
        ht.insert(1, "b", seg, e)
        assert list(ht.keys_for_table(1)) == ["a", "c", "b"]
        assert list(ht.keys_for_table(2)) == ["z", "y", "other"]
        assert list(ht.keys_for_table(3)) == []

    def test_drop_table(self):
        ht = HashTable()
        entries = []
        for key in ("a", "b"):
            seg, e = make_entry(key)
            ht.insert(1, key, seg, e)
            entries.append(e)
        other = make_entry("a", table=2)
        ht.insert(2, "a", *other)
        dropped = ht.drop_table(1)
        assert dropped == 2
        assert len(ht) == 1
        assert all(not e.live for e in entries)
        # The second table is untouched.
        assert ht.lookup(2, "a") == other
        assert other[1].live
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
            seg, e = make_entry(key)
            ht.insert(1, key, seg, e)
            entries.append(e)
        assert len(ht) == len(keys)
        for key in keys:
            ht.remove(1, key)
        assert len(ht) == 0
        assert all(not e.live for e in entries)
