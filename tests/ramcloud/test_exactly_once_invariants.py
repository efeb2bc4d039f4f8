"""Property tests: exactly-once key visibility across log mutations.

Seeded randomized interleavings of write / delete / clean / migrate
drive a master's :class:`~repro.ramcloud.log.Log` +
:class:`~repro.ramcloud.hashtable.HashTable` pair (plus a migration
target pair), checking after every step that

* every live key is indexed by exactly one owner, at its latest
  version, pointing at a live entry in that owner's log;
* across all segments there is exactly one live entry per live key
  (overwrites, cleaner copies and migrations leave no duplicates);
* a crash-style replay of the surviving segments reconstructs exactly
  the live set — no acknowledged write lost, no deleted key resurrected
  (tombstones are copied forward by the cleaner, never collected, so
  the highest-version record for a deleted key is always a tombstone).

No hypothesis dependency: interleavings come from the repo's own
seeded :class:`~repro.sim.distributions.RandomStream`, so failures
reproduce byte-for-byte from the seed in the test id.
"""

import pytest

from repro.hardware.specs import KB, MB
from repro.ramcloud.config import ServerConfig
from repro.ramcloud.hashtable import HashTable
from repro.ramcloud.log import Log
from repro.sim.distributions import RandomStream

TABLE = 1


def small_config():
    return ServerConfig(log_memory_bytes=4 * MB, segment_size=64 * KB,
                        replication_factor=0)


class MasterPair:
    """Two masters (a migration source and target) plus the oracle."""

    def __init__(self):
        self.logs = {"src": Log(small_config()), "dst": Log(small_config())}
        self.tables = {"src": HashTable(), "dst": HashTable()}
        self.owner = {}  # key → "src" | "dst" (kept for deleted keys too)
        self.live = {}  # key → (version, value_size), the oracle
        self.deleted = {}  # key → tombstone version
        self.versions = {}  # key → highest version ever issued

    # -- operations ------------------------------------------------------

    def write(self, key, value_size):
        owner = self.owner.setdefault(key, "src")
        version = self.versions.get(key, 0) + 1
        _segment, entry, _closed = self.logs[owner].append(
            TABLE, key, value_size, version)
        self.tables[owner].insert(TABLE, key, entry)
        self.versions[key] = version
        self.live[key] = (version, value_size)
        self.deleted.pop(key, None)

    def delete(self, key):
        owner = self.owner[key]
        version = self.versions[key] + 1
        self.logs[owner].append(TABLE, key, 0, version, is_tombstone=True)
        self.tables[owner].remove(TABLE, key)
        self.versions[key] = version
        del self.live[key]
        self.deleted[key] = version

    def clean_one_segment(self, owner):
        """Copy one cleanable segment's surviving data forward and free
        it: live entries are relocated, tombstones carried along (our
        test cleaner never collects them — dropping one early would
        resurrect its key on replay), dead records dropped."""
        log, table = self.logs[owner], self.tables[owner]
        candidates = log.cleanable_segments()
        if not candidates:
            return False
        victim = candidates[0]
        for entry in list(victim.entries):
            if entry.is_tombstone:
                log.append(TABLE, entry.key, 0, entry.version,
                           is_tombstone=True, privileged=True)
            elif entry.live:
                current = table.lookup(TABLE, entry.key)
                assert current is entry, "live flag and index disagree"
                _segment, copy, _closed = log.append(
                    TABLE, entry.key, entry.value_size, entry.version,
                    privileged=True)
                table.relocate(TABLE, entry.key, copy)
                entry.live = False
        log.free_segment(victim)
        return True

    def migrate(self, key):
        """Move a live key to the other master (tablet migration)."""
        source = self.owner[key]
        target = "dst" if source == "src" else "src"
        entry = self.tables[source].lookup(TABLE, key)
        _segment, copy, _closed = self.logs[target].append(
            TABLE, key, entry.value_size, entry.version)
        self.tables[target].insert(TABLE, key, copy)
        self.tables[source].remove(TABLE, key)
        self.owner[key] = target

    # -- invariants ------------------------------------------------------

    def check_index(self):
        for key, (version, value_size) in self.live.items():
            owner = self.owner[key]
            other = "dst" if owner == "src" else "src"
            entry = self.tables[owner].lookup(TABLE, key)
            assert entry is not None, f"live key {key} not indexed"
            assert entry.version == version, key
            assert entry.value_size == value_size, key
            assert entry.live and not entry.is_tombstone, key
            segments = self.logs[owner].segments
            assert entry.segment_id in segments, key
            assert entry in segments[entry.segment_id].entries, key
            assert self.tables[other].lookup(TABLE, key) is None, \
                f"{key} visible on both masters"
        for key in self.deleted:
            assert self.tables[self.owner[key]].lookup(TABLE, key) is None

    def check_one_live_entry_per_key(self):
        for owner, log in self.logs.items():
            counts = {}
            for segment in log.segments.values():
                for entry in segment.entries:
                    if entry.live and not entry.is_tombstone:
                        counts[entry.key] = counts.get(entry.key, 0) + 1
            expected = {key: 1 for key in self.live
                        if self.owner[key] == owner}
            assert counts == expected, f"duplicate live entries on {owner}"

    def replay(self, owner):
        """Crash-style rebuild from the surviving segments: highest
        version wins, a winning tombstone kills the key."""
        best = {}
        for segment_id in sorted(self.logs[owner].segments):
            for entry in self.logs[owner].segments[segment_id].entries:
                top = best.get(entry.key)
                if top is None or entry.version >= top.version:
                    best[entry.key] = entry
        return {key: (entry.version, entry.value_size)
                for key, entry in best.items() if not entry.is_tombstone}

    def check_replay(self):
        for owner in self.logs:
            rebuilt = self.replay(owner)
            for key, record in self.live.items():
                if self.owner[key] == owner:
                    assert rebuilt.get(key) == record, \
                        f"replay lost/corrupted acked write {key}"
            for key in self.deleted:
                if self.owner[key] == owner:
                    assert key not in rebuilt, \
                        f"replay resurrected deleted key {key}"

    def check_all(self):
        self.check_index()
        self.check_one_live_entry_per_key()
        self.check_replay()


@pytest.mark.parametrize("seed", [1, 7, 42, 1234])
def test_random_interleavings_preserve_exactly_once_visibility(seed):
    stream = RandomStream(seed, "exactly-once")
    pair = MasterPair()
    keyspace = [f"user{i}" for i in range(80)]
    for step in range(600):
        roll = stream.uniform()
        if roll < 0.55:
            pair.write(stream.choice(keyspace), stream.randint(60, 300))
        elif roll < 0.70 and pair.live:
            pair.delete(stream.choice(sorted(pair.live)))
        elif roll < 0.85:
            pair.clean_one_segment(stream.choice(["src", "dst"]))
        elif pair.live:
            pair.migrate(stream.choice(sorted(pair.live)))
        if step % 25 == 0:
            pair.check_all()
    pair.check_all()
    # The run must have exercised every operation kind.
    assert pair.live and pair.deleted
    assert any(owner == "dst" for owner in pair.owner.values())


def test_recovery_after_heavy_cleaning_matches_oracle():
    # Overwrite a small keyspace hard so the cleaner runs many times,
    # then replay: the rebuilt state must equal the oracle exactly.
    stream = RandomStream(99, "churn")
    pair = MasterPair()
    keyspace = [f"user{i}" for i in range(10)]
    cleaned = 0
    for _ in range(5000):
        pair.write(stream.choice(keyspace), stream.randint(200, 400))
        if len(pair.logs["src"].segments) > 4:
            while pair.clean_one_segment("src"):
                cleaned += 1
    assert cleaned > 10, "cleaner never ran; test lost its point"
    pair.check_all()
    rebuilt = pair.replay("src")
    assert rebuilt == {key: record for key, record in pair.live.items()
                      if pair.owner[key] == "src"}
