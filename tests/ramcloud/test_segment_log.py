"""Unit tests for log entries, segments and the log-structured memory."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hardware.specs import KB, MB
from repro.ramcloud.config import ServerConfig
from repro.ramcloud.errors import LogOutOfMemory
from repro.ramcloud.log import Log
from repro.ramcloud.segment import (
    ENTRY_HEADER_BYTES,
    FullLogEntry,
    LogEntry,
    Segment,
)


def small_config(segments=4, segment_size=256 * KB):
    return ServerConfig(log_memory_bytes=segments * segment_size,
                        segment_size=segment_size,
                        replication_factor=0)


class TestLogEntry:
    def test_log_bytes_includes_header_and_key(self):
        entry = LogEntry(1, "user42", 1024, version=1)
        assert entry.log_bytes == ENTRY_HEADER_BYTES + len("user42") + 1024

    def test_tombstone_is_dead_on_arrival(self):
        tomb = FullLogEntry(1, "k", 0, version=2, is_tombstone=True)
        assert tomb.is_tombstone
        assert not tomb.live

    def test_plain_record_has_no_value_keys_or_tombstone_slot(self):
        plain = LogEntry(1, "k", 10, 1)
        assert plain.live and not plain.is_tombstone
        assert plain.value is None and plain.index_keys is None
        with pytest.raises(AttributeError):
            plain.value = b"x"  # no slot: a plain record stays plain
        indexed = FullLogEntry(1, "k", 3, 3, index_keys=((7, "sec"),))
        assert indexed.live and indexed.value is None
        assert indexed.log_bytes == ENTRY_HEADER_BYTES + 1 + 3 + len("sec")

    def test_log_appends_the_leanest_record_class(self):
        log = Log(small_config())
        cases = [({}, LogEntry), ({"value": b"v"}, FullLogEntry),
                 ({"is_tombstone": True}, FullLogEntry),
                 ({"index_keys": ((7, "sec"),)}, FullLogEntry)]
        for version, (kwargs, cls) in enumerate(cases, start=1):
            segment, entry, _closed = log.append(1, "k", 1, version,
                                                 **kwargs)
            assert type(entry) is cls
            assert entry.segment_id == segment.segment_id

    def test_negative_size_rejected(self):
        with pytest.raises(ValueError):
            LogEntry(1, "k", -1, version=1)


class TestSegment:
    def test_append_accounts_bytes(self):
        seg = Segment(0, 256 * KB)
        entry = LogEntry(1, "k", 1024, version=1)
        seg.append(entry, entry.log_bytes)
        assert seg.bytes_used == entry.log_bytes
        assert seg.free_bytes == 256 * KB - entry.log_bytes

    def test_append_to_closed_segment_rejected(self):
        seg = Segment(0, 256 * KB)
        seg.close()
        with pytest.raises(ValueError):
            entry = LogEntry(1, "k", 10, version=1)
            seg.append(entry, entry.log_bytes)

    def test_append_overflow_rejected(self):
        seg = Segment(0, 1 * KB)
        with pytest.raises(ValueError):
            entry = LogEntry(1, "k", 2 * KB, version=1)
            seg.append(entry, entry.log_bytes)

    def test_utilization_tracks_live_fraction(self):
        seg = Segment(0, 256 * KB)
        a = LogEntry(1, "a", 1000, version=1)
        b = LogEntry(1, "b", 1000, version=2)
        seg.append(a, a.log_bytes)
        seg.append(b, b.log_bytes)
        assert seg.utilization == pytest.approx(1.0)
        a.live = False
        assert 0.4 < seg.utilization < 0.6
        assert seg.dead_bytes == a.log_bytes

    def test_live_entries_iterates_only_live(self):
        seg = Segment(0, 256 * KB)
        a = LogEntry(1, "a", 10, version=1)
        b = LogEntry(1, "b", 10, version=2)
        seg.append(a, a.log_bytes)
        seg.append(b, b.log_bytes)
        a.live = False
        assert [e.key for e in seg.live_entries()] == ["b"]

    def test_tiny_capacity_rejected(self):
        with pytest.raises(ValueError):
            Segment(0, 10)


class TestLog:
    def test_head_opens_on_construction(self):
        log = Log(small_config())
        assert log.head is not None
        assert not log.head.closed
        assert len(log.segments) == 1

    def test_append_returns_position(self):
        log = Log(small_config())
        segment, entry, closed = log.append(1, "k", 1024, version=1)
        assert segment is log.head
        assert entry.key == "k"
        assert closed is None

    def test_head_rolls_when_full(self):
        config = small_config(segments=4, segment_size=256 * KB)
        log = Log(config)
        # ~60 KB objects: 4 fit in a 256 KB segment.
        closed_count = 0
        for i in range(8):
            _s, _e, closed = log.append(1, f"k{i}", 60 * KB, version=i + 1)
            if closed is not None:
                closed_count += 1
                assert closed.closed
        assert closed_count >= 1
        assert len(log.segments) >= 2

    def test_on_close_callback_fires(self):
        closed_segments = []
        config = small_config(segments=8)
        log = Log(config, on_close=closed_segments.append)
        for i in range(10):
            log.append(1, f"k{i}", 60 * KB, version=i + 1)
        assert closed_segments
        assert all(s.closed for s in closed_segments)

    def test_on_open_assigns_backups(self):
        config = small_config()
        log = Log(config, on_open=lambda seg: ("b1", "b2"))
        assert log.head.replica_backups == ("b1", "b2")

    def test_log_out_of_memory(self):
        config = small_config(segments=2)
        log = Log(config)
        with pytest.raises(LogOutOfMemory):
            for i in range(100):
                log.append(1, f"k{i}", 60 * KB, version=i + 1)

    def test_oversized_object_rejected(self):
        log = Log(small_config())
        with pytest.raises(ValueError):
            log.append(1, "big", 512 * KB, version=1)

    def test_free_segment_reclaims_space(self):
        config = small_config(segments=2)
        log = Log(config)
        first_head = log.head
        for i in range(6):
            log.append(1, f"k{i}", 60 * KB, version=i + 1)
        assert len(log.segments) == 2
        log.free_segment(first_head)
        assert len(log.segments) == 1
        # Space is reusable: more appends now succeed.
        for i in range(3):
            log.append(1, f"m{i}", 60 * KB, version=100 + i)

    def test_cannot_free_head(self):
        log = Log(small_config())
        with pytest.raises(ValueError):
            log.free_segment(log.head)

    def test_memory_utilization(self):
        config = small_config(segments=4)
        log = Log(config)
        assert log.memory_utilization == pytest.approx(0.25)

    def test_cleanable_segments_sorted_by_liveness(self):
        config = small_config(segments=8)
        log = Log(config)
        entries = []
        for i in range(12):
            _s, e, _c = log.append(1, f"k{i}", 60 * KB, version=i + 1)
            entries.append(e)
        # Kill most entries of the first segment.
        first = min(log.segments.values(), key=lambda s: s.segment_id)
        for e in first.entries[:3]:
            e.live = False
        candidates = log.cleanable_segments()
        assert candidates
        assert candidates[0] is first

    @given(sizes=st.lists(st.integers(min_value=1, max_value=60 * KB),
                          min_size=1, max_size=60))
    @settings(max_examples=30, deadline=None)
    def test_appended_bytes_invariant(self, sizes):
        """Property: sum of live+dead bytes in all segments equals the
        total appended bytes, regardless of the append pattern."""
        config = small_config(segments=64)
        log = Log(config)
        for i, size in enumerate(sizes):
            log.append(1, f"key{i}", size, version=i + 1)
        in_segments = sum(s.bytes_used for s in log.segments.values())
        assert in_segments == log.appended_bytes
