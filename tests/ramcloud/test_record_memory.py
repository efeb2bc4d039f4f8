"""Host memory per resident record and per finished run's samples.

A preloaded cell holds one log entry per record, so a record's Python
cost sets how large a cell fits in host memory (DESIGN.md, "Memory").
A plain record is one six-slot ``LogEntry`` that the hash table points
at directly; with the key string made beforehand, a bulk load keeps
about 141 B per record (the entry, its version int, a dict slot and the
segment's list slot).
"""

import sys
import tracemalloc
from heapq import merge

from repro.cluster import Cluster, ClusterSpec
from repro.hardware.specs import MB
from repro.ramcloud.config import ServerConfig
from repro.ramcloud.segment import LogEntry
from repro.ycsb.stats import OperationStats

RECORDS = 20_000


class _SixSlots:
    __slots__ = ("a", "b", "c", "d", "e", "f")


def test_bulk_load_traces_at_most_150_bytes_per_record(monkeypatch):
    monkeypatch.setenv("REPRO_SIM_DEBUG", "0")  # no sanitizer state
    cluster = Cluster(ClusterSpec(
        num_servers=1, num_clients=1, seed=1,
        server_config=ServerConfig(log_memory_bytes=64 * MB,
                                   replication_factor=0)))
    assert cluster.sim._sanitizer is None
    table_id = cluster.create_table("t")
    server = cluster.servers[0]
    keys = [f"user{i}" for i in range(RECORDS)]
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        loaded = server.bulk_load(table_id, keys, 100)
        kept = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert loaded == RECORDS == len(server.hashtable)
    assert kept / RECORDS <= 150


def test_plain_record_is_six_slots():
    entry = LogEntry(1, "user1", 1024, 1)
    assert len(LogEntry.__slots__) == 6
    assert not hasattr(entry, "__dict__")
    assert sys.getsizeof(entry) <= sys.getsizeof(_SixSlots())


def test_reads_only_client_shares_its_recorder():
    stats = OperationStats()
    for i in range(50):
        stats.reads.record(i * 1e-3, 1e-4 + (i % 5) * 1e-5)
    merged = list(merge(stats.reads, stats.updates, stats.inserts,
                        stats.scans, stats.index_ops))
    everything = stats.all_latencies()
    assert everything is stats.reads  # no second copy of the samples
    assert list(everything) == merged
