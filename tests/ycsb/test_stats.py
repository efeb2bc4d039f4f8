"""Unit tests for latency/throughput statistics."""

import pickle
import tracemalloc

import pytest

from repro.sim.distributions import RandomStream
from repro.ycsb.stats import LatencyRecorder, OperationStats


class TestLatencyRecorder:
    def test_mean(self):
        rec = LatencyRecorder()
        for i, lat in enumerate([1.0, 2.0, 3.0]):
            rec.record(float(i), lat)
        assert rec.mean() == pytest.approx(2.0)

    def test_negative_latency_rejected(self):
        with pytest.raises(ValueError):
            LatencyRecorder().record(0.0, -1.0)

    def test_empty_mean_rejected(self):
        with pytest.raises(ValueError):
            LatencyRecorder().mean()

    def test_percentiles(self):
        rec = LatencyRecorder()
        for i in range(100):
            rec.record(float(i), float(i + 1))
        assert rec.percentile(50) == 50.0
        assert rec.percentile(99) == 99.0
        assert rec.percentile(100) == 100.0

    def test_percentile_bounds(self):
        rec = LatencyRecorder()
        rec.record(0.0, 1.0)
        with pytest.raises(ValueError):
            rec.percentile(0)
        with pytest.raises(ValueError):
            rec.percentile(101)

    def test_windowed_means(self):
        rec = LatencyRecorder()
        rec.record(0.1, 10.0)
        rec.record(0.9, 20.0)
        rec.record(1.5, 30.0)
        windows = rec.windowed_means(1.0)
        assert windows == [(0.0, 15.0), (1.0, 30.0)]

    def test_windowed_means_invalid_window(self):
        with pytest.raises(ValueError):
            LatencyRecorder().windowed_means(0.0)


class TestOperationStats:
    def test_totals_and_throughput(self):
        stats = OperationStats()
        stats.started_at = 0.0
        for i in range(10):
            stats.reads.record(float(i) / 10, 0.001)
        for i in range(5):
            stats.updates.record(float(i) / 10, 0.002)
        stats.finished_at = 3.0
        assert stats.total_ops == 15
        assert stats.throughput() == pytest.approx(5.0)

    def test_runtime_requires_completion(self):
        stats = OperationStats()
        with pytest.raises(ValueError):
            _ = stats.runtime

    def test_all_latencies_merges_sorted(self):
        stats = OperationStats()
        stats.reads.record(2.0, 0.1)
        stats.updates.record(1.0, 0.2)
        stats.inserts.record(3.0, 0.3)
        merged = stats.all_latencies()
        assert list(merged.times) == [1.0, 2.0, 3.0]
        assert len(merged) == 3


class TestColumns:
    """The recorder keeps two float columns, in sorted (time, latency)
    order."""

    def test_samples_cost_at_most_twenty_bytes(self):
        rec = LatencyRecorder("read")
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            for i in range(10_000):
                rec.record(i * 1e-5, 1e-5 + (i % 7) * 1e-6)
            kept = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert len(rec) == 10_000
        assert kept / 10_000 <= 20

    def test_all_latencies_equals_sorted_pairs(self):
        stream = RandomStream(5, "stats")
        stats = OperationStats()
        recorders = [stats.reads, stats.updates, stats.inserts,
                     stats.scans, stats.index_ops]
        samples = []
        t = 0.0
        for _ in range(2_000):
            # Coarse times and latencies, so that op types often share
            # an instant and ties are broken by latency.
            t += stream.choice((0.0, 0.0, 0.25, 0.5))
            samples.append((t, stream.choice((1.0, 2.0, 3.0)),
                            stream.choice(range(len(recorders)))))
        for t, lat, which in sorted(samples):
            recorders[which].record(t, lat)
        merged = stats.all_latencies()
        assert list(merged) == sorted((t, lat) for t, lat, _ in samples)

    def test_out_of_order_sample_rejected(self):
        rec = LatencyRecorder("read")
        rec.record(2.0, 5.0)
        rec.record(2.0, 5.0)
        rec.record(2.0, 6.0)
        with pytest.raises(ValueError, match="earlier"):
            rec.record(1.0, 9.0)
        with pytest.raises(ValueError, match="earlier"):
            rec.record(2.0, 4.0)
        assert list(rec) == [(2.0, 5.0), (2.0, 5.0), (2.0, 6.0)]

    def test_columns_are_floats(self):
        rec = LatencyRecorder()
        rec.record(1, 2)
        assert [type(v) for v in rec.latencies] == [float]
        assert list(rec) == [(1.0, 2.0)]

    def test_pickle_round_trip(self):
        stats = OperationStats()
        stats.reads.record(0.5, 0.1)
        stats.updates.record(0.75, 0.2)
        stats.started_at, stats.finished_at = 0.0, 1.0
        copy = pickle.loads(pickle.dumps(stats))
        assert copy.reads.name == "read"
        assert list(copy.all_latencies()) == [(0.5, 0.1), (0.75, 0.2)]
        assert copy.throughput() == stats.throughput()
