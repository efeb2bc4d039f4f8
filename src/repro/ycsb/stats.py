"""Latency and throughput statistics for YCSB clients."""

from __future__ import annotations

import math
from array import array
from heapq import merge
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

__all__ = ["LatencyRecorder", "OperationStats", "nearest_rank"]


def nearest_rank(values: Sequence[float], p: float) -> float:
    """Nearest-rank percentile of ``values`` (any order), p in (0, 100]."""
    if not values:
        raise ValueError("no samples")
    if not 0 < p <= 100:
        raise ValueError(f"percentile must be in (0, 100], got {p}")
    ordered = sorted(values)
    rank = max(1, math.ceil(p / 100.0 * len(ordered)))
    return ordered[rank - 1]


class LatencyRecorder:
    """Collects (completion time, latency) samples for one operation type.

    The samples live in two ``array('d')`` columns, ``times`` and
    ``latencies`` — 16 bytes per sample, where a list of tuples costs
    about 113.  Samples arrive in the order ``sorted()`` gives the
    ``(time, latency)`` pairs, as a client's sequential ops complete;
    iterating a recorder yields the pairs in that order.
    """

    __slots__ = ("name", "times", "latencies")

    def __init__(self, name: str = ""):
        self.name = name
        self.times = array("d")
        self.latencies = array("d")

    def record(self, time: float, latency: float) -> None:
        """Append one (completion time, latency) sample.  It may not sort
        before the previous one: not at an earlier time, nor at the same
        time with a smaller latency."""
        if latency < 0:
            raise ValueError(f"negative latency: {latency}")
        times = self.times
        if times and time <= times[-1] and (
                time < times[-1] or latency < self.latencies[-1]):
            raise ValueError(
                f"recorder {self.name!r}: sample ({time}, {latency}) is "
                f"earlier than the previous one at {times[-1]}")
        times.append(time)
        self.latencies.append(latency)

    def __len__(self) -> int:
        return len(self.times)

    def __iter__(self) -> Iterator[Tuple[float, float]]:
        return zip(self.times, self.latencies)

    def mean(self) -> float:
        """Arithmetic mean latency."""
        if not self.times:
            raise ValueError(f"no samples recorded for {self.name!r}")
        return sum(self.latencies) / len(self.latencies)

    def percentile(self, p: float) -> float:
        """Nearest-rank percentile, p in (0, 100]."""
        if not self.times:
            raise ValueError(f"no samples recorded for {self.name!r}")
        return nearest_rank(self.latencies, p)

    def windowed_means(self, window: float) -> List[Tuple[float, float]]:
        """Average latency per time window — the Fig. 10 time series."""
        if window <= 0:
            raise ValueError("window must be positive")
        buckets: Dict[int, List[float]] = {}
        for t, lat in self:
            buckets.setdefault(int(t / window), []).append(lat)
        return [(b * window, sum(v) / len(v))
                for b, v in sorted(buckets.items())]


class OperationStats:
    """Per-client roll-up across operation types."""

    __slots__ = ("reads", "updates", "inserts", "scans", "index_ops",
                 "started_at", "finished_at", "errors")

    def __init__(self):
        self.reads = LatencyRecorder("read")
        self.updates = LatencyRecorder("update")
        self.inserts = LatencyRecorder("insert")
        self.scans = LatencyRecorder("scan")
        # Secondary-index operations (range Search and indexed point
        # lookups); empty on unindexed workloads.
        self.index_ops = LatencyRecorder("index")
        self.started_at: Optional[float] = None
        self.finished_at: Optional[float] = None
        self.errors = 0

    @property
    def total_ops(self) -> int:
        """Completed operations across all types."""
        return (len(self.reads) + len(self.updates) + len(self.inserts)
                + len(self.scans) + len(self.index_ops))

    @property
    def runtime(self) -> float:
        """Wall time from first to last op (client must have finished)."""
        if self.started_at is None or self.finished_at is None:
            raise ValueError("client has not finished")
        return self.finished_at - self.started_at

    def throughput(self) -> float:
        """Completed ops per second over the runtime."""
        runtime = self.runtime
        if runtime <= 0:
            return float("inf")
        return self.total_ops / runtime

    def all_latencies(self) -> LatencyRecorder:
        """All op types merged into one recorder, in ``(time, latency)``
        order.  Each recorder is already in that order, so a merge gives
        exactly what sorting the pooled pairs would.

        When only one op type has samples, that recorder itself is
        returned (read it, do not record into it): a finished run then
        keeps no second copy of its samples."""
        recorders = (self.reads, self.updates, self.inserts, self.scans,
                     self.index_ops)
        used = [r for r in recorders if r.times]
        if len(used) == 1:
            return used[0]
        merged = LatencyRecorder("all")
        times, latencies = merged.times, merged.latencies
        for t, lat in merge(*used):
            times.append(t)
            latencies.append(lat)
        return merged
