"""Measurement time series.

The paper samples per-node power once per second via SNMP and reports
averaged CPU usage per node.  A :class:`TimeSeries` holds such samples
— the PDU's watts (:meth:`~repro.hardware.node.Node.start_metering`),
crash-run timelines, governor decisions — and integrates them.  CPU
time itself comes from :meth:`~repro.hardware.cpu.Cpu.busy_core_seconds`.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

__all__ = ["TimeSeries"]


class TimeSeries:
    """An append-only series of ``(time, value)`` samples."""

    __slots__ = ("name", "times", "values")

    def __init__(self, name: str = ""):
        self.name = name
        self.times: List[float] = []
        self.values: List[float] = []

    def __len__(self) -> int:
        return len(self.values)

    def record(self, time: float, value: float) -> None:
        """Append one sample; times must be non-decreasing."""
        if self.times and time < self.times[-1]:
            raise ValueError(
                f"time series {self.name!r}: non-monotonic sample at {time}"
            )
        self.times.append(time)
        self.values.append(value)

    def mean(self) -> float:
        """Arithmetic mean of the sampled values."""
        if not self.values:
            raise ValueError(f"time series {self.name!r} is empty")
        return sum(self.values) / len(self.values)

    def min(self) -> float:
        """Smallest sampled value."""
        return min(self.values)

    def max(self) -> float:
        """Largest sampled value."""
        return max(self.values)

    def integral(self) -> float:
        """Trapezoidal integral of value over time (e.g. watts → joules).

        **Contract**: the integral covers exactly ``[times[0],
        times[-1]]`` and linearly interpolates *between consecutive
        samples* — including across gaps.  A producer that only samples
        while "something is happening" therefore silently misrepresents
        idle stretches: the gap is integrated as a straight line between
        the two active endpoints, not as the true idle level, and
        anything before the first or after the last sample contributes
        nothing at all.  Producers must emit at a fixed cadence even
        when the value is unchanged, plus boundary samples at start and
        stop of the measured window —
        :meth:`~repro.hardware.node.Node.start_metering` does exactly
        this.
        """
        total = 0.0
        for i in range(1, len(self.times)):
            dt = self.times[i] - self.times[i - 1]
            total += 0.5 * (self.values[i] + self.values[i - 1]) * dt
        return total

    def time_weighted_mean(self) -> float:
        """Mean value weighted by sample spacing (``integral / span``).

        Equals :meth:`mean` for evenly spaced samples; prefer it when
        the cadence varied (restarted metering, mixed intervals), where
        the plain sample mean over-weights densely sampled stretches.
        Falls back to :meth:`mean` when the series spans zero time.
        """
        if not self.values:
            raise ValueError(f"time series {self.name!r} is empty")
        span = self.times[-1] - self.times[0]
        if span <= 0:
            return self.mean()
        return self.integral() / span

    def window(self, start: float, end: float) -> "TimeSeries":
        """Samples with ``start <= t <= end``."""
        out = TimeSeries(self.name)
        for t, v in zip(self.times, self.values):
            if start <= t <= end:
                out.record(t, v)
        return out

    def items(self) -> Sequence[Tuple[float, float]]:
        """The samples as ``[(time, value), ...]``."""
        return list(zip(self.times, self.values))
