"""The HDD model.

A single disk head (``Resource`` of capacity 1) serves reads and writes
in queue order.  A seek penalty is charged whenever an operation is not
sequential with the previous one — so a backup streaming a segment to
disk pays one seek, while interleaved recovery reads and re-replication
writes keep paying seeks against each other.  That head contention is
the mechanism behind the paper's Fig. 12 discussion ("the probability of
disk-interference between the backup performing a recovery, i.e.
reading, and a server replaying data, i.e. writing, is high").

Per-direction byte counters feed the aggregate-I/O time series.
"""

from __future__ import annotations

from typing import Generator, Optional

from repro.hardware.specs import DiskSpec
from repro.sim.kernel import Simulator
from repro.sim.resources import Container, PriorityResource

__all__ = ["Disk"]


class Disk:
    """A spinning disk with one head and sequential/seek cost model."""

    def __init__(self, sim: Simulator, spec: DiskSpec, name: str = ""):
        self.sim = sim
        self.spec = spec
        self.name = name
        self._head = PriorityResource(sim, 1, name=f"{name}:head")
        self.space = Container(sim, float(spec.capacity_bytes), name=f"{name}:space")
        # (direction, stream_id) of the last completed op: consecutive
        # ops from the same stream in the same direction are sequential.
        self._last_stream: Optional[tuple] = None
        # Fault injection: when set, sequential bandwidth is clamped to
        # this value (a failing spindle, a throttled rebuild).
        self._bandwidth_override: Optional[float] = None
        self.bytes_read = 0
        self.bytes_written = 0
        self.busy_seconds = 0.0
        self._busy = False

    @property
    def busy(self) -> bool:
        """True while an operation occupies the head (for the power adder)."""
        return self._busy

    @property
    def queue_length(self) -> int:
        """I/O requests waiting for the head."""
        return self._head.queue_length

    @property
    def effective_bandwidth(self) -> float:
        """Sequential bandwidth in effect (degraded or nominal)."""
        if self._bandwidth_override is not None:
            return self._bandwidth_override
        return self.spec.sequential_bandwidth

    def degrade(self, bandwidth_bytes_per_s: float) -> None:
        """Clamp sequential bandwidth (fault injection).  In-flight
        operations keep their already-computed duration; every operation
        starting afterwards pays the degraded rate."""
        if bandwidth_bytes_per_s <= 0:
            raise ValueError(
                f"degraded bandwidth must be positive: {bandwidth_bytes_per_s}")
        self._bandwidth_override = bandwidth_bytes_per_s

    def restore(self) -> None:
        """Lift a :meth:`degrade` clamp."""
        self._bandwidth_override = None

    def _transfer_time(self, nbytes: int, stream: tuple) -> float:
        seek = 0.0 if stream == self._last_stream else self.spec.seek_time
        return seek + nbytes / self.effective_bandwidth

    def _io(self, nbytes: int, direction: str, stream_id: object,
            priority: int) -> Generator:
        if nbytes < 0:
            raise ValueError(f"negative I/O size: {nbytes}")
        req = self._head.request(priority=priority)
        try:
            yield req
        except BaseException:
            if req.triggered and req.ok:
                self._head.release(req)
            else:
                self._head.cancel(req)
            raise
        stream = (direction, stream_id)
        self._busy = True
        started = self.sim.now
        try:
            yield self.sim.sleep(self._transfer_time(nbytes, stream))
            self._last_stream = stream
            if direction == "read":
                self.bytes_read += nbytes
            else:
                self.bytes_written += nbytes
        finally:
            self.busy_seconds += self.sim.now - started
            self._head.release(req)
            self._busy = self._head.count > 0

    def read(self, nbytes: int, stream_id: object = None,
             priority: int = 0) -> Generator:
        """``yield from disk.read(n)`` — read ``n`` bytes.

        Returns ``_io``'s generator directly (no ``yield from``
        trampoline): the caller drives it without an extra frame per
        resume.
        """
        return self._io(nbytes, "read", stream_id, priority)

    def write(self, nbytes: int, stream_id: object = None,
              priority: int = 0) -> Generator:
        """``yield from disk.write(n)`` — write ``n`` bytes (space is
        accounted separately by the caller via :attr:`space`).

        Returns ``_io``'s generator directly, like :meth:`read`.
        """
        return self._io(nbytes, "write", stream_id, priority)

    def io_counters(self) -> tuple:
        """Cumulative ``(bytes_read, bytes_written)`` — the PDU-style
        sampler differences successive snapshots to get MB/s."""
        return self.bytes_read, self.bytes_written
