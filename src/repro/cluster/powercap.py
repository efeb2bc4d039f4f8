"""Cluster-level power capping (docs/POWER.md).

Data centers provision power for the rack, not the node: when the
fleet approaches its budget, *something* must shed load.  RAMCloud has
no admission control of its own, but the paper's Fig. 13 shows the
lever that works — client-side rate limiting collapses both tail
latency and power draw.  The :class:`PowerCapController` closes that
loop: sample every server's power draw each ``cap_interval``, and when
the fleet exceeds ``power_cap_watts``, clamp the cluster-wide
:class:`AdmissionThrottle` that paces every YCSB client (the same
token-bucket slot arithmetic as ``target_ops_per_second``, but with a
rate the controller can move at run time).

Control law: proportional decrease, gentle multiplicative increase.
Over the cap, the admitted rate is scaled by ``cap / watts`` in one
step (power is near-affine in throughput, so this lands close to the
cap immediately); below ``cap - cap_hysteresis_watts``, the rate is
raised 5 % per tick until the cap — or the clients' natural demand —
binds again.  Inside the hysteresis band the controller holds still,
which is what keeps it from oscillating.

Determinism: the controller measures utilization from its own
``busy_core_seconds()`` snapshots and draws no randomness at all.
Reading CPU time never changes it, so the controller cannot perturb the
PDU's readings.  It only exists
when a cap is configured, so uncapped runs carry no extra process,
event, or float.
"""

from __future__ import annotations

import math
from typing import List, Optional

from repro.powermgmt.policy import PowerPolicy
from repro.sim.kernel import Interrupt, Process, Simulator
from repro.sim.monitor import TimeSeries

__all__ = ["AdmissionThrottle", "PowerCapController"]


class AdmissionThrottle:
    """A cluster-wide token bucket with a rate the controller can move.

    Clients call :meth:`reserve` before each operation and sleep the
    returned delay; the controller assigns :attr:`rate` (ops/s, shared
    across all clients, ``inf`` = disengaged).  ``reserve`` never
    yields, so concurrent callers in one timestep serialize cleanly on
    the slot counter.
    """

    def __init__(self, sim: Simulator, name: str = "admission"):
        self.sim = sim
        self.name = name
        self.rate: float = math.inf
        self._next_slot = 0.0

    def reserve(self) -> float:
        """Claim the next admission slot; returns seconds to wait."""
        if math.isinf(self.rate):
            return 0.0
        now = self.sim.now
        slot = self._next_slot if self._next_slot > now else now
        self._next_slot = slot + 1.0 / self.rate
        return slot - now

    def set_rate(self, rate: float) -> None:
        """Assign the admitted cluster rate (ops/s; ``inf`` disengages)."""
        if rate <= 0:
            raise ValueError(f"admission rate must be positive, got {rate}")
        self.rate = rate


class PowerCapController:
    """Holds the fleet's power draw at a cap by throttling admission."""

    #: Multiplicative increase applied per tick while under the band.
    INCREASE = 1.05
    #: Never throttle below this many ops/s per server (forward progress).
    MIN_RATE_PER_SERVER = 100.0

    def __init__(self, sim: Simulator, server_nodes, servers,
                 throttle: AdmissionThrottle, policy: PowerPolicy):
        if policy.power_cap_watts is None:
            raise ValueError("PowerCapController needs a power cap")
        self.sim = sim
        self.server_nodes = list(server_nodes)
        self.servers = list(servers)
        self.throttle = throttle
        self.policy = policy
        self.cap_watts = policy.power_cap_watts
        #: Fleet power as the controller measured it, one point per tick.
        self.watts_series = TimeSeries(name="powercap:fleet-watts")
        #: Admitted rate after each tick (inf while disengaged).
        self.rate_series = TimeSeries(name="powercap:rate")
        self._busy = [n.cpu.busy_core_seconds() for n in self.server_nodes]
        self._ops = sum(s.ops_completed for s in self.servers)
        self._last_time = sim.now
        self._process: Optional[Process] = sim.process(
            self._loop(), name="powercap:controller")

    def stop(self) -> None:
        """Halt the control loop (cluster shutdown)."""
        if self._process is not None and self._process.is_alive:
            self._process.interrupt("power cap controller stopped")
        self._process = None

    # ------------------------------------------------------------------

    def fleet_watts(self) -> float:
        """Fleet power over the window since the last call, from the
        controller's own busy-core-second snapshots (freq- and
        parked-core-aware; dead/powered-off nodes read zero).  The
        window is never empty: the loop sleeps ``cap_interval > 0``
        before every call."""
        elapsed = self.sim.now - self._last_time
        total = 0.0
        for i, node in enumerate(self.server_nodes):
            busy = node.cpu.busy_core_seconds()
            util = 100.0 * (busy - self._busy[i]) / (elapsed * node.cpu.cores)
            self._busy[i] = busy
            total += node.power.instantaneous_watts(util_pct=util)
        self._last_time = self.sim.now
        return total

    def _measured_ops_rate(self, elapsed: float) -> float:
        ops = sum(s.ops_completed for s in self.servers)
        rate = (ops - self._ops) / elapsed if elapsed > 0 else 0.0
        self._ops = ops
        return rate

    def _loop(self):
        interval = self.policy.cap_interval
        floor = self.MIN_RATE_PER_SERVER * max(1, len(self.servers))
        try:
            while True:
                yield self.sim.timeout(interval)
                watts = self.fleet_watts()
                measured = self._measured_ops_rate(interval)
                self.watts_series.record(self.sim.now, watts)
                rate = self.throttle.rate
                if watts > self.cap_watts:
                    if math.isinf(rate):
                        # Engage at the observed throughput, scaled to
                        # the cap (power ≈ affine in ops/s).
                        base = measured if measured > 0 else floor
                    else:
                        base = rate
                    rate = max(base * self.cap_watts / watts, floor)
                    self.throttle.set_rate(rate)
                elif (not math.isinf(rate)
                      and watts < self.cap_watts
                      - self.policy.cap_hysteresis_watts):
                    self.throttle.set_rate(rate * self.INCREASE)
                self.rate_series.record(self.sim.now, self.throttle.rate)
        except Interrupt:
            return
