"""Per-node power metering — the simulated PDU.

The paper (§III-B): "40 of these nodes are equipped with Power
Distribution Units (PDUs), which allow to retrieve power consumption
through an SNMP request. Each PDU is mapped to a single machine ... We
run a script on each machine which queries the power consumption value
from its corresponding PDU every second."

:class:`PowerModel` converts the last sampling interval's CPU
utilization (plus disk activity) into watts using the calibrated
:class:`~repro.hardware.specs.PowerSpec`, and records a 1 Hz watts time
series exactly like the paper's script.  The interval's utilization is
the difference of two :meth:`~repro.hardware.cpu.Cpu.busy_core_seconds`
snapshots: the model keeps the ``(time, busy)`` pair of the previous
reading as its :attr:`~PowerModel.window`.
"""

from __future__ import annotations

from repro.hardware.specs import PowerSpec
from repro.sim.kernel import Simulator
from repro.sim.monitor import TimeSeries

__all__ = ["PowerModel"]


class PowerModel:
    """Computes and samples a node's power draw.

    Sampling is pull-based: the owning :class:`~repro.hardware.node.Node`
    starts a 1 Hz sampler process that calls :meth:`sample`.
    """

    def __init__(self, sim: Simulator, spec: PowerSpec, cpu, disk,
                 name: str = ""):
        self.sim = sim
        self.spec = spec
        self.cpu = cpu
        self.disk = disk
        self.name = name
        self.series = TimeSeries(name=f"{name}:watts")
        #: ``(time, busy core-seconds)`` where the interval the next
        #: :meth:`sample` averages over began; every sample, and
        #: ``Node.start_metering``, restarts it at the current instant.
        self.window = (sim.now, cpu.busy_core_seconds())
        self._last_io = (0, 0)
        # Set when the machine is physically powered down (elastic
        # scale-down); the PDU then reads zero.
        self.powered_off = False

    def instantaneous_watts(self, util_pct: float) -> float:
        """Watts at CPU utilization ``util_pct`` (percent), with the
        disk, P-state and parked cores as they are now."""
        if self.powered_off:
            return 0.0
        return self.spec.watts(min(util_pct, 100.0),
                               disk_active=self.disk.busy,
                               freq_ratio=self.cpu.frequency_ratio,
                               parked_cores=self.cpu.parked_cores)

    def sample(self) -> float:
        """One PDU reading: average power over the interval since the
        previous reading, derived from CPU utilization and disk activity
        in that interval (the instantaneous utilization when the
        interval is empty)."""
        now = self.sim.now
        busy = self.cpu.busy_core_seconds()
        start, start_busy = self.window
        self.window = (now, busy)
        if self.powered_off:
            self.series.record(now, 0.0)
            return 0.0
        elapsed = now - start
        if elapsed > 0:
            util = 100.0 * (busy - start_busy) / (elapsed * self.cpu.cores)
        else:
            util = 100.0 * self.cpu.busy_cores / self.cpu.cores
        reads, writes = self.disk.io_counters()
        io_delta = (reads - self._last_io[0]) + (writes - self._last_io[1])
        self._last_io = (reads, writes)
        disk_active = io_delta > 0 or self.disk.busy
        # DVFS ratio and parked-core count are read at sample time (the
        # PDU sees the P-/C-state currently in effect; governors change
        # state on scales much coarser than the sampling interval).
        watts = self.spec.watts(min(util, 100.0), disk_active=disk_active,
                                freq_ratio=self.cpu.frequency_ratio,
                                parked_cores=self.cpu.parked_cores)
        self.series.record(now, watts)
        return watts

    def energy_joules(self) -> float:
        """Total energy over the recorded trace (trapezoidal integral),
        which is how the paper computes total energy consumed (§V)."""
        return self.series.integral()

    def average_watts(self) -> float:
        """Mean of the recorded PDU samples.

        The sampler runs at a fixed cadence with boundary samples at
        metering start/stop, so the plain sample mean matches the
        time-weighted mean; use ``series.time_weighted_mean()`` when
        combining traces recorded at different intervals.
        """
        return self.series.mean()
