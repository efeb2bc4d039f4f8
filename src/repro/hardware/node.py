"""A simulated machine: CPU + DRAM + disk + NIC + PDU.

Nodes are the unit of deployment: the cluster builder creates one node
per physical machine (coordinator node, server nodes running collocated
master+backup services, client nodes) exactly as the paper's testbed
does.
"""

from __future__ import annotations

from typing import Optional

from repro.hardware.cpu import Cpu
from repro.hardware.disk import Disk
from repro.hardware.power import PowerModel
from repro.hardware.specs import MachineSpec
from repro.sim.kernel import Process, Simulator
from repro.sim.resources import Container

__all__ = ["Node"]


class Node:
    """One machine in the simulated testbed."""

    def __init__(self, sim: Simulator, spec: MachineSpec, name: str):
        self.sim = sim
        self.spec = spec
        self.name = name
        self.cpu = Cpu(sim, spec.cpu.cores, name=name)
        self.disk = Disk(sim, spec.disk, name=name)
        self.dram = Container(sim, float(spec.dram_bytes), name=f"{name}:dram")
        self.power = PowerModel(sim, spec.power, self.cpu, self.disk, name=name)
        self.crashed = False
        self._pdu_process: Optional[Process] = None
        self._pdu_interval = 1.0
        self._metering = False

    # -- power metering -------------------------------------------------

    def start_metering(self, interval: float = 1.0) -> None:
        """Start the 1 Hz PDU-polling script for this node.

        Records an immediate boundary sample so the power series starts
        at the metering instant — without it the first ``interval`` of
        the window falls outside :meth:`TimeSeries.integral`'s coverage
        (see its contract) and energy totals under-count.
        """
        if self._metering:
            return
        self._metering = True
        self._pdu_interval = interval
        # An empty window: the boundary sample reads the current draw.
        self.power.window = (self.sim.now, self.cpu.busy_core_seconds())
        self.power.sample()
        self._pdu_process = self.sim.process(self._pdu_loop(),
                                             name=f"pdu:{self.name}")

    def stop_metering(self) -> None:
        """Stop the PDU sampler; recorded samples are kept.  A final
        boundary sample closes the window (unless the periodic loop
        already sampled at this instant) so the tail since the last
        tick still enters the energy integral."""
        if self._metering and self._pdu_process is not None:
            self._metering = False
            series = self.power.series
            if not series.times or series.times[-1] < self.sim.now:
                self.power.sample()
            self._pdu_process.interrupt("metering stopped")
            self._pdu_process = None

    def _pdu_loop(self):
        while self._metering:
            yield self.sim.sleep(self._pdu_interval)
            self.power.sample()

    # -- failure injection ------------------------------------------------

    def crash(self) -> None:
        """Mark the machine as dead.

        Services check this flag; the fabric refuses delivery to crashed
        nodes.  Power metering continues (the PDU is external to the
        machine) but CPU utilization naturally collapses because the
        services' processes are interrupted by whoever called us.
        """
        self.crashed = True

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "crashed" if self.crashed else "up"
        return f"<Node {self.name} {state}>"
