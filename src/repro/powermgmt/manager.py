"""The per-node power manager: one governor driving one machine.

A :class:`PowerManager` owns every power decision for one server node:
which DVFS step the package runs at, whether the dispatch thread may
block, whether workers park idle cores.  Governors:

* ``static`` — do nothing (the paper's machine).  No process is
  created, so a statically-governed node is indistinguishable — event
  for event — from one with no manager at all.
* ``ondemand`` — Linux-style utilization-driven DVFS: sample busy
  core-seconds every ``sample_interval``, jump to the top frequency
  when utilization crosses ``up_threshold`` (race-to-idle on load
  arrival, like the real governor) and walk down one P-state at a time
  below ``down_threshold``.
* ``poll-adaptive`` — flip the server's dispatch loop to adaptive
  (interrupt-style blocking after the empty-poll threshold) and enable
  worker core parking; frequency stays nominal.

Determinism: decisions are pure functions of sampled simulation state.
The manager computes utilization from its own ``busy_core_seconds()``
snapshots; reading CPU time never changes it, so the PDU's readings
are unaffected.  The only randomness is the
sampler's phase stagger (so a fleet of managers does not tick in
lockstep), drawn once from the cluster's seeded stream.
"""

from __future__ import annotations

from typing import Optional

from repro.powermgmt.policy import GOVERNORS, PowerPolicy
from repro.sim.distributions import RandomStream
from repro.sim.kernel import Interrupt, Process, Simulator
from repro.sim.monitor import TimeSeries

__all__ = ["PowerManager"]


class PowerManager:
    """Drives one node's power knobs under one governor."""

    def __init__(self, sim: Simulator, node, server, policy: PowerPolicy,
                 stream: RandomStream):
        self.sim = sim
        self.node = node
        self.server = server
        self.policy = policy
        self.stream = stream
        self.governor = "static"
        self._loop: Optional[Process] = None
        self._steps = tuple(node.spec.cpu.freq_steps)
        self._step_index = len(self._steps) - 1  # nominal
        # Deterministic per-node phase offset for the ondemand sampler.
        self._stagger = stream.uniform() * policy.sample_interval
        # Frequency decisions over time (ratio samples; starts empty,
        # records one point per P-state change).
        self.freq_series = TimeSeries(name=f"{node.name}:freq-ratio")
        self.set_governor(policy.governor)

    # ------------------------------------------------------------------

    def set_governor(self, name: str) -> None:
        """Switch governors at runtime (no-op if already active).

        Tearing down a governor restores the hardware defaults it
        moved — nominal frequency, busy-poll dispatch, no parking —
        before the new one applies its own regime.
        """
        if name not in GOVERNORS:
            raise ValueError(
                f"governor must be one of {GOVERNORS}, got {name!r}")
        if name == self.governor:
            return
        self._teardown()
        self.governor = name
        if name == "ondemand":
            self._loop = self.sim.process(
                self._ondemand_loop(),
                name=f"powermgmt:{self.node.name}:ondemand")
        elif name == "poll-adaptive":
            self.server.set_power_mode(dispatch_mode="adaptive",
                                       core_parking=self.policy.core_parking)

    def stop(self) -> None:
        """Halt the governor loop (cluster shutdown); hardware state is
        left as-is, like a daemon dying without a reset."""
        if self._loop is not None and self._loop.is_alive:
            self._loop.interrupt("power manager stopped")
        self._loop = None

    def _teardown(self) -> None:
        self.stop()
        if self._step_index != len(self._steps) - 1:
            self._set_step(len(self._steps) - 1)
        self.server.set_power_mode(dispatch_mode="poll", core_parking=False)

    # ------------------------------------------------------------------

    def _set_step(self, index: int) -> None:
        self._step_index = index
        ratio = self._steps[index]
        self.node.cpu.set_frequency(ratio)
        self.freq_series.record(self.sim.now, ratio)

    def _ondemand_loop(self):
        cpu = self.node.cpu
        cores = cpu.cores
        policy = self.policy
        try:
            if self._stagger > 0:
                yield self.sim.timeout(self._stagger)
            last_busy = cpu.busy_core_seconds()
            last_time = self.sim.now
            while True:
                yield self.sim.timeout(policy.sample_interval)
                busy = cpu.busy_core_seconds()
                elapsed = self.sim.now - last_time
                util = 100.0 * (busy - last_busy) / (elapsed * cores)
                last_busy, last_time = busy, self.sim.now
                if (util > policy.up_threshold
                        and self._step_index < len(self._steps) - 1):
                    # Race to the top P-state on load, like Linux
                    # ondemand — half-stepping up loses throughput.
                    self._set_step(len(self._steps) - 1)
                elif util < policy.down_threshold and self._step_index > 0:
                    self._set_step(self._step_index - 1)
        except Interrupt:
            return
