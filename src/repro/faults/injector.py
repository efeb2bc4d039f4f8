"""The fault injector: drives a :class:`FaultSchedule` against a cluster.

The injector is a thin deterministic driver: one simulated process per
anchor walks the schedule's entries in ``(at, declaration)`` order and
applies each action through the hooks the other layers expose
(``Fabric.partition_groups``/``add_rpc_fault``, ``Disk.degrade``,
``Cluster.kill_server``, ...).  It draws no randomness of its own —
the only stochastic choice (a ``CrashServer(index=None)`` victim) is
delegated to the cluster's seeded stream, so the applied-fault log and
every downstream metric are byte-identical across same-seed reruns.
"""

from __future__ import annotations

from typing import List, Tuple

from repro.faults.schedule import (
    ClearRpcFaults,
    CrashServer,
    DegradeDisk,
    DelayRpcs,
    DropRpcs,
    FaultAction,
    FaultSchedule,
    HealAll,
    HealGroups,
    PartitionGroups,
    PauseServer,
    RestoreDisk,
    ResumeServer,
    SetGovernor,
    SetPowerCap,
    resolve_group,
    resolve_node,
)

__all__ = ["FaultInjector"]


class FaultInjector:
    """Applies one schedule to one cluster, exactly once."""

    def __init__(self, cluster, schedule: FaultSchedule):
        self.cluster = cluster
        self.schedule = schedule
        # Deterministic log of (sim time, description) per applied fault.
        self.applied: List[Tuple[float, str]] = []
        self.killed_servers: List = []
        self._started = False
        self._recovery_fired = False

    def start(self) -> "FaultInjector":
        """Arm the schedule: start-anchored entries count from now,
        recovery-anchored entries from the first recovery start."""
        if self._started:
            raise RuntimeError("injector already started")
        self._started = True
        sim = self.cluster.sim
        start_entries = self.schedule.anchored("start")
        if start_entries:
            sim.process(self._driver(start_entries, base=sim.now),
                        name="faults:driver")
        if self.schedule.anchored("recovery"):
            self.cluster.coordinator.on_recovery_start.append(
                self._recovery_started)
        return self

    def _recovery_started(self, stats) -> None:
        del stats
        if self._recovery_fired:
            return
        self._recovery_fired = True
        sim = self.cluster.sim
        sim.process(
            self._driver(self.schedule.anchored("recovery"), base=sim.now),
            name="faults:recovery-driver")

    def _driver(self, entries, base: float):
        sim = self.cluster.sim
        for entry in entries:
            target = base + entry.at
            if sim.now < target:
                yield sim.sleep(target - sim.now)
            self.apply(entry.action)

    # ------------------------------------------------------------------

    def apply(self, action: FaultAction) -> None:
        """Apply one action immediately (the drivers call this; tests
        may too) and append it to the :attr:`applied` log."""
        fabric = self.cluster.fabric
        if isinstance(action, CrashServer):
            victim = self.cluster.kill_server(action.index)
            self.killed_servers.append(victim)
            self._log(f"crash-server {victim.server_id}")
            return
        if isinstance(action, PauseServer):
            victim = self.cluster.pause_server(action.index)
            self._log(f"pause-server {victim.server_id}")
            return
        if isinstance(action, ResumeServer):
            victim = self.cluster.resume_server(action.index)
            self._log(f"resume-server {victim.server_id}")
            return
        if isinstance(action, PartitionGroups):
            fabric.partition_groups(resolve_group(action.group_a),
                                    resolve_group(action.group_b))
        elif isinstance(action, HealGroups):
            fabric.heal_groups(resolve_group(action.group_a),
                               resolve_group(action.group_b))
        elif isinstance(action, HealAll):
            fabric.heal_all()
        elif isinstance(action, DegradeDisk):
            node = fabric.node(resolve_node(action.node))
            node.disk.degrade(action.bandwidth_bytes_per_s)
        elif isinstance(action, RestoreDisk):
            node = fabric.node(resolve_node(action.node))
            node.disk.restore()
        elif isinstance(action, DelayRpcs):
            fabric.add_rpc_fault(action.match, kind="delay",
                                 delay=action.delay)
        elif isinstance(action, DropRpcs):
            fabric.add_rpc_fault(action.match, kind="drop")
        elif isinstance(action, ClearRpcFaults):
            fabric.clear_rpc_faults(action.match)
        elif isinstance(action, SetGovernor):
            self.cluster.set_governor(action.governor, action.index)
        elif isinstance(action, SetPowerCap):
            self.cluster.set_power_cap(action.watts)
        else:
            raise TypeError(f"unknown fault action: {action!r}")
        self._log(action.describe())

    def _log(self, description: str) -> None:
        self.applied.append((self.cluster.sim.now, description))
