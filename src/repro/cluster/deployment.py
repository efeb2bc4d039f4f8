"""Building the simulated testbed.

The paper reserves 131 Grid'5000 nodes: 40 PDU-equipped nodes for the
RAMCloud cluster, one coordinator node, 90 client nodes.  A
:class:`Cluster` builds the same topology at any size.
"""

from __future__ import annotations

import gc
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional

from repro.hardware.node import Node
from repro.hardware.specs import GRID5000_NANCY_NODE, MachineSpec
from repro.net.fabric import Fabric
from repro.powermgmt import PowerManager, PowerPolicy
from repro.ramcloud.client import RamCloudClient
from repro.ramcloud.config import CostModel, ServerConfig
from repro.ramcloud.coordinator import Coordinator
from repro.ramcloud.server import RamCloudServer
from repro.sim.distributions import RandomStream
from repro.sim.kernel import Simulator
from repro.ycsb.keyspace import KEY_PREFIX, format_key

__all__ = ["ClusterSpec", "Cluster"]


@dataclass(frozen=True)
class ClusterSpec:
    """Shape and configuration of one deployment."""

    num_servers: int = 10
    num_clients: int = 10
    server_config: ServerConfig = field(default_factory=ServerConfig)
    cost_model: CostModel = field(default_factory=CostModel)
    machine: MachineSpec = GRID5000_NANCY_NODE
    seed: int = 1
    failure_detection: bool = False
    # Adaptive power management (repro.powermgmt, docs/POWER.md).  The
    # default policy (static governor, no cap) creates no controller
    # machinery at all, keeping paper reproductions bit-unchanged.
    power_policy: PowerPolicy = field(default_factory=PowerPolicy)

    def __post_init__(self):
        if self.num_servers < 1:
            raise ValueError("need at least one server")
        if self.num_clients < 0:
            raise ValueError("client count cannot be negative")
        rf = self.server_config.replication_factor
        if rf > 0 and self.num_servers < rf + 1:
            raise ValueError(
                f"replication factor {rf} needs at least {rf + 1} servers"
            )

    def with_(self, **overrides) -> "ClusterSpec":
        """A copy with the given fields replaced."""
        return replace(self, **overrides)


class Cluster:  # simlint: disable=PERF001 one per run; __dict__ cost is amortized
    """A running simulated deployment."""

    def __init__(self, spec: ClusterSpec):
        self.spec = spec
        self.sim = Simulator()
        self.fabric = Fabric(self.sim)
        self.stream = RandomStream(spec.seed, "cluster")
        self._paused_servers: List[RamCloudServer] = []

        self.coordinator_node = Node(self.sim, spec.machine, "coord")
        self.fabric.attach(self.coordinator_node)
        self.coordinator = Coordinator(
            self.sim, self.fabric, self.coordinator_node,
            spec.server_config, spec.cost_model,
            RandomStream(spec.seed, "coordinator"),
        )

        self.server_nodes: List[Node] = []
        self.servers: List[RamCloudServer] = []
        for i in range(spec.num_servers):
            node = Node(self.sim, spec.machine, f"server{i}")
            self.fabric.attach(node)
            server = RamCloudServer(
                self.sim, self.fabric, node,
                spec.server_config, spec.cost_model, self.coordinator,
                RandomStream(spec.seed, f"server{i}"),
            )
            self.coordinator.enlist(server)
            self.server_nodes.append(node)
            self.servers.append(server)

        self.client_nodes: List[Node] = []
        self.clients: List[RamCloudClient] = []
        for i in range(spec.num_clients):
            node = Node(self.sim, spec.machine, f"client{i}")
            self.fabric.attach(node)
            self.client_nodes.append(node)
            self.clients.append(
                RamCloudClient(self.sim, node, self.coordinator,
                               stream=RandomStream(spec.seed,
                                                   f"client{i}:rpc")))

        # Power management: nothing at all is built for the default
        # policy — no manager objects, no streams, no throttle — so the
        # event schedule of every paper reproduction is untouched.
        self.power_policy = spec.power_policy
        self.power_managers: List[PowerManager] = []
        self.admission_throttle = None
        self.power_cap = None
        if not spec.power_policy.is_default:
            self._create_power_managers()
            if spec.power_policy.power_cap_watts is not None:
                self._create_power_cap(spec.power_policy)

        if spec.failure_detection:
            self.coordinator.start_failure_detector()

    def _create_power_managers(self) -> None:
        policy = self.power_policy
        for i, (node, server) in enumerate(zip(self.server_nodes,
                                               self.servers)):
            self.power_managers.append(PowerManager(
                self.sim, node, server, policy,
                RandomStream(self.spec.seed, f"powermgmt{i}")))

    def _create_power_cap(self, policy: PowerPolicy) -> None:
        from repro.cluster.powercap import (AdmissionThrottle,
                                            PowerCapController)
        self.admission_throttle = AdmissionThrottle(self.sim)
        self.power_cap = PowerCapController(
            self.sim, self.server_nodes, self.servers,
            self.admission_throttle, policy)

    # -- power management ---------------------------------------------------

    def set_governor(self, name: str, index: Optional[int] = None) -> None:
        """Switch the power governor at run time on every server node
        (or only ``index``).  Creates the per-node managers lazily if
        the cluster was built with the default policy — which is how a
        :class:`~repro.faults.schedule.SetGovernor` fault flips a
        static cluster into power-managed mode mid-run."""
        if not self.power_managers:
            # Lazily bring up managers under the *static* governor (a
            # no-op that changes nothing), then switch only the targets.
            self.power_policy = self.power_policy.with_(governor="static")
            self._create_power_managers()
        targets = (self.power_managers if index is None
                   else [self.power_managers[index]])
        for manager in targets:
            manager.set_governor(name)

    def set_power_cap(self, watts: Optional[float]) -> None:
        """Engage, move, or (``None``) lift the cluster power cap at
        run time (the :class:`~repro.faults.schedule.SetPowerCap`
        fault action)."""
        if watts is None:
            if self.power_cap is not None:
                self.power_cap.stop()
                self.power_cap = None
            if self.admission_throttle is not None:
                self.admission_throttle.rate = float("inf")
            return
        if self.power_cap is not None:
            self.power_cap.cap_watts = watts
            return
        self.power_policy = self.power_policy.with_(power_cap_watts=watts)
        self._create_power_cap(self.power_policy)

    # -- table management ---------------------------------------------------

    def create_table(self, name: str, span: Optional[int] = None,
                     tenant: Optional[str] = None) -> int:
        """Create a table directly at the coordinator (experiment setup,
        zero simulated time).  ``span`` defaults to the number of
        servers, the paper's ServerSpan setting.  With ``tenant`` the
        table lives in that tenant's namespace."""
        table = self.coordinator.create_table(name, span, tenant=tenant)
        return table.table_id

    def register_tenant(self, spec) -> None:
        """Register a :class:`~repro.ramcloud.tenancy.TenantSpec` at the
        coordinator (experiment setup, zero simulated time)."""
        self.coordinator.register_tenant(spec)

    def create_index(self, table_id: int, name: str, boundaries):
        """Create a secondary index at the coordinator (experiment
        setup, zero simulated time); returns its descriptor."""
        return self.coordinator.create_index(table_id, name, boundaries)

    def preload(self, table_id: int, num_records: int,
                record_size: int) -> Dict[str, int]:
        """Bulk-load records ``format_key(0) .. format_key(num_records -
        1)`` of ``record_size`` bytes through the masters' fast path
        (§III-C: "To run a workload, one needs to fill the data-store
        first.").

        Returns per-server record counts.  Zero simulated time; backup
        replica state is materialized, closed segments marked on disk.
        Keys are routed in one pass by the prefix fold
        (:meth:`~repro.ramcloud.tablets.TabletMap.numbered_key_owners`),
        and each master loads its key list in one batched loop.
        """
        owners = self.coordinator.tablet_map.numbered_key_owners(
            table_id, KEY_PREFIX, num_records)
        with _collector_paused():
            keys_of: Dict[str, List[str]] = {}
            # ``owners`` first: zip then runs the fold to its end, which
            # frees the parent hashes it holds before the load starts.
            for owner, key in zip(owners,
                                  map(format_key, range(num_records))):
                keys_of.setdefault(owner, []).append(key)
            counts = {}
            for server_id in list(keys_of):
                # Each key list goes once loaded: the log holds its keys.
                keys = keys_of.pop(server_id)
                server = self.coordinator.lookup_server(server_id)
                counts[server_id] = server.bulk_load(table_id, keys,
                                                     record_size)
            return counts

    def preload_indexed(self, table_id: int, desc, num_records: int,
                        record_size: int) -> Dict[str, int]:
        """Bulk-load an indexed table: every record carries its
        secondary key, and the matching index entries are loaded into
        the indexlet owners' logs (the post-load state of an indexed
        YCSB run, at zero simulated time).  Records are routed by the
        prefix fold, as :meth:`preload` routes them; index entries by
        key range alone, so neither is hashed one by one."""
        from repro.ramcloud.indexing import encode_entry_key, secondary_key

        index_id = desc.index_id
        tablet_map = self.coordinator.tablet_map
        owners = tablet_map.numbered_key_owners(table_id, KEY_PREFIX,
                                                num_records)
        route_entry = tablet_map.key_router(index_id, desc)
        with _collector_paused():
            per_server: Dict[str, List] = {}
            for i, owner in enumerate(owners):
                key = format_key(i)
                secondary = secondary_key(i)
                per_server.setdefault(owner, []).append(
                    (table_id, key, record_size, ((index_id, secondary),)))
                entry_key = encode_entry_key(secondary, key)
                per_server.setdefault(route_entry(entry_key), []).append(
                    (index_id, entry_key, 0, None))
            counts = {}
            for server_id, items in per_server.items():
                server = self.coordinator.lookup_server(server_id)
                counts[server_id] = server.bulk_load_items(items)
            return counts

    # -- elastic scale-up ---------------------------------------------------

    def add_server(self) -> RamCloudServer:
        """Bring a new server machine online mid-run (the scale-up half
        of §IX's coordinator-driven sizing).  The server enlists with
        the coordinator; call
        :meth:`~repro.ramcloud.coordinator.Coordinator.rebalance` to
        move load onto it."""
        index = len(self.server_nodes)
        node = Node(self.sim, self.spec.machine, f"server{index}")
        self.fabric.attach(node)
        server = RamCloudServer(
            self.sim, self.fabric, node,
            self.spec.server_config, self.spec.cost_model, self.coordinator,
            RandomStream(self.spec.seed, f"server{index}"),
        )
        self.coordinator.enlist(server)
        self.server_nodes.append(node)
        self.servers.append(server)
        if any(len(n.power.series) for n in self.server_nodes[:index]):
            node.start_metering()
        return server

    # -- power metering -------------------------------------------------------

    def start_metering(self, interval: float = 1.0) -> None:
        """Start the PDU sampling script on every *server* node (the
        paper meters the 40 PDU-equipped RAMCloud nodes, not clients).

        The paper samples at 1 Hz; scaled-down runs lasting well under a
        second should pass a finer ``interval``."""
        for node in self.server_nodes:
            node.start_metering(interval=interval)

    def stop_metering(self) -> None:
        """Stop every server node's PDU sampler."""
        for node in self.server_nodes:
            node.stop_metering()

    # -- failure injection -------------------------------------------------------

    def kill_server(self, index: Optional[int] = None) -> RamCloudServer:
        """Kill the RAMCloud process on one server node (random if
        ``index`` is None, like the paper's §VII methodology)."""
        live = [s for s in self.servers if not s.killed]
        if not live:
            raise RuntimeError("no live servers to kill")
        if index is None:
            victim = self.stream.choice(live)
        else:
            victim = self.servers[index]
            if victim.killed:
                raise ValueError(f"server {index} already killed")
        victim.kill()
        return victim

    def pause_server(self, index: Optional[int] = None) -> RamCloudServer:
        """Silence one server's NIC while its process keeps running —
        the network-silent-but-alive zombie ingredient (random live,
        unpaused victim if ``index`` is None)."""
        candidates = [s for s in self.servers
                      if not s.killed
                      and not self.fabric.is_paused(s.node.name)]
        if not candidates:
            raise RuntimeError("no live unpaused servers to pause")
        if index is None:
            victim = self.stream.choice(candidates)
        else:
            victim = self.servers[index]
            if victim.killed:
                raise ValueError(f"server {index} is dead, cannot pause")
        self.fabric.pause_node(victim.node.name)
        self._paused_servers.append(victim)
        return victim

    def resume_server(self, index: Optional[int] = None) -> RamCloudServer:
        """Wake a paused server's NIC (the earliest still-paused server
        if ``index`` is None)."""
        if index is None:
            paused = [s for s in self._paused_servers
                      if self.fabric.is_paused(s.node.name)]
            if not paused:
                raise RuntimeError("no paused servers to resume")
            victim = paused[0]
        else:
            victim = self.servers[index]
        self.fabric.resume_node(victim.node.name)
        self._paused_servers = [s for s in self._paused_servers
                                if s is not victim]
        return victim

    def inject_faults(self, schedule) -> "FaultInjector":
        """Arm a :class:`~repro.faults.schedule.FaultSchedule` against
        this cluster; returns the started injector (see its ``applied``
        log and ``killed_servers``)."""
        from repro.faults.injector import FaultInjector

        return FaultInjector(self, schedule).start()

    # -- teardown -------------------------------------------------------------

    def shutdown(self) -> None:
        """Stop every long-lived service process (metering, failure
        detector, coordinator, server threads) so ``sim.run()`` can
        drain the schedule completely.  With ``REPRO_SIM_DEBUG=1`` the
        drain then asserts no event leaks — the end-state check the
        fault-scenario suite runs after every schedule."""
        self.stop_metering()
        for manager in self.power_managers:
            manager.stop()
        if self.power_cap is not None:
            self.power_cap.stop()
        self.coordinator.stop_service()
        for server in self.servers:
            if not server.killed:
                server.kill()

    # -- aggregate statistics ------------------------------------------------

    def total_ops_completed(self) -> int:
        """Operations served across all masters."""
        return sum(s.ops_completed for s in self.servers)

    def total_energy_joules(self) -> float:
        """Energy integral over every server node's power trace."""
        return sum(n.power.energy_joules() for n in self.server_nodes)

    def average_power_per_server(self) -> float:
        """Mean PDU reading across server nodes (metering required)."""
        values = [n.power.average_watts() for n in self.server_nodes
                  if len(n.power.series) > 0]
        if not values:
            raise RuntimeError("no power samples; call start_metering()")
        return sum(values) / len(values)

    def run(self, until: Optional[float] = None) -> None:
        """Advance the simulation (to ``until``, or until idle)."""
        self.sim.run(until=until)


# YCSB-style record keys: the keys ``preload`` loads.
default_key = format_key


@contextmanager
def _collector_paused():
    """Pause the cyclic garbage collector for a preload.

    A bulk load allocates only acyclic objects that all stay reachable
    (keys, item tuples, log entries, hash-table slots), so a collection
    during it would traverse the growing heap and free nothing.  The collector
    is re-enabled on exit, also on error, if it was enabled on entry.
    """
    collecting = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if collecting:
            gc.enable()
