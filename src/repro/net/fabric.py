"""Point-to-point message delivery between nodes.

The fabric charges each message its serialization time (bytes divided
by the sender NIC's bandwidth) plus the transport's one-way propagation
latency.  Delivery to a crashed node raises :class:`NodeUnreachable`
*after* the latency has elapsed — a sender cannot know faster than the
network that the peer is gone.

Each sender NIC is a FIFO virtual clock: ``tx_free`` is the time its
transmit queue drains.  A message starts serializing at
``max(now, tx_free)``, pushes ``tx_free`` to the end of its
serialization, and arrives one latency later — a single timer event
per message.  A message interrupted while it is the queue's tail hands
its unsent time back.  One narrowing against a queue of claims: a
message queued behind an interrupted one keeps its slot, so the
interrupted message's time is not reclaimed until the queue drains.
"""

from __future__ import annotations

from typing import Callable, Dict, Generator, List, Optional, Sequence, Set, Tuple

from repro.hardware.node import Node
from repro.sim.kernel import Simulator

__all__ = ["Fabric", "NodeUnreachable", "NetworkPartitioned"]


class NodeUnreachable(Exception):
    """The destination machine is down (connection refused / timeout)."""


class NetworkPartitioned(NodeUnreachable):
    """The two endpoints are in different partitions.

    A subclass of :class:`NodeUnreachable`: from the sender's point of
    view a partitioned peer is indistinguishable from a dead one, so
    every retry / re-replication path that survives a crash survives a
    partition too.
    """


class Fabric:  # simlint: disable=PERF001 one per run; __dict__ cost is amortized
    """The switch connecting every node in the testbed."""

    def __init__(self, sim: Simulator):
        self.sim = sim
        self._nodes: Dict[str, Node] = {}
        # Per sender NIC: the time its transmit queue drains.
        self._tx_free: Dict[str, float] = {}
        self._partitions: Set[Tuple[str, str]] = set()
        # Nodes whose NIC is administratively silenced (PauseServer): the
        # process is alive but no packet leaves or reaches the machine —
        # a SIGSTOP'd process or a wedged switch port.  Unlike a
        # partition, the sender cannot tell: its bytes are spent and it
        # waits out its own timeout (drop semantics).
        self._paused: Set[str] = set()
        # Installed RPC faults: (predicate(src, dst, op), kind, delay)
        # where kind is "delay" or "drop".  A list, not a set: faults
        # are matched in installation order, deterministically.
        self._rpc_faults: List[Tuple[Callable[[str, str, str], bool],
                                     str, float]] = []
        self.messages_delivered = 0
        self.bytes_delivered = 0

    def attach(self, node: Node) -> None:
        """Connect a machine to the switch."""
        if node.name in self._nodes:
            raise ValueError(f"node {node.name!r} already attached")
        self._nodes[node.name] = node
        self._tx_free[node.name] = self.sim.now

    def node(self, name: str) -> Node:
        """Look an attached machine up by name."""
        return self._nodes[name]

    # -- partitions (used by failure-injection tests) --------------------

    def partition(self, a: str, b: str) -> None:
        """Cut connectivity between two machines (both directions)."""
        self._partitions.add((a, b))
        self._partitions.add((b, a))

    def heal(self, a: str, b: str) -> None:
        """Restore connectivity cut by :meth:`partition`."""
        self._partitions.discard((a, b))
        self._partitions.discard((b, a))

    def partition_groups(self, group_a: Sequence[str],
                         group_b: Sequence[str]) -> None:
        """Cut connectivity between every pair across the two groups."""
        for a in group_a:
            for b in group_b:
                self.partition(a, b)

    def heal_groups(self, group_a: Sequence[str],
                    group_b: Sequence[str]) -> None:
        """Restore connectivity between every pair across the groups."""
        for a in group_a:
            for b in group_b:
                self.heal(a, b)

    def heal_all(self) -> None:
        """Remove every partition cut."""
        self._partitions.clear()

    # -- paused nodes (network-silent but alive; repro.faults) -----------

    def pause_node(self, name: str) -> None:
        """Silence a node's NIC in both directions.  The node's processes
        keep running (and keep simulated time flowing); only its traffic
        is lost, which is what makes paused servers look exactly like
        crashed ones to a failure detector."""
        if name not in self._nodes:
            raise KeyError(f"node {name!r} not attached")
        self._paused.add(name)

    def resume_node(self, name: str) -> None:
        """Lift a :meth:`pause_node` silence."""
        self._paused.discard(name)

    def is_paused(self, name: str) -> bool:
        """Whether the node's NIC is silenced (optimistic check)."""
        return name in self._paused

    def is_partitioned(self, a: str, b: str) -> bool:
        """Whether a partition separates the two machines (an optimistic
        check: connectivity can change before the answer is used)."""
        return (a, b) in self._partitions

    # -- RPC faults (delay/drop, used by repro.faults) --------------------

    def add_rpc_fault(self, match: Callable[[str, str, str], bool],
                      kind: str, delay: float = 0.0) -> None:
        """Install a fault on matching RPCs: ``kind="delay"`` adds
        ``delay`` seconds of one-way latency, ``kind="drop"`` loses the
        request after its bytes are spent (the caller's timeout is what
        surfaces the loss)."""
        if kind not in ("delay", "drop"):
            raise ValueError(f"kind must be 'delay' or 'drop', got {kind!r}")
        if kind == "delay" and delay < 0:
            raise ValueError(f"negative delay: {delay}")
        self._rpc_faults.append((match, kind, delay))

    def clear_rpc_faults(self, match=None) -> None:
        """Remove installed RPC faults (all, or only those whose
        predicate equals ``match``)."""
        if match is None:
            self._rpc_faults.clear()
        else:
            self._rpc_faults = [(m, k, d) for m, k, d in self._rpc_faults
                                if m != match]

    def rpc_fault_for(self, src: str, dst: str,
                      op: str) -> Optional[Tuple[str, float]]:
        """The first installed fault matching this RPC, as
        ``(kind, delay)``, or None."""
        for match, kind, delay in self._rpc_faults:
            if match(src, dst, op):
                return kind, delay
        return None

    # -- transfer ---------------------------------------------------------

    def transfer(self, src: Node, dst: Node, nbytes: int) -> Generator:
        """``yield from fabric.transfer(src, dst, n)`` — move ``n`` bytes.

        Completes when the last byte arrives at ``dst``.  Raises
        :class:`NodeUnreachable` if ``dst`` is crashed on arrival, and
        :class:`NetworkPartitioned` if a partition separates the pair.
        """
        if nbytes < 0:
            raise ValueError(f"negative message size: {nbytes}")
        if src.name not in self._nodes or dst.name not in self._nodes:
            raise KeyError("both endpoints must be attached to the fabric")
        if (src.name, dst.name) in self._partitions:
            raise NetworkPartitioned(f"{src.name} cannot reach {dst.name}")

        sim = self.sim
        nic = src.spec.nic
        tx_free = self._tx_free
        start = max(sim.now, tx_free[src.name])
        done = start + nbytes / nic.bandwidth
        tx_free[src.name] = done
        try:
            yield sim.timeout_at(done + nic.one_way_latency)
        except BaseException:
            # Interrupted before the last byte left: unless a later
            # message already queued behind this one (it keeps its slot,
            # see the module doc), the NIC gets the unsent time back.
            if sim.now < done and tx_free[src.name] == done:
                tx_free[src.name] = max(sim.now, start)
            raise
        if dst.crashed:
            raise NodeUnreachable(f"{dst.name} is down")
        self.messages_delivered += 1
        self.bytes_delivered += nbytes
