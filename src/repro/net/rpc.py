"""Request/response RPC on top of the fabric.

The caller transfers the request over the fabric, deposits it in the
destination service's inbox, and waits on a per-request reply event.
The service's dispatch thread drains the inbox (see
:meth:`repro.ramcloud.server.RamCloudServer._dispatch_loop`), and
whoever services the request triggers the reply.  The response's wire
time (its bytes over the service NIC's bandwidth plus one latency) is
computed by :meth:`RpcService.call` and charged by
:meth:`RpcRequest.respond`, which triggers the reply at once but fires
it that much later.  The server worker is therefore not occupied while
response bytes serialize — matching RAMCloud, where the NIC drains the
response asynchronously — and the caller waits on a single event after
delivery.  A failed request fails at once: no response bytes travel.

Crash semantics: delivery to a crashed node raises
:class:`~repro.net.fabric.NodeUnreachable`; requests already queued at a
node that crashes are failed by the service's crash handler; a caller
may additionally bound the wait with ``timeout``.  That deadline is a
plain timer the caller cancels when the reply wins; if it fires before
the service responds, it fails the reply with :class:`RpcTimeout`.  A
deadline that fires while the response is in flight finds the reply
already triggered and does nothing.
"""

from __future__ import annotations

from typing import Any, Generator, Optional

from repro.hardware.node import Node
from repro.net.fabric import Fabric, NodeUnreachable
from repro.sim.kernel import Event, Simulator, Timeout
from repro.sim.resources import Store

__all__ = ["RpcError", "RpcTimeout", "RpcRequest", "RpcService"]


class RpcError(Exception):
    """Base class for RPC-level failures."""


class RpcTimeout(RpcError):
    """The reply did not arrive within the caller's deadline."""


class RpcRequest:
    """One in-flight RPC as seen by the receiving service.

    ``response_delay`` is the response's wire time in seconds (0 for a
    request no caller waits across the network for).
    """

    __slots__ = ("op", "args", "size_bytes", "response_delay", "reply",
                 "src", "issued_at")

    def __init__(self, sim: Simulator, op: str, args: Any, size_bytes: int,
                 response_delay: float, src: Node):
        self.op = op
        self.args = args
        self.size_bytes = size_bytes
        self.response_delay = response_delay
        self.reply: Event = Event(sim)
        self.src = src
        self.issued_at = sim.now

    def respond(self, value: Any = None) -> None:
        """Complete the RPC successfully with ``value``; the caller
        resumes once the response has crossed the wire
        (``response_delay`` from now).

        At-most-one reply: a request whose caller already gave up on it
        (timeout, give-up interrupt) has a triggered reply, and a late
        server answer is silently discarded — exactly what a network
        stack does with a response to a closed connection.  Likewise a
        deadline that expires while the response is in flight finds the
        reply settled and does nothing.
        """
        reply = self.reply
        if reply._ok is not None:  # already triggered
            return
        reply.succeed_at(reply.sim.now + self.response_delay, value)

    def fail(self, exc: BaseException) -> None:
        """Complete the RPC with an error raised at the caller (no-op
        if the reply was already triggered, see :meth:`respond`)."""
        if self.reply._ok is not None:
            return
        self.reply.fail(exc)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<RpcRequest {self.op} from {self.src.name}>"


class RpcService:  # simlint: disable=PERF001 O(nodes), subclassed by services; __dict__ cost is amortized
    """A service endpoint bound to a node; owns an inbox of requests."""

    def __init__(self, sim: Simulator, fabric: Fabric, node: Node, name: str):
        self.sim = sim
        self.fabric = fabric
        self.node = node
        self.name = name
        self.inbox = Store(sim, name=f"{name}:inbox")
        self._down = False
        self.requests_received = 0

    @property
    def is_down(self) -> bool:
        """True once shut down or the host machine crashed."""
        return self._down or self.node.crashed

    def deliver(self, request: RpcRequest) -> None:
        """Enqueue an incoming request (fails it if the service is down)."""
        if self.is_down:
            request.fail(NodeUnreachable(f"{self.name} is down"))
            return
        self.requests_received += 1
        self.inbox.put(request)

    def shutdown(self, exc: Optional[BaseException] = None) -> None:
        """Stop accepting requests and fail everything still queued."""
        self._down = True
        error = exc or NodeUnreachable(f"{self.name} shut down")
        for request in self.inbox.drain():
            if not request.reply.triggered:
                request.fail(error)

    # -- caller side ------------------------------------------------------

    def _expire(self, deadline: Timeout) -> None:
        """A call's deadline fired before its reply: fail the request it
        carries.  This closes the reply, so a dropped or stuck request
        leaves no forever-pending event (a late respond() is discarded)."""
        request = deadline.value
        request.fail(RpcTimeout(
            f"{request.op} to {self.name} timed out after {deadline.delay}s"))

    def call(self, src: Node, op: str, args: Any = None,
             size_bytes: int = 128, response_bytes: int = 128,
             timeout: Optional[float] = None) -> Generator:
        """``result = yield from service.call(src, op, ...)``.

        Runs in the calling process.  Raises the service's exception on
        failure, :class:`RpcTimeout` past ``timeout``, and
        :class:`~repro.net.fabric.NodeUnreachable` if the node is dead.
        """
        sim = self.sim
        fabric = self.fabric
        # Fault lookup and paused-endpoint checks are skipped outright
        # when no fault/pause is installed (the common case on the data
        # path).
        fault = (fabric.rpc_fault_for(src.name, self.node.name, op)
                 if fabric._rpc_faults else None)
        if fault is not None and fault[0] == "delay":
            yield sim.sleep(fault[1])
        yield from fabric.transfer(src, self.node, size_bytes)
        dropped = fault is not None and fault[0] == "drop"
        # A paused endpoint (PauseServer) is network-silent but alive:
        # the bytes are spent, nothing arrives, and — unlike a crash or
        # a partition — the sender gets no error, only its own timeout.
        if (dropped or (fabric._paused
                        and (fabric.is_paused(src.name)
                             or fabric.is_paused(self.node.name)))):
            # The request vanished in the network after its bytes were
            # spent: no server ever sees it, the caller waits out its
            # own deadline.
            why = "dropped" if dropped else "paused endpoint"
            if timeout is None:
                raise NodeUnreachable(
                    f"{op} to {self.name} lost in the network ({why})")
            yield sim.sleep(timeout)
            raise RpcTimeout(
                f"{op} to {self.name} timed out after {timeout}s ({why})")
        nic = self.node.spec.nic
        request = RpcRequest(sim, op, args, size_bytes,
                             response_bytes / nic.bandwidth
                             + nic.one_way_latency, src)
        self.deliver(request)
        if timeout is None:
            return (yield request.reply)
        deadline = sim.timeout(timeout, request)
        deadline.add_callback(self._expire)
        try:
            return (yield request.reply)
        finally:
            deadline.cancel()
