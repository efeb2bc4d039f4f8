"""Unit tests for the fabric and RPC layer."""

import pytest

from repro.hardware.node import Node
from repro.hardware.specs import GRID5000_NANCY_NODE, KB
from repro.net.fabric import Fabric, NetworkPartitioned, NodeUnreachable
from repro.net.rpc import RpcService, RpcTimeout
from repro.sim import Simulator


def setup_pair():
    sim = Simulator()
    fabric = Fabric(sim)
    a = Node(sim, GRID5000_NANCY_NODE, "a")
    b = Node(sim, GRID5000_NANCY_NODE, "b")
    fabric.attach(a)
    fabric.attach(b)
    return sim, fabric, a, b


class TestFabric:
    def test_transfer_takes_serialization_plus_latency(self):
        sim, fabric, a, b = setup_pair()
        done = []

        def sender():
            yield from fabric.transfer(a, b, 1 * KB)
            done.append(sim.now)

        sim.process(sender())
        sim.run()
        nic = a.spec.nic
        expected = 1 * KB / nic.bandwidth + nic.one_way_latency
        assert done[0] == pytest.approx(expected)

    def test_sender_nic_serializes_messages(self):
        sim, fabric, a, b = setup_pair()
        done = []
        big = 23 * 1024 * 1024 * 100  # ~1 s of serialization at 2.3 GB/s

        def sender(tag):
            yield from fabric.transfer(a, b, big)
            done.append(sim.now)

        sim.process(sender(1))
        sim.process(sender(2))
        sim.run()
        assert done[1] >= 2 * (done[0] - a.spec.nic.one_way_latency) * 0.99

    def test_delivery_to_crashed_node_fails_after_latency(self):
        sim, fabric, a, b = setup_pair()
        b.crash()
        caught = []

        def sender():
            try:
                yield from fabric.transfer(a, b, 1 * KB)
            except NodeUnreachable:
                caught.append(sim.now)

        sim.process(sender())
        sim.run()
        assert caught and caught[0] > 0.0

    def test_partition_blocks_transfer(self):
        sim, fabric, a, b = setup_pair()
        fabric.partition("a", "b")

        def sender():
            yield from fabric.transfer(a, b, 1 * KB)

        sim.process(sender())
        with pytest.raises(NetworkPartitioned):
            sim.run()

    def test_heal_restores_connectivity(self):
        sim, fabric, a, b = setup_pair()
        fabric.partition("a", "b")
        fabric.heal("a", "b")
        ok = []

        def sender():
            yield from fabric.transfer(a, b, 1 * KB)
            ok.append(True)

        sim.process(sender())
        sim.run()
        assert ok == [True]

    def test_duplicate_attach_rejected(self):
        sim, fabric, a, _b = setup_pair()
        with pytest.raises(ValueError):
            fabric.attach(a)

    def test_delivery_counters(self):
        sim, fabric, a, b = setup_pair()

        def sender():
            yield from fabric.transfer(a, b, 100)

        sim.process(sender())
        sim.run()
        assert fabric.messages_delivered == 1
        assert fabric.bytes_delivered == 100


class EchoService(RpcService):
    """Minimal service: one server loop echoing request args."""

    def __init__(self, sim, fabric, node, delay=0.0):
        super().__init__(sim, fabric, node, name=f"echo:{node.name}")
        self.delay = delay
        sim.process(self._serve(), name=self.name)

    def _serve(self):
        while True:
            request = yield self.inbox.get()
            if self.delay:
                yield self.sim.timeout(self.delay)
            if request.op == "boom":
                request.fail(RuntimeError("service error"))
            else:
                request.respond(("echo", request.args))


class TestRpc:
    def test_roundtrip(self):
        sim, fabric, a, b = setup_pair()
        service = EchoService(sim, fabric, b)
        got = []

        def caller():
            result = yield from service.call(a, "ping", args=42)
            got.append((result, sim.now))

        sim.process(caller())
        sim.run(until=1.0)
        assert got[0][0] == ("echo", 42)
        # Round trip: two transfers + latency each way.
        assert got[0][1] > 2 * a.spec.nic.one_way_latency

    def test_service_exception_propagates_to_caller(self):
        sim, fabric, a, b = setup_pair()
        service = EchoService(sim, fabric, b)
        caught = []

        def caller():
            try:
                yield from service.call(a, "boom")
            except RuntimeError as exc:
                caught.append(str(exc))

        sim.process(caller())
        sim.run(until=1.0)
        assert caught == ["service error"]

    def test_timeout_raises_rpc_timeout(self):
        sim, fabric, a, b = setup_pair()
        service = EchoService(sim, fabric, b, delay=10.0)
        caught = []

        def caller():
            try:
                yield from service.call(a, "ping", timeout=0.5)
            except RpcTimeout:
                caught.append(sim.now)

        sim.process(caller())
        sim.run(until=20.0)
        assert caught and caught[0] == pytest.approx(0.5, abs=0.01)

    def test_timeout_message_names_op_service_and_deadline(self):
        sim, fabric, a, b = setup_pair()
        service = EchoService(sim, fabric, b, delay=10.0)
        caught = []

        def caller():
            try:
                yield from service.call(a, "ping", timeout=0.5)
            except RpcTimeout as exc:
                caught.append(str(exc))

        sim.process(caller())
        sim.run(until=20.0)
        assert caught == ["ping to echo:b timed out after 0.5s"]

    def test_answered_calls_withdraw_their_deadlines(self):
        # Each call's 1 s deadline loses its race to the reply; a
        # withdrawn deadline must not linger in the schedule.
        sim, fabric, a, b = setup_pair()
        service = EchoService(sim, fabric, b)

        def caller():
            for _ in range(1000):
                yield from service.call(a, "ping", timeout=1.0)

        sim.run_process(sim.process(caller()))
        assert sim.now < 1.0
        assert len(sim._heap) < 10

    def test_call_to_downed_service_fails(self):
        sim, fabric, a, b = setup_pair()
        service = EchoService(sim, fabric, b)
        service.shutdown()
        caught = []

        def caller():
            try:
                yield from service.call(a, "ping")
            except NodeUnreachable:
                caught.append(True)

        sim.process(caller())
        sim.run(until=1.0)
        assert caught == [True]

    def test_shutdown_fails_queued_requests(self):
        sim, fabric, a, b = setup_pair()
        service = RpcService(sim, fabric, b, "mute")  # nobody serves
        caught = []

        def caller():
            try:
                yield from service.call(a, "ping")
            except NodeUnreachable:
                caught.append(sim.now)

        def killer():
            yield sim.timeout(1.0)
            service.shutdown()

        sim.process(caller())
        sim.process(killer())
        sim.run(until=5.0)
        assert caught == [1.0]

    def test_request_counter(self):
        sim, fabric, a, b = setup_pair()
        service = EchoService(sim, fabric, b)

        def caller():
            for _ in range(5):
                yield from service.call(a, "ping")

        sim.process(caller())
        sim.run(until=1.0)
        assert service.requests_received == 5
