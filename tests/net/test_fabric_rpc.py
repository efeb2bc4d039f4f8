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

    def test_back_to_back_transfers_arrive_in_fifo_slots(self):
        # Each message starts when the one ahead of it has left the NIC
        # and arrives one latency after its own last byte — as floats,
        # computed by hand — and each transfer is one kernel event.
        sim, fabric, a, b = setup_pair()
        nic = a.spec.nic
        sizes = [3 * KB, 1 * KB, 0, 7 * KB]
        done = []

        def sender(tag, nbytes):
            yield from fabric.transfer(a, b, nbytes)
            done.append((tag, sim.now))

        def burst():
            yield sim.timeout(0.3)
            for tag, nbytes in enumerate(sizes):
                sim.process(sender(tag, nbytes))

        sim.process(burst())
        before = sim._seq
        sim.run()
        expected = []
        start = 0.3
        for tag, nbytes in enumerate(sizes):
            sent = start + nbytes / nic.bandwidth
            expected.append((tag, sent + nic.one_way_latency))
            start = sent
        assert done == expected
        # Per sender: bootstrap, one transfer timer, exit; plus the
        # burst's timer and exit.
        assert sim._seq - before == 3 * len(sizes) + 2

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

    def test_idle_fabric_call_is_three_events(self):
        # Request transfer, inbox hand-off, reply: the reply fires once
        # the response has crossed the wire, which is charged exactly
        # once.
        sim, fabric, a, b = setup_pair()
        service = EchoService(sim, fabric, b)
        got = []

        def caller():
            yield sim.timeout(0.3)
            before = sim._seq
            result = yield from service.call(a, "ping", args=1,
                                             size_bytes=3 * KB,
                                             response_bytes=5 * KB)
            got.append((result, sim.now, sim._seq - before))

        sim.process(caller())
        sim.run(until=1.0)
        out, back = a.spec.nic, b.spec.nic
        arrived = 0.3 + 3 * KB / out.bandwidth + out.one_way_latency
        answered = arrived + (5 * KB / back.bandwidth + back.one_way_latency)
        assert got == [(("echo", 1), answered, 3)]

    def test_deadline_during_response_flight_is_not_a_timeout(self):
        # The service answers long before the deadline, but the ~1 s
        # response is still on the wire when it expires.
        sim, fabric, a, b = setup_pair()
        service = EchoService(sim, fabric, b)
        nic = b.spec.nic
        got = []

        def caller():
            result = yield from service.call(
                a, "ping", args=7, response_bytes=int(nic.bandwidth),
                timeout=0.5)
            got.append((result, sim.now))

        sim.process(caller())
        sim.run(until=5.0)
        assert len(got) == 1
        assert got[0][0] == ("echo", 7)
        assert got[0][1] > 1.0

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
