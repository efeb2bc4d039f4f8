"""Edge-case tests for the fabric and RPC layer under interrupts and
odd inputs."""

import pytest

from repro.hardware.node import Node
from repro.hardware.specs import GRID5000_NANCY_NODE
from repro.net.fabric import Fabric
from repro.sim import Interrupt, Simulator


def setup_pair():
    sim = Simulator()
    fabric = Fabric(sim)
    a = Node(sim, GRID5000_NANCY_NODE, "a")
    b = Node(sim, GRID5000_NANCY_NODE, "b")
    fabric.attach(a)
    fabric.attach(b)
    return sim, fabric, a, b


class TestTransferEdges:
    def test_zero_byte_transfer(self):
        sim, fabric, a, b = setup_pair()
        done = []

        def sender():
            yield from fabric.transfer(a, b, 0)
            done.append(sim.now)

        sim.process(sender())
        sim.run()
        assert done and done[0] == pytest.approx(a.spec.nic.one_way_latency)

    def test_negative_size_rejected(self):
        sim, fabric, a, b = setup_pair()

        def sender():
            yield from fabric.transfer(a, b, -1)

        sim.process(sender())
        with pytest.raises(ValueError):
            sim.run()

    def test_unattached_endpoint_rejected(self):
        sim, fabric, a, _b = setup_pair()
        stranger = Node(sim, GRID5000_NANCY_NODE, "stranger")

        def sender():
            yield from fabric.transfer(a, stranger, 10)

        sim.process(sender())
        with pytest.raises(KeyError):
            sim.run()

    def test_interrupt_mid_transfer_releases_tx_queue(self):
        """Killing a sender mid-serialization must not wedge the NIC."""
        sim, fabric, a, b = setup_pair()
        big = int(a.spec.nic.bandwidth)  # ~1 s of serialization

        def victim_sender():
            try:
                yield from fabric.transfer(a, b, big)
            except Interrupt:
                pass

        victim = sim.process(victim_sender())
        done = []

        def killer():
            yield sim.timeout(0.1)
            victim.interrupt("die")

        def second_sender():
            yield sim.timeout(0.2)
            yield from fabric.transfer(a, b, 1024)
            done.append(sim.now)

        sim.process(killer())
        sim.process(second_sender())
        sim.run()
        # The second transfer went out promptly, not after the full 1 s.
        assert done and done[0] < 0.3

    def test_interrupt_while_queued_withdraws_cleanly(self):
        """A message killed while queued is never delivered, and the
        NIC's next message goes out right after the one ahead of it."""
        sim, fabric, a, b = setup_pair()
        nic = a.spec.nic
        big = int(nic.bandwidth)  # ~1 s of serialization
        done = []

        def hog():
            yield from fabric.transfer(a, b, big)
            done.append(("hog", sim.now))

        def victim_sender():
            try:
                yield from fabric.transfer(a, b, big)
            except Interrupt:
                done.append(("victim", "interrupted"))

        def late_sender():
            yield sim.timeout(0.2)
            yield from fabric.transfer(a, b, 1024)
            done.append(("late", sim.now))

        sim.process(hog())
        victim = sim.process(victim_sender())

        def killer():
            yield sim.timeout(0.1)
            victim.interrupt("die")

        sim.process(killer())
        sim.process(late_sender())
        sim.run()
        hog_sent = big / nic.bandwidth
        assert done == [
            ("victim", "interrupted"),
            ("hog", hog_sent + nic.one_way_latency),
            ("late", hog_sent + 1024 / nic.bandwidth + nic.one_way_latency)]
        assert fabric.messages_delivered == 2
        assert fabric.bytes_delivered == big + 1024

    def test_message_queued_behind_an_interrupted_one_keeps_its_slot(self):
        """The documented narrowing of the virtual-clock NIC: only the
        queue's tail hands unsent time back.  A message already queued
        behind an interrupted one starts where it was scheduled to."""
        sim, fabric, a, b = setup_pair()
        nic = a.spec.nic
        big = int(nic.bandwidth)
        done = []

        def sender(tag, nbytes):
            try:
                yield from fabric.transfer(a, b, nbytes)
            except Interrupt:
                return
            done.append((tag, sim.now))

        sim.process(sender("hog", big))
        victim = sim.process(sender("victim", big))
        sim.process(sender("behind", 1024))

        def killer():
            yield sim.timeout(0.1)
            victim.interrupt("die")

        sim.process(killer())
        sim.run()
        slot = big / nic.bandwidth + big / nic.bandwidth
        assert done == [
            ("hog", big / nic.bandwidth + nic.one_way_latency),
            ("behind", slot + 1024 / nic.bandwidth + nic.one_way_latency)]

    def test_transfer_counters_not_bumped_on_failure(self):
        sim, fabric, a, b = setup_pair()
        b.crash()

        def sender():
            from repro.net.fabric import NodeUnreachable
            try:
                yield from fabric.transfer(a, b, 1024)
            except NodeUnreachable:
                pass

        sim.process(sender())
        sim.run()
        assert fabric.messages_delivered == 0
        assert fabric.bytes_delivered == 0
