"""Unit tests for the node assembly and PDU power metering."""

import pytest

from repro.hardware.node import Node
from repro.hardware.specs import GRID5000_NANCY_NODE, MB
from repro.sim import Simulator


def make_node(sim, name="node0"):
    return Node(sim, GRID5000_NANCY_NODE, name)


class TestNode:
    def test_node_has_paper_hardware(self):
        sim = Simulator()
        node = make_node(sim)
        assert node.cpu.cores == 4
        assert node.dram.capacity == GRID5000_NANCY_NODE.dram_bytes

    def test_crash_sets_flag(self):
        sim = Simulator()
        node = make_node(sim)
        assert not node.crashed
        node.crash()
        assert node.crashed


class TestMetering:
    def test_idle_node_draws_idle_watts(self):
        sim = Simulator()
        node = make_node(sim)
        node.start_metering()
        sim.run(until=10.0)
        node.stop_metering()
        assert len(node.power.series) >= 9
        expected = GRID5000_NANCY_NODE.power.idle_watts
        assert node.power.average_watts() == pytest.approx(expected, abs=0.5)

    def test_busy_node_draws_more(self):
        sim = Simulator()
        node = make_node(sim)
        node.start_metering()

        def burn():
            for _ in range(4):
                sim.process(_spin(sim, node, 10.0))
            yield sim.timeout(0.0)

        def _spin(sim_, node_, t):
            yield from node_.cpu.execute(t)

        sim.process(burn())
        sim.run(until=10.0)
        spec = GRID5000_NANCY_NODE.power
        # The t=0 boundary sample correctly reads idle (load starts
        # after metering); the steady-state samples read full power.
        steady = node.power.series.window(1.0, 10.0)
        assert steady.mean() == pytest.approx(spec.watts(100.0), rel=0.02)
        assert node.power.series.values[0] == pytest.approx(
            spec.watts(0.0), abs=0.5)

    def test_energy_integral_for_constant_load(self):
        sim = Simulator()
        node = make_node(sim)
        node.start_metering()
        sim.run(until=100.0)
        node.stop_metering()
        expected = GRID5000_NANCY_NODE.power.idle_watts * 100.0
        assert node.power.energy_joules() == pytest.approx(expected, rel=0.02)

    def test_metering_idempotent_start(self):
        sim = Simulator()
        node = make_node(sim)
        node.start_metering()
        node.start_metering()  # no-op, no duplicate samplers
        sim.run(until=5.0)
        node.stop_metering()
        times = node.power.series.times
        assert len(times) == len(set(times))

    def test_stop_metering_halts_samples(self):
        sim = Simulator()
        node = make_node(sim)
        node.start_metering()
        sim.run(until=5.0)
        node.stop_metering()
        count = len(node.power.series)
        sim.run(until=10.0)
        assert len(node.power.series) == count

    def test_disk_activity_adds_watts(self):
        sim = Simulator()
        node = make_node(sim)
        node.start_metering()

        def io():
            # Keep the disk busy for several seconds.
            yield from node.disk.write(600 * MB, stream_id="flush")

        sim.process(io())
        sim.run(until=4.0)
        spec = GRID5000_NANCY_NODE.power
        # Samples at t=1..4 should include the disk adder.
        assert node.power.series.values[1] == pytest.approx(
            spec.watts(0.0, disk_active=True), abs=0.5
        )

    def test_pinned_dispatch_core_shows_in_power(self):
        """An idle RAMCloud server (polling thread pinned) draws more
        than a truly idle machine — the paper's non-proportionality
        starting point."""
        sim = Simulator()
        idle = make_node(sim, "idle")
        server = make_node(sim, "server")
        server.cpu.pin_core()
        idle.start_metering()
        server.start_metering()
        sim.run(until=10.0)
        assert (server.power.average_watts()
                > idle.power.average_watts() + 10.0)

    def test_stop_between_ticks_records_final_sample(self):
        # Cadence samples at 0..3 plus a boundary sample at the stop
        # instant, averaging the tail [3, 3.5] (full load from t=3), so
        # the energy integral ends exactly where metering stopped.
        sim = Simulator()
        node = make_node(sim)
        node.start_metering()

        def load():
            yield sim.timeout(3.0)
            for _ in range(4):
                sim.process(node.cpu.execute(10.0))

        sim.process(load())
        sim.run(until=3.5)
        node.stop_metering()
        assert node.power.series.times == [0.0, 1.0, 2.0, 3.0, 3.5]
        assert node.power.series.values[-1] == pytest.approx(
            GRID5000_NANCY_NODE.power.watts(100.0))

    def test_stop_on_tick_does_not_duplicate(self):
        sim = Simulator()
        node = make_node(sim)
        node.start_metering()
        sim.run(until=3.0)
        node.stop_metering()
        assert node.power.series.times == [0.0, 1.0, 2.0, 3.0]
