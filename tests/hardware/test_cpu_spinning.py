"""Unit tests for spin accounting and preemptible slices."""

import pytest

from repro.hardware.cpu import Cpu
from repro.sim import Simulator


def _wait(event):
    result = yield event
    return result


class TestSpinning:
    def test_spin_burns_utilization_without_blocking(self):
        sim = Simulator()
        cpu = Cpu(sim, cores=2)

        def spinner():
            yield from cpu.spinning(_wait(sim.timeout(10.0)))

        def worker():
            yield from cpu.execute(10.0)

        sim.process(spinner())
        sim.process(worker())
        sim.process(worker())  # 2 real workers + 1 spinner on 2 cores
        sim.run()
        # Real work was never delayed by the spinner...
        assert sim.now == pytest.approx(10.0)
        # ...but utilization was pegged at the core count (capped).
        assert 100.0 * cpu.busy_core_seconds() / (10.0 * 2) == \
            pytest.approx(100.0)

    def test_spin_accounts_when_cores_idle(self):
        sim = Simulator()
        cpu = Cpu(sim, cores=4)

        def spinner():
            yield from cpu.spinning(_wait(sim.timeout(10.0)))

        sim.process(spinner())
        sim.run()
        assert 100.0 * cpu.busy_core_seconds() / (10.0 * 4) == \
            pytest.approx(25.0)

    def test_spin_returns_inner_value(self):
        sim = Simulator()
        cpu = Cpu(sim, cores=1)
        got = []

        def inner():
            yield sim.timeout(1.0)
            return "payload"

        def outer():
            value = yield from cpu.spinning(inner())
            got.append(value)

        sim.process(outer())
        sim.run()
        assert got == ["payload"]

    def test_spin_unwinds_on_exception(self):
        sim = Simulator()
        cpu = Cpu(sim, cores=1)

        def inner():
            yield sim.timeout(1.0)
            raise RuntimeError("inner failed")

        def outer():
            try:
                yield from cpu.spinning(inner())
            except RuntimeError:
                pass

        sim.process(outer())
        sim.run()
        assert cpu.busy_cores == 0.0

    def test_nested_spins_cap_at_core_count(self):
        sim = Simulator()
        cpu = Cpu(sim, cores=2)

        def spinner():
            yield from cpu.spinning(_wait(sim.timeout(5.0)))

        for _ in range(10):
            sim.process(spinner())
        sim.run()
        assert 100.0 * cpu.busy_core_seconds() / (5.0 * 2) == \
            pytest.approx(100.0)

    def test_unbalanced_spin_end_rejected(self):
        cpu = Cpu(Simulator(), cores=2)
        with pytest.raises(ValueError, match="busy core count"):
            cpu.spin_end()


class TestExecuteSliced:
    def test_total_time_preserved(self):
        sim = Simulator()
        cpu = Cpu(sim, cores=1)
        done = []

        def burst():
            yield from cpu.execute_sliced(0.0107, slice_seconds=0.002)
            done.append(sim.now)

        sim.process(burst())
        sim.run()
        assert done[0] == pytest.approx(0.0107)

    def test_short_work_interleaves_with_long_burst(self):
        """A 10 µs request must not wait for a whole 1 s burst — only
        for the current 2 ms slice (the Fig. 10 latency mechanism)."""
        sim = Simulator()
        cpu = Cpu(sim, cores=1)
        latency = {}

        def burst():
            yield from cpu.execute_sliced(1.0, slice_seconds=0.002)

        def request():
            yield sim.timeout(0.1)  # arrive mid-burst
            start = sim.now
            yield from cpu.execute(10e-6)
            latency["request"] = sim.now - start

        sim.process(burst())
        sim.process(request())
        sim.run()
        assert latency["request"] < 0.005  # one slice + service, not 0.9 s

    def test_invalid_slice_rejected(self):
        sim = Simulator()
        cpu = Cpu(sim, cores=1)

        def bad():
            yield from cpu.execute_sliced(1.0, slice_seconds=0.0)

        sim.process(bad())
        with pytest.raises(ValueError):
            sim.run()


class TestPoweredOff:
    def test_powered_off_pdu_reads_zero(self):
        from repro.hardware.node import Node
        from repro.hardware.specs import GRID5000_NANCY_NODE
        sim = Simulator()
        node = Node(sim, GRID5000_NANCY_NODE, "n")
        node.start_metering()
        sim.run(until=2.0)
        node.power.powered_off = True
        sim.run(until=5.0)
        late = [v for t, v in node.power.series.items() if t > 2.5]
        assert late and all(v == 0.0 for v in late)
        assert node.power.instantaneous_watts(100.0) == 0.0
