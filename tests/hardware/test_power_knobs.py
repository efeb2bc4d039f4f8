"""Edge-case tests for the power-management hardware knobs
(docs/POWER.md): DVFS, core parking, pinned-poller idling, and the
frequency/parking-aware power model."""

import pytest

from repro.hardware.cpu import Cpu
from repro.hardware.specs import CpuSpec, PowerSpec
from repro.sim import Simulator


class TestPinUnpinNesting:
    def test_pin_twice_unpin_twice(self):
        sim = Simulator()
        cpu = Cpu(sim, cores=4)
        cpu.pin_core()
        cpu.pin_core()
        assert cpu.schedulable_cores == 2
        assert cpu.busy_cores == 2.0
        cpu.unpin_core()
        cpu.unpin_core()
        assert cpu.schedulable_cores == 4
        assert cpu.busy_cores == 0.0
        with pytest.raises(ValueError):
            cpu.unpin_core()

    def test_unpin_clears_orphaned_idle_state(self):
        # kill() unpins the dispatch core while the sleeping dispatch
        # thread still "owns" an idle pinned core; the idle count must
        # collapse with the pin count.
        sim = Simulator()
        cpu = Cpu(sim, cores=4)
        cpu.pin_core()
        cpu.pinned_core_idle()
        cpu.unpin_core()
        assert cpu.busy_cores == 0.0
        # The late wake-up must be a lenient no-op, not an underflow.
        cpu.pinned_core_busy()
        assert cpu.busy_cores == 0.0

    def test_pin_refused_when_parked_cores_leave_no_headroom(self):
        sim = Simulator()
        cpu = Cpu(sim, cores=4)
        cpu.pin_core()
        assert cpu.try_park_core()
        assert cpu.try_park_core()
        # 1 pinned + 2 parked on 4 cores: pinning another would leave
        # no schedulable core.
        with pytest.raises(ValueError, match="schedulable"):
            cpu.pin_core()


class TestPinnedPollerIdle:
    def test_idle_poller_stops_accruing_busy_time(self):
        sim = Simulator()
        cpu = Cpu(sim, cores=4)
        cpu.pin_core()

        def scenario():
            yield sim.timeout(1.0)   # awake: 25 % busy
            cpu.pinned_core_idle()
            yield sim.timeout(2.0)   # asleep: 0 % busy
            cpu.pinned_core_busy()
            yield sim.timeout(1.0)   # awake again

        sim.process(scenario())
        sim.run()
        # 2 core-seconds busy over 4 s on 4 cores = 12.5 %.
        assert 100.0 * cpu.busy_core_seconds() / (4.0 * 4) == \
            pytest.approx(12.5)

    def test_idle_without_awake_pinned_core_rejected(self):
        sim = Simulator()
        cpu = Cpu(sim, cores=4)
        with pytest.raises(ValueError, match="pinned"):
            cpu.pinned_core_idle()
        cpu.pin_core()
        cpu.pinned_core_idle()
        with pytest.raises(ValueError, match="pinned"):
            cpu.pinned_core_idle()  # the only pinned core already sleeps


class TestCoreParking:
    def test_park_refused_on_last_schedulable_core(self):
        sim = Simulator()
        cpu = Cpu(sim, cores=2)
        cpu.pin_core()
        assert not cpu.try_park_core()  # would leave zero runnable cores

    def test_park_refused_rather_than_strand_a_runner(self):
        sim = Simulator()
        cpu = Cpu(sim, cores=4)
        cpu.pin_core()  # 3 schedulable
        refusals = []

        def worker():
            yield from cpu.execute(1.0)

        def parker():
            yield sim.timeout(0.5)  # all 3 worker cores occupied
            refusals.append(cpu.try_park_core())

        for _ in range(3):
            sim.process(worker())
        sim.process(parker())
        sim.run()
        assert refusals == [False]
        assert cpu.parked_cores == 0

    def test_park_succeeds_with_headroom_then_refuses_at_limit(self):
        sim = Simulator()
        cpu = Cpu(sim, cores=4)
        cpu.pin_core()
        assert cpu.try_park_core()
        assert cpu.try_park_core()
        assert cpu.parked_cores == 2
        assert not cpu.try_park_core()  # one unparked core must remain

    def test_unpark_without_park_rejected(self):
        sim = Simulator()
        cpu = Cpu(sim, cores=4)
        with pytest.raises(ValueError, match="parked"):
            cpu.unpark_core()

    def test_parked_capacity_is_unavailable_until_unparked(self):
        sim = Simulator()
        cpu = Cpu(sim, cores=2)
        assert cpu.try_park_core()
        done = []

        def worker(tag):
            yield from cpu.execute(1.0)
            done.append((tag, sim.now))

        def waker():
            yield sim.timeout(1.0)
            cpu.unpark_core()

        sim.process(worker("a"))
        sim.process(worker("b"))
        sim.process(waker())
        sim.run()
        # One core until t=1: "a" finishes at 1.0; "b" started queued,
        # got the woken core at t=1 and finished at 2.0.
        assert sorted(t for _, t in done) == [1.0, 2.0]

    def test_spinning_accounts_across_park_and_wake(self):
        sim = Simulator()
        cpu = Cpu(sim, cores=4)
        cpu.pin_core()
        assert cpu.try_park_core()

        def spin_wait():
            yield from cpu.spinning(_wait(sim.timeout(2.0)))

        sim.process(spin_wait())

        def waker():
            yield sim.timeout(1.0)
            cpu.unpark_core()

        sim.process(waker())
        probes = []

        def probe():
            yield sim.timeout(0.5)
            probes.append(cpu.busy_cores)  # pinned + spinning, parked t<1
            yield sim.timeout(1.0)
            probes.append(cpu.busy_cores)  # unparked, still spinning

        sim.process(probe())
        sim.run()
        assert probes == [2.0, 2.0]
        assert cpu.busy_cores == 1.0  # spin ended, pinned poller remains


def _wait(event):
    yield event


class TestDvfs:
    def test_execute_stretches_by_inverse_ratio(self):
        sim = Simulator()
        cpu = Cpu(sim, cores=1)
        cpu.set_frequency(0.5)
        done = []

        def task():
            yield from cpu.execute(1.0)
            done.append(sim.now)

        sim.process(task())
        sim.run()
        assert done == [2.0]

    def test_nominal_ratio_is_bit_exact(self):
        sim = Simulator()
        cpu = Cpu(sim, cores=1)
        cpu.set_frequency(1.0)
        done = []

        def task():
            yield from cpu.execute(0.1)
            done.append(sim.now)

        sim.process(task())
        sim.run()
        assert done == [0.1]  # exactly, not approximately

    @pytest.mark.parametrize("ratio", [0.0, -0.5, 1.6])
    def test_invalid_ratio_rejected(self, ratio):
        cpu = Cpu(Simulator(), cores=1)
        with pytest.raises(ValueError, match="ratio"):
            cpu.set_frequency(ratio)


class TestCpuSpecValidation:
    def test_defaults_are_the_x3440(self):
        spec = CpuSpec()
        assert spec.nominal_freq_ghz == 2.53
        assert spec.freq_steps[-1] == 1.0

    @pytest.mark.parametrize("steps,message", [
        ((), "at least one"),
        ((1.0, 0.5), "ascending"),
        ((0.0, 1.0), r"\(0, 1.5\]"),
        ((0.5, 0.8), "must be 1.0"),
    ])
    def test_bad_freq_steps_rejected(self, steps, message):
        with pytest.raises(ValueError, match=message):
            CpuSpec(freq_steps=steps)


class TestPowerModel:
    def test_calibration_anchors(self):
        spec = PowerSpec()
        assert spec.watts(0.0) == pytest.approx(57.5)
        assert spec.watts(100.0) == pytest.approx(126.5)
        assert spec.watts(0.0, disk_active=True) == pytest.approx(63.5)
        assert spec.watts(100.0, disk_active=True) == pytest.approx(132.5)

    def test_default_knobs_are_bit_identical_to_linear_fit(self):
        spec = PowerSpec()
        for util in (0.0, 25.0, 49.8, 98.4, 100.0):
            expected = spec.idle_watts + spec.slope_watts_per_pct * util
            assert spec.watts(util, freq_ratio=1.0, parked_cores=0) == expected

    def test_dvfs_scales_only_the_dynamic_term(self):
        spec = PowerSpec()
        ratio = 0.47
        expected = 57.5 + 0.69 * 100.0 * ratio ** 2.2
        assert spec.watts(100.0, freq_ratio=ratio) == pytest.approx(expected)
        # The idle floor does not scale with frequency.
        assert spec.watts(0.0, freq_ratio=ratio) == pytest.approx(57.5)

    def test_parked_cores_drop_from_the_floor(self):
        spec = PowerSpec()
        assert spec.watts(0.0, parked_cores=2) == pytest.approx(52.5)
        # The subtraction clamps at zero; the disk adder applies after.
        assert spec.watts(0.0, parked_cores=100) == 0.0
        assert spec.watts(0.0, parked_cores=100, disk_active=True) == 6.0

    def test_validation(self):
        spec = PowerSpec()
        with pytest.raises(ValueError, match="utilization"):
            spec.watts(101.0)
        with pytest.raises(ValueError, match="utilization"):
            spec.watts(-1.0)
        with pytest.raises(ValueError, match="freq_ratio"):
            spec.watts(50.0, freq_ratio=2.0)
        with pytest.raises(ValueError, match="parked_cores"):
            spec.watts(50.0, parked_cores=-1)
