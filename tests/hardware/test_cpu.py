"""Unit tests for the CPU model."""

import pytest

from repro.hardware.cpu import Cpu
from repro.sim import Interrupt, Simulator
from repro.sim.kernel import Event


class TestExecution:
    def test_single_task_runs_for_requested_time(self):
        sim = Simulator()
        cpu = Cpu(sim, cores=4)
        done = []

        def task():
            yield from cpu.execute(2.0)
            done.append(sim.now)

        sim.process(task())
        sim.run()
        assert done == [2.0]

    def test_parallelism_up_to_core_count(self):
        sim = Simulator()
        cpu = Cpu(sim, cores=2)
        done = []

        def task(tag):
            yield from cpu.execute(1.0)
            done.append((tag, sim.now))

        for tag in range(4):
            sim.process(task(tag))
        sim.run()
        finish_times = sorted(t for _, t in done)
        assert finish_times == [1.0, 1.0, 2.0, 2.0]

    def test_free_core_execute_is_one_event(self):
        sim = Simulator()
        cpu = Cpu(sim, cores=2)
        events = []

        def task():
            before = sim._seq
            yield from cpu.execute(0.5)
            events.append(sim._seq - before)

        sim.process(task())
        sim.run()
        assert events == [1]
        assert sim.now == 0.5

    def test_contended_execute_queues_for_a_core(self):
        sim = Simulator()
        cpu = Cpu(sim, cores=1)
        log = []

        def task(tag):
            start = sim.now
            yield from cpu.execute(1.0)
            log.append((tag, start, sim.now))

        def probe():
            yield sim.timeout(0.5)
            log.append(("queued", cpu.run_queue_length, cpu.busy_cores))

        for tag in "abc":
            sim.process(task(tag))
        sim.process(probe())
        sim.run()
        assert log == [("queued", 2, 1.0), ("a", 0.0, 1.0),
                       ("b", 0.0, 2.0), ("c", 0.0, 3.0)]
        assert cpu.busy_core_seconds() == 3.0

    def test_negative_time_rejected(self):
        sim = Simulator()
        cpu = Cpu(sim, cores=1)

        def task():
            yield from cpu.execute(-1.0)

        sim.process(task())
        with pytest.raises(ValueError):
            sim.run()

    def test_invalid_core_count(self):
        with pytest.raises(ValueError):
            Cpu(Simulator(), cores=0)


class TestPinning:
    def test_pin_reduces_schedulable_cores(self):
        sim = Simulator()
        cpu = Cpu(sim, cores=4)
        cpu.pin_core()
        assert cpu.schedulable_cores == 3
        assert cpu.busy_cores == 1.0

    def test_idle_utilization_with_pinned_core_is_25_percent(self):
        """Table I row 0: RAMCloud's polling thread costs 25 % of a
        4-core machine even with zero clients."""
        sim = Simulator()
        cpu = Cpu(sim, cores=4)
        cpu.pin_core()

        def idle():
            yield sim.timeout(10.0)

        sim.process(idle())
        sim.run()
        # 10 busy core-seconds over 10 s on 4 cores.
        assert 100.0 * cpu.busy_core_seconds() / (10.0 * 4) == \
            pytest.approx(25.0)

    def test_cannot_pin_all_cores(self):
        sim = Simulator()
        cpu = Cpu(sim, cores=2)
        cpu.pin_core()
        with pytest.raises(ValueError):
            cpu.pin_core()

    def test_unpin_restores_capacity(self):
        sim = Simulator()
        cpu = Cpu(sim, cores=4)
        cpu.pin_core()
        cpu.unpin_core()
        assert cpu.schedulable_cores == 4
        assert cpu.busy_cores == 0.0

    def test_unpin_without_pin_rejected(self):
        sim = Simulator()
        cpu = Cpu(sim, cores=4)
        with pytest.raises(ValueError):
            cpu.unpin_core()

    def test_pinned_core_unavailable_to_workers(self):
        sim = Simulator()
        cpu = Cpu(sim, cores=2)
        cpu.pin_core()
        done = []

        def task(tag):
            yield from cpu.execute(1.0)
            done.append((tag, sim.now))

        sim.process(task("a"))
        sim.process(task("b"))
        sim.run()
        # Only one schedulable core: tasks serialize.
        assert sorted(t for _, t in done) == [1.0, 2.0]


class TestUtilizationAccounting:
    def test_full_load_is_100_percent(self):
        sim = Simulator()
        cpu = Cpu(sim, cores=2)

        def task():
            yield from cpu.execute(5.0)

        sim.process(task())
        sim.process(task())
        sim.run()
        assert 100.0 * cpu.busy_core_seconds() / (5.0 * 2) == \
            pytest.approx(100.0)

    def test_windowed_utilization(self):
        sim = Simulator()
        cpu = Cpu(sim, cores=1)
        snapshots = []

        def scenario():
            snapshots.append(cpu.busy_core_seconds())
            yield from cpu.execute(2.0)  # busy 0–2
            snapshots.append(cpu.busy_core_seconds())
            yield sim.timeout(2.0)  # idle 2–4
            snapshots.append(cpu.busy_core_seconds())

        sim.process(scenario())
        sim.run()
        b0, b2, b4 = snapshots
        assert 100.0 * (b2 - b0) / 2.0 == pytest.approx(100.0)
        assert 100.0 * (b4 - b2) / 2.0 == pytest.approx(0.0)

    def test_run_queue_length(self):
        sim = Simulator()
        cpu = Cpu(sim, cores=1)
        seen = []

        def task():
            yield from cpu.execute(1.0)

        def probe():
            yield sim.timeout(0.5)
            seen.append(cpu.run_queue_length)

        for _ in range(3):
            sim.process(task())
        sim.process(probe())
        sim.run()
        assert seen == [2]


class TestInterruptSafety:
    def test_interrupt_while_waiting_for_core_releases_nothing(self):
        sim = Simulator()
        cpu = Cpu(sim, cores=1)

        def hog():
            yield from cpu.execute(10.0)

        def waiter():
            try:
                yield from cpu.execute(1.0)
            except Interrupt:
                pass

        sim.process(hog())
        victim = sim.process(waiter())

        def killer():
            yield sim.timeout(1.0)
            victim.interrupt("die")

        sim.process(killer())
        sim.run()
        assert cpu.run_queue_length == 0
        assert cpu.busy_cores == 0.0

    def test_interrupt_while_executing_frees_core(self):
        sim = Simulator()
        cpu = Cpu(sim, cores=1)

        def worker():
            try:
                yield from cpu.execute(10.0)
            except Interrupt:
                pass

        victim = sim.process(worker())

        def killer():
            yield sim.timeout(1.0)
            victim.interrupt("die")

        def late_task():
            yield sim.timeout(2.0)
            yield from cpu.execute(1.0)
            return sim.now

        sim.process(killer())
        late = sim.process(late_task())
        assert sim.run_process(late) == 3.0  # core was free at t=2
        assert cpu.busy_cores == 0.0


class TestCoreQueue:
    def test_interrupted_while_queued_the_wait_is_withdrawn(self):
        sim = Simulator()
        cpu = Cpu(sim, cores=1)
        log = []

        def task(tag, seconds):
            try:
                yield from cpu.execute(seconds)
                log.append((tag, sim.now))
            except Interrupt:
                log.append((tag, "interrupted", cpu.run_queue_length))

        sim.process(task("hog", 2.0))
        victim = sim.process(task("b", 1.0))
        sim.process(task("c", 1.0))

        def killer():
            yield sim.timeout(1.0)
            victim.interrupt("die")

        sim.process(killer())
        sim.run()
        # b left the queue at t=1; the core went from hog to c at t=2.
        assert log == [("b", "interrupted", 1), ("hog", 2.0), ("c", 3.0)]
        assert cpu.busy_core_seconds() == 3.0
        assert cpu.run_queue_length == 0 and cpu.busy_cores == 0.0

    def test_a_core_granted_to_an_interrupted_waiter_passes_on(self):
        sim = Simulator()
        cpu = Cpu(sim, cores=1)
        log = []

        def killer():
            # Created first, so its t=1 timer fires before hog's: the
            # interrupt is queued, then hog's release grants b, and the
            # interrupt reaches b before b resumes with its core.
            yield sim.timeout(1.0)
            victim.interrupt("die")

        def task(tag, seconds):
            try:
                yield from cpu.execute(seconds)
                log.append((tag, sim.now))
            except Interrupt:
                # 0: c already holds the core b was handed (a b still
                # queued at the interrupt would have left c queued).
                log.append((tag, "interrupted", cpu.run_queue_length))

        sim.process(killer())
        sim.process(task("hog", 1.0))
        victim = sim.process(task("b", 5.0))
        sim.process(task("c", 1.0))
        sim.run()
        assert log == [("hog", 1.0), ("b", "interrupted", 0), ("c", 2.0)]
        assert cpu.busy_core_seconds() == 2.0
        assert cpu.run_queue_length == 0 and cpu.busy_cores == 0.0

    def test_grants_follow_fifo_on_release_and_on_growth(self):
        sim = Simulator()
        cpu = Cpu(sim, cores=4)
        cpu.pin_core()
        assert cpu.try_park_core() and cpu.try_park_core()  # one core left
        starts = {}

        def task(tag):
            start = []
            gen = cpu.execute(1.0)
            # execute's first yield is the work's sleep on a free core
            # (not an event), else the queued wait; the work starts
            # when that resumes.
            target = next(gen)
            if not isinstance(target, Event):
                start.append(sim.now)
            yield target
            if not start:
                start.append(sim.now)
                yield gen.send(None)
            starts[tag] = start[0]
            with pytest.raises(StopIteration):
                gen.send(None)

        def grow():
            yield sim.timeout(0.5)
            cpu.unpark_core()  # a core for the oldest waiter, b
            yield sim.timeout(0.1)
            cpu.unpin_core()  # and one for c
            yield sim.timeout(0.1)
            assert cpu.run_queue_length == 2

        for tag in "abcde":
            sim.process(task(tag))
        sim.process(grow())
        sim.run()
        # a released at 1.0 (to d), b at 1.5 (to e).
        assert starts == {"a": 0.0, "b": 0.5, "c": 0.6, "d": 1.0, "e": 1.5}
        assert cpu.run_queue_length == 0
