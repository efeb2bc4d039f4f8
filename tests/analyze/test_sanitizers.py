"""Runtime-sanitizer tests: each diagnostic fires on its bug, stays
quiet on clean runs, and ``debug=False`` keeps the kernel untouched.
"""

import warnings

import pytest

from repro.sim.kernel import Process, SimulationError, Simulator
from repro.sim.resources import Mutex, Resource
from repro.sim.sanitize import (NULL_SHARED, RaceWarning, SanitizerWarning,
                                Shared, guarded_by, shared)


def wait_on(event):
    yield event


# ---------------------------------------------------------------------------
# event-leak detection
# ---------------------------------------------------------------------------

class TestEventLeak:
    def test_leaked_event_warns_when_schedule_drains(self):
        sim = Simulator(debug=True)
        orphan = sim.event()  # nobody will ever trigger this
        sim.process(wait_on(orphan), name="frozen-forever")
        with pytest.warns(SanitizerWarning, match="event leak"):
            sim.run()

    def test_leak_warning_names_the_waiting_process(self):
        sim = Simulator(debug=True)
        orphan = sim.event()
        sim.process(wait_on(orphan), name="backup-flush")
        with pytest.warns(SanitizerWarning, match="backup-flush"):
            sim.run()

    def test_untriggered_event_without_waiters_is_not_a_leak(self):
        sim = Simulator(debug=True)
        sim.event()  # garbage, not a leak: nobody waits on it
        sim.timeout(1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error", SanitizerWarning)
            sim.run()

    def test_condition_whose_only_waiter_was_killed_is_not_a_leak(self):
        # The orphan's one callback belongs to an AllOf nobody can
        # consume any more: its waiter died by interrupt.
        sim = Simulator(debug=True)
        orphan = sim.event()
        victim = sim.process(wait_on(sim.all_of([orphan])), name="victim")

        def killer():
            yield sim.timeout(1.0)
            victim.interrupt("killed")

        sim.process(killer(), name="killer")
        with warnings.catch_warnings():
            warnings.simplefilter("error", SanitizerWarning)
            sim.run()
        assert not victim.is_alive

    def test_condition_with_a_live_waiter_still_leaks(self):
        sim = Simulator(debug=True)
        orphan = sim.event()
        sim.process(wait_on(sim.all_of([sim.all_of([orphan])])),
                    name="frozen")
        with pytest.warns(SanitizerWarning, match="event leak") as caught:
            sim.run()
        # The orphan is awaited through one AllOf, that one through the
        # next, and that one by the frozen process.
        message = str(caught[0].message)
        assert "Event awaited by 'AllOf'" in message
        assert "AllOf awaited by 'frozen'" in message

    def test_triggered_events_are_not_leaks(self):
        sim = Simulator(debug=True)
        ev = sim.event()
        sim.process(wait_on(ev), name="ok")

        def trigger():
            yield sim.timeout(0.5)
            ev.succeed("done")

        sim.process(trigger(), name="trigger")
        with warnings.catch_warnings():
            warnings.simplefilter("error", SanitizerWarning)
            sim.run()


# ---------------------------------------------------------------------------
# lock-held-at-process-death detection
# ---------------------------------------------------------------------------

class TestHeldAtDeath:
    def test_dying_while_holding_a_mutex_warns(self):
        sim = Simulator(debug=True)
        mutex = Mutex(sim, name="log-lock")

        def holder():
            token = mutex.acquire()
            yield token
            raise RuntimeError("boom")  # dies holding log-lock

        proc = sim.process(holder(), name="writer")

        def watcher():
            try:
                yield proc
            except RuntimeError:
                pass

        sim.process(watcher(), name="watcher")
        with pytest.warns(SanitizerWarning, match="holding log-lock"):
            sim.run()

    def test_interrupt_while_queued_without_abort_warns(self):
        sim = Simulator(debug=True)
        mutex = Mutex(sim, name="log-lock")

        def holder():
            token = mutex.acquire()
            try:
                yield token
                yield sim.timeout(10.0)
            finally:
                mutex.release(token)

        def sloppy_waiter():
            token = mutex.acquire()
            yield token  # interrupted here; the queued request leaks

        sim.process(holder(), name="holder")
        victim = sim.process(sloppy_waiter(), name="victim")

        def killer():
            yield sim.timeout(1.0)
            victim.interrupt("die")

        sim.process(killer(), name="killer")
        with pytest.warns(SanitizerWarning, match="queued for log-lock"):
            sim.run()

    @pytest.mark.parametrize("ending", ["returns", "is interrupted"])
    def test_process_ending_after_many_steps_still_reports(self, ending):
        """A process resumed several times, then ended holding the lock:
        its last step still runs the held-at-death check."""
        sim = Simulator(debug=True)
        mutex = Mutex(sim, name="log-lock")

        def holder():
            token = mutex.acquire()
            yield token
            for _ in range(3):
                yield sim.timeout(0.1)
            if ending == "is interrupted":
                yield sim.event()  # never fires; the killer interrupts
            # returns holding log-lock

        victim = sim.process(holder(), name="holder")

        def killer():
            yield sim.timeout(1.0)
            victim.interrupt("killed")

        if ending == "is interrupted":
            sim.process(killer(), name="killer")
        with pytest.warns(SanitizerWarning,
                          match="process 'holder' died while holding log-lock"):
            sim.run()
        assert not victim.is_alive

    def test_clean_try_finally_holder_stays_silent(self):
        sim = Simulator(debug=True)
        mutex = Mutex(sim, name="log-lock")

        def clean():
            token = mutex.acquire()
            try:
                yield token
            except BaseException:
                mutex.abort(token)
                raise
            try:
                yield sim.timeout(0.1)
            finally:
                mutex.release(token)

        sim.process(clean(), name="clean-a")
        sim.process(clean(), name="clean-b")
        with warnings.catch_warnings():
            warnings.simplefilter("error", SanitizerWarning)
            sim.run()


# ---------------------------------------------------------------------------
# declared guards (@guarded_by)
# ---------------------------------------------------------------------------

def _locked(lock, body):
    """The kernel's canonical critical section around ``body()``."""
    token = lock.acquire()
    try:
        yield token
    except BaseException:
        lock.abort(token)
        raise
    try:
        yield from body()
    finally:
        lock.release(token)


@guarded_by("lock")
class Table:
    def __init__(self, sim):
        self.lock = Mutex(sim, name="table-lock")


class TestDeclaredGuards:
    def test_unguarded_write_warns(self):
        sim = Simulator(debug=True)
        race = shared(sim, "table", obj=Table(sim))

        def mutate():
            race.write("rows")
            yield sim.timeout(0.01)

        sim.process(mutate(), name="rogue")
        with pytest.warns(RaceWarning,
                          match=r"unguarded write to table\[rows\]: "
                                r"process 'rogue' holds none of the "
                                r"declared guard\(s\) \[lock\]"):
            sim.run()

    def test_write_under_the_lock_is_clean(self):
        sim = Simulator(debug=True)
        table = Table(sim)
        race = shared(sim, "table", obj=table)

        def mutate():
            def body():
                race.write("rows")
                yield sim.timeout(0.01)
            yield from _locked(table.lock, body)

        sim.process(mutate(), name="careful")
        sim.run()  # pyproject makes any RaceWarning an error
        assert sim._sanitizer.race_reports == []

    def test_another_process_holding_the_lock_does_not_count(self):
        sim = Simulator(debug=True)
        table = Table(sim)
        race = shared(sim, "table", obj=table)

        def holder():
            def body():
                yield sim.timeout(1.0)
            yield from _locked(table.lock, body)

        def rogue():
            yield sim.timeout(0.5)
            race.write("rows")  # the lock is held, but not by us

        sim.process(holder(), name="holder")
        sim.process(rogue(), name="rogue")
        with pytest.warns(RaceWarning, match="process 'rogue'"):
            sim.run()

    def test_guard_resolves_on_the_owner(self):
        @guarded_by("log_lock")
        class Inner:
            pass

        class Owner:
            def __init__(self, sim):
                self.log_lock = Mutex(sim, name="owner-lock")

        sim = Simulator(debug=True)
        owner = Owner(sim)
        race = shared(sim, "inner", obj=Inner(), owner=owner)
        assert isinstance(race, Shared)

        def mutate():
            def body():
                race.write("data")
                yield sim.timeout(0.01)
            yield from _locked(owner.log_lock, body)

        sim.process(mutate(), name="owner-writer")
        sim.run()
        assert sim._sanitizer.race_reports == []

    def test_debug_mode_returns_tracking_handle(self):
        sim = Simulator(debug=True)
        assert isinstance(shared(sim, "table", obj=Table(sim)), Shared)

    def test_null_handle_outside_debug_mode(self):
        sim = Simulator(debug=False)
        handle = shared(sim, "table", obj=Table(sim))
        assert handle is NULL_SHARED
        assert not handle.enabled
        handle.write("rows")  # a no-op

    def test_setup_writes_outside_processes_are_ignored(self):
        sim = Simulator(debug=True)
        race = shared(sim, "preload", obj=Table(sim))
        race.write("bulk")  # no running process: bulk load, single-threaded
        assert sim._sanitizer.race_reports == []

    def test_reports_are_deduplicated_and_deterministic(self):
        def run_once():
            sim = Simulator(debug=True)
            race = shared(sim, "table", obj=Table(sim))

            def rogue(delay):
                for field in ("rows", "rows", "size"):
                    yield sim.timeout(delay)
                    race.write(field)

            sim.process(rogue(0.2), name="rogue-b")
            sim.process(rogue(0.1), name="rogue-a")
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RaceWarning)
                sim.run()
            return list(sim._sanitizer.race_reports)

        first = run_once()
        assert first == run_once()
        # One report per (field, process), in schedule order.
        assert [(r.split(":")[0], r.split("'")[1]) for r in first] == [
            ("unguarded write to table[rows]", "rogue-a"),
            ("unguarded write to table[rows]", "rogue-b"),
            ("unguarded write to table[size]", "rogue-a"),
            ("unguarded write to table[size]", "rogue-b"),
        ]


# ---------------------------------------------------------------------------
# deadlock wait-graph diagnostics
# ---------------------------------------------------------------------------

class TestDeadlockDiagnostics:
    def test_deadlock_dump_names_processes_and_waits(self):
        sim = Simulator(debug=True)
        mutex = Mutex(sim, name="bucket-lock")

        def holder_forever():
            token = mutex.acquire()
            try:
                yield token
                yield sim.event()  # never triggered: holds the lock forever
            finally:
                mutex.release(token)

        def second():
            token = mutex.acquire()
            try:
                yield token
            finally:
                mutex.release(token)

        sim.process(holder_forever(), name="holder")
        proc = sim.process(second(), name="blocked")
        with pytest.raises(SimulationError) as excinfo:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", SanitizerWarning)
                sim.run_process(proc)
        message = str(excinfo.value)
        assert "wait-for graph" in message
        assert "'blocked' waits on Request on bucket-lock (queued)" in message
        assert "'holder' waits on Event" in message

    def test_lock_order_inversion_names_both_sides(self):
        # The ABBA shape: each critical section is the canonical
        # SIM002-clean one, but 'ab' takes lock_a then lock_b and 'ba'
        # the reverse.  Nothing preempts either process, so both park.
        sim = Simulator(debug=True)
        lock_a = Mutex(sim, name="lock_a")
        lock_b = Mutex(sim, name="lock_b")
        log = []

        def transfer(first, second, label):
            outer = first.acquire()
            try:
                yield outer
            except BaseException:
                first.abort(outer)
                raise
            try:
                inner = second.acquire()
                try:
                    yield inner
                except BaseException:
                    second.abort(inner)
                    raise
                try:
                    log.append(label)
                finally:
                    second.release(inner)
            finally:
                first.release(outer)

        ab = sim.process(transfer(lock_a, lock_b, "ab"), name="ab")
        sim.process(transfer(lock_b, lock_a, "ba"), name="ba")
        with pytest.raises(SimulationError) as excinfo:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", SanitizerWarning)
                sim.run_process(ab)
        message = str(excinfo.value)
        assert "wait-for graph" in message
        assert "'ab' waits on Request on lock_b (queued)" in message
        assert "'ba' waits on Request on lock_a (queued)" in message
        assert log == []

    def test_debug_off_keeps_the_short_message(self):
        sim = Simulator(debug=False)
        proc = sim.process(wait_on(sim.event()), name="stuck")
        with pytest.raises(SimulationError, match="deadlock"):
            sim.run_process(proc)
        with pytest.raises(SimulationError) as excinfo:
            sim2 = Simulator(debug=False)
            p2 = sim2.process(wait_on(sim2.event()), name="stuck2")
            sim2.run_process(p2)
        assert "wait-for graph" not in str(excinfo.value)


# ---------------------------------------------------------------------------
# debug=False — production mode is untouched
# ---------------------------------------------------------------------------

class TestZeroOverheadWhenOff:
    def test_no_sanitizer_object_exists(self):
        sim = Simulator(debug=False)
        assert sim._sanitizer is None
        assert sim.debug is False

    def test_requests_carry_no_owner(self):
        sim = Simulator(debug=False)
        pool = Resource(sim, 1, name="cores")
        req = pool.request()
        assert req.owner is None
        pool.release(req)

    def test_buggy_run_emits_no_warnings(self):
        sim = Simulator(debug=False)
        mutex = Mutex(sim, name="log-lock")

        def holder():
            token = mutex.acquire()
            yield token
            raise RuntimeError("boom")

        proc = sim.process(holder(), name="writer")

        def watcher():
            try:
                yield proc
            except RuntimeError:
                pass

        sim.process(watcher(), name="watcher")
        sim.process(wait_on(sim.event()), name="frozen")
        with warnings.catch_warnings():
            warnings.simplefilter("error", SanitizerWarning)
            sim.run()

    def test_debug_true_perturbs_nothing(self):
        """Sanitizers observe; they never change the schedule."""

        def trace(debug):
            sim = Simulator(debug=debug)
            mutex = Mutex(sim, name="m")
            order = []

            def worker(tag, delay):
                token = mutex.acquire()
                try:
                    yield token
                    yield sim.timeout(delay)
                    order.append((tag, sim.now))
                finally:
                    mutex.release(token)

            for i in range(4):
                sim.process(worker(f"w{i}", 0.25 * (i + 1)), name=f"w{i}")
            sim.run()
            return order

        assert trace(False) == trace(True)


def test_process_events_support_weakref():
    # The sanitizer's containers are weak; Process/Event must support it.
    import weakref

    sim = Simulator(debug=True)
    proc = sim.process(wait_on(sim.timeout(0.1)), name="p")
    assert isinstance(proc, Process)
    ref = weakref.ref(proc)
    assert ref() is proc
    sim.run()
