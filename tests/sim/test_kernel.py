"""Unit tests for the discrete-event kernel."""

import inspect
import random

import pytest

from repro.sim import (
    AllOf,
    Event,
    Interrupt,
    SimulationError,
    Simulator,
)


def test_timeout_advances_time():
    sim = Simulator()
    done = []

    def proc():
        yield sim.timeout(1.5)
        done.append(sim.now)
        yield sim.timeout(0.5)
        done.append(sim.now)

    sim.process(proc())
    sim.run()
    assert done == [1.5, 2.0]
    assert sim.now == 2.0


def test_timeout_value_passthrough():
    sim = Simulator()
    got = []

    def proc():
        value = yield sim.timeout(1.0, value="tick")
        got.append(value)

    sim.process(proc())
    sim.run()
    assert got == ["tick"]


def test_negative_timeout_rejected():
    sim = Simulator()
    with pytest.raises(ValueError):
        sim.timeout(-1.0)


def test_events_fire_in_time_order():
    sim = Simulator()
    order = []

    def waiter(delay, tag):
        yield sim.timeout(delay)
        order.append(tag)

    sim.process(waiter(3.0, "c"))
    sim.process(waiter(1.0, "a"))
    sim.process(waiter(2.0, "b"))
    sim.run()
    assert order == ["a", "b", "c"]


def test_same_time_events_fire_in_schedule_order():
    sim = Simulator()
    order = []

    def waiter(tag):
        yield sim.timeout(1.0)
        order.append(tag)

    for tag in ("first", "second", "third"):
        sim.process(waiter(tag))
    sim.run()
    assert order == ["first", "second", "third"]


def test_event_succeed_wakes_waiter():
    sim = Simulator()
    gate = sim.event()
    got = []

    def waiter():
        value = yield gate
        got.append((sim.now, value))

    def opener():
        yield sim.timeout(2.0)
        gate.succeed("open")

    sim.process(waiter())
    sim.process(opener())
    sim.run()
    assert got == [(2.0, "open")]


def test_event_fail_raises_in_waiter():
    sim = Simulator()
    gate = sim.event()
    caught = []

    def waiter():
        try:
            yield gate
        except RuntimeError as exc:
            caught.append(str(exc))

    def failer():
        yield sim.timeout(1.0)
        gate.fail(RuntimeError("boom"))

    sim.process(waiter())
    sim.process(failer())
    sim.run()
    assert caught == ["boom"]


def test_double_trigger_rejected():
    sim = Simulator()
    ev = sim.event()
    ev.succeed(1)
    with pytest.raises(SimulationError):
        ev.succeed(2)
    with pytest.raises(SimulationError):
        ev.fail(RuntimeError("late"))


def test_late_waiter_on_processed_event_resumes_immediately():
    sim = Simulator()
    gate = sim.event()
    got = []

    def opener():
        yield sim.timeout(1.0)
        gate.succeed("open")

    def late_waiter():
        yield sim.timeout(5.0)
        value = yield gate
        got.append((sim.now, value))

    sim.process(opener())
    sim.process(late_waiter())
    sim.run()
    assert got == [(5.0, "open")]


def test_process_return_value_visible_to_parent():
    sim = Simulator()
    results = []

    def child():
        yield sim.timeout(1.0)
        return 42

    def parent():
        value = yield sim.process(child())
        results.append(value)

    sim.process(parent())
    sim.run()
    assert results == [42]


def test_unwatched_process_exception_propagates_from_run():
    sim = Simulator()

    def bad():
        yield sim.timeout(1.0)
        raise ValueError("bug in model")

    sim.process(bad())
    with pytest.raises(ValueError, match="bug in model"):
        sim.run()


def test_watched_process_exception_delivered_to_watcher():
    sim = Simulator()
    caught = []

    def bad():
        yield sim.timeout(1.0)
        raise ValueError("expected")

    def watcher():
        try:
            yield sim.process(bad())
        except ValueError as exc:
            caught.append(str(exc))

    sim.process(watcher())
    sim.run()
    assert caught == ["expected"]


def test_yielding_non_event_is_an_error():
    sim = Simulator()

    def bad():
        yield 3.0  # not an Event

    sim.process(bad())
    with pytest.raises(SimulationError, match="expected an Event"):
        sim.run()


def test_all_of_waits_for_every_event():
    sim = Simulator()
    done = []

    def proc():
        t1 = sim.timeout(1.0, value="a")
        t2 = sim.timeout(3.0, value="b")
        result = yield sim.all_of([t1, t2])
        done.append((sim.now, result[t1], result[t2]))

    sim.process(proc())
    sim.run()
    assert done == [(3.0, "a", "b")]


def test_all_of_empty_succeeds_immediately():
    sim = Simulator()
    done = []

    def proc():
        yield sim.all_of([])
        done.append(sim.now)

    sim.process(proc())
    sim.run()
    assert done == [0.0]


def test_all_of_fails_fast_on_child_failure():
    sim = Simulator()
    caught = []
    gate = sim.event()

    def failer():
        yield sim.timeout(1.0)
        gate.fail(RuntimeError("backup died"))

    def proc():
        slow = sim.timeout(10.0)
        try:
            yield sim.all_of([gate, slow])
        except RuntimeError:
            caught.append(sim.now)

    sim.process(failer())
    sim.process(proc())
    sim.run()
    assert caught == [1.0]


def test_interrupt_thrown_into_process():
    sim = Simulator()
    log = []

    def sleeper():
        try:
            yield sim.timeout(100.0)
        except Interrupt as intr:
            log.append((sim.now, intr.cause))

    proc = sim.process(sleeper())

    def killer():
        yield sim.timeout(3.0)
        proc.interrupt("crash")

    sim.process(killer())
    sim.run()
    assert log == [(3.0, "crash")]


def test_unhandled_interrupt_terminates_process_cleanly():
    sim = Simulator()

    def sleeper():
        yield sim.timeout(100.0)

    proc = sim.process(sleeper())

    def killer():
        yield sim.timeout(1.0)
        proc.interrupt()

    sim.process(killer())
    sim.run(until=2.0)
    # The process died at the interrupt (t=1), long before its 100 s sleep.
    assert not proc.is_alive
    assert proc.triggered


def test_interrupting_dead_process_is_noop():
    sim = Simulator()

    def quick():
        yield sim.timeout(1.0)

    proc = sim.process(quick())
    sim.run()
    proc.interrupt("too late")  # must not raise
    sim.run()
    assert not proc.is_alive


def test_stale_event_after_interrupt_does_not_double_resume():
    sim = Simulator()
    resumed = []

    def sleeper():
        try:
            yield sim.timeout(10.0)
            resumed.append("timeout")
        except Interrupt:
            resumed.append("interrupt")
        # Wait on something else; the stale 10s timeout must not wake us.
        yield sim.timeout(100.0)
        resumed.append("second")

    proc = sim.process(sleeper())

    def killer():
        yield sim.timeout(1.0)
        proc.interrupt()

    sim.process(killer())
    sim.run()
    assert resumed == ["interrupt", "second"]


def test_run_until_advances_clock_even_without_events():
    sim = Simulator()
    sim.run(until=5.0)
    assert sim.now == 5.0
    with pytest.raises(ValueError):
        sim.run(until=1.0)


def test_run_until_excludes_later_events():
    sim = Simulator()
    fired = []

    def proc():
        yield sim.timeout(10.0)
        fired.append(sim.now)

    sim.process(proc())
    sim.run(until=5.0)
    assert fired == []
    sim.run(until=20.0)
    assert fired == [10.0]


def test_run_process_returns_value():
    sim = Simulator()

    def child():
        yield sim.timeout(2.0)
        return "done"

    proc = sim.process(child())
    assert sim.run_process(proc) == "done"


def test_run_process_raises_on_failure():
    sim = Simulator()

    def child():
        yield sim.timeout(1.0)
        raise KeyError("missing")

    def watcher(p):
        yield p  # keep it watched so run() does not crash first

    proc = sim.process(child())
    # run_process registers interest implicitly by stepping; the process
    # fails and run_process re-raises.
    with pytest.raises(KeyError):
        sim.run_process(proc)


def test_run_process_detects_deadlock():
    sim = Simulator()
    gate = sim.event()  # never triggered

    def stuck():
        yield gate

    proc = sim.process(stuck())
    with pytest.raises(SimulationError, match="deadlock"):
        sim.run_process(proc)


def test_run_process_accepts_any_event():
    sim = Simulator()

    def child(delay):
        yield sim.timeout(delay)
        return delay

    both = sim.all_of([sim.process(child(1.0)), sim.process(child(2.0))])
    assert sim.run_process(both).values() == [1.0, 2.0]
    assert sim.now == 2.0


def test_run_process_raises_a_failed_condition():
    sim = Simulator()

    def child():
        yield sim.timeout(1.0)
        raise KeyError("client died")

    def survivor():
        yield sim.timeout(5.0)

    both = sim.all_of([sim.process(child()), sim.process(survivor())])
    with pytest.raises(KeyError, match="client died"):
        sim.run_process(both)


def test_step_on_empty_schedule_rejected():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.step()


def test_peek_reports_next_event_time():
    sim = Simulator()
    assert sim.peek() == float("inf")
    sim.timeout(4.0)
    assert sim.peek() == 4.0


def test_nested_processes_compose():
    sim = Simulator()
    trace = []

    def leaf(tag, delay):
        yield sim.timeout(delay)
        trace.append(tag)
        return delay

    def mid():
        a = yield sim.process(leaf("a", 1.0))
        b = yield sim.process(leaf("b", 2.0))
        return a + b

    def root():
        total = yield sim.process(mid())
        trace.append(total)

    sim.process(root())
    sim.run()
    assert trace == ["a", "b", 3.0]
    assert sim.now == 3.0


# -- cancellable timeouts ---------------------------------------------------


def test_cancelled_timeout_never_fires_and_does_not_advance_time():
    sim = Simulator()
    fired = []
    deadline = sim.timeout(5.0)
    deadline.add_callback(fired.append)
    sim.timeout(1.0)
    deadline.cancel()
    sim.run()
    assert fired == []
    assert sim.now == 1.0


def test_cancel_after_firing_is_a_noop():
    sim = Simulator()
    fired = []
    deadline = sim.timeout(1.0)
    deadline.add_callback(fired.append)
    sim.run()
    deadline.cancel()
    deadline.cancel()
    sim.timeout(2.0)
    sim.run()
    assert fired == [deadline]
    assert sim.now == 3.0


def _random_schedule(cancel):
    """Pop order of a seeded schedule with many same-instant ties.

    With ``cancel``, half the timers are withdrawn — most up front, the
    rest one per step while the schedule drains — and the number of
    heap rebuilds is counted.
    """
    rng = random.Random(20170605)
    sim = Simulator()
    fired = []
    timers = []
    for i in range(600):
        timer = sim.timeout(rng.randint(0, 40) * 0.125, value=i)
        timer.add_callback(lambda ev: fired.append((ev.value, sim.now)))
        timers.append(timer)
    doomed = [timers[i] for i in rng.sample(range(600), 300)]
    rebuilds = 0

    def withdraw(timer):
        nonlocal rebuilds
        before = len(sim._heap)
        timer.cancel()
        rebuilds += len(sim._heap) < before

    if cancel:
        for timer in doomed[:250]:
            withdraw(timer)
    pending = doomed[250:]
    while sim.peek() != float("inf"):
        sim.step()
        if cancel and pending:
            withdraw(pending.pop())
    return fired, rebuilds


def test_heap_rebuild_keeps_pop_order():
    reference, _ = _random_schedule(cancel=False)
    survivors, rebuilds = _random_schedule(cancel=True)
    kept = {i for i, _t in survivors}
    assert rebuilds >= 1
    assert 300 <= len(kept) < 600
    assert survivors == [entry for entry in reference if entry[0] in kept]


# -- events that fire at an absolute time -----------------------------------


def test_timeout_at_fires_at_exactly_when():
    # At now = 0.3, a relative delay of 0.9 - 0.3 lands on
    # 0.9000000000000001; the absolute time lands on 0.9.
    sim = Simulator()
    seen = []

    def body():
        yield sim.timeout(0.3)
        assert sim.now + (0.9 - sim.now) != 0.9
        value = yield sim.timeout_at(0.9, "v")
        seen.append((value, sim.now))

    sim.process(body())
    sim.run()
    assert seen == [("v", 0.9)]


def test_timeout_at_is_one_event():
    sim = Simulator()
    before = sim._seq
    sim.timeout_at(2.0)
    assert sim._seq - before == 1
    sim.run()
    assert sim.now == 2.0


def test_succeed_at_triggers_now_and_fires_later():
    sim = Simulator()
    event = sim.event()
    fired = []
    event.add_callback(lambda ev: fired.append(sim.now))
    event.succeed_at(3.0, "late")
    assert event.triggered and not event.processed
    assert event.value == "late"
    with pytest.raises(SimulationError):
        event.fail(RuntimeError("too late"))
    sim.run()
    assert fired == [3.0]


def test_succeed_at_rejects_the_past():
    sim = Simulator()
    sim.timeout(1.0)
    sim.run()
    with pytest.raises(ValueError, match="in the past"):
        sim.event().succeed_at(0.5)


def test_active_process_names_the_running_process():
    sim = Simulator()
    seen = []

    def body():
        seen.append(sim.active_process)
        yield sim.timeout(1.0)
        seen.append(sim.active_process)

    proc = sim.process(body())
    tick = sim.timeout(0.5)
    tick.add_callback(lambda _ev: seen.append(sim.active_process))
    assert sim.active_process is None
    sim.run()
    assert seen == [proc, None, proc]
    assert sim.active_process is None


def _parked(sim, name, delay, log):
    """A process body that waits ``delay`` seconds inside a try/finally
    whose cleanup logs ``name``."""
    try:
        yield sim.timeout(delay)
    finally:
        log.append(name)


def test_close_runs_cleanup_of_suspended_processes_in_spawn_order():
    sim = Simulator()
    log = []
    # Spawned in this order; they would wake in the reverse one.
    gens = [_parked(sim, name, delay, log)
            for name, delay in (("first", 30.0), ("second", 20.0),
                                ("third", 10.0))]
    for gen in gens:
        sim.process(gen)
    sim.run(until=1.0)
    assert log == []
    sim.close()
    assert log == ["first", "second", "third"]
    assert all(inspect.getgeneratorstate(g) == inspect.GEN_CLOSED
               for g in gens)


def test_close_closes_a_process_that_never_started():
    sim = Simulator()
    log = []
    gen = _parked(sim, "unstarted", 1.0, log)
    sim.process(gen)
    sim.close()
    # Its body never ran, so there was no cleanup to run either.
    assert log == []
    assert inspect.getgeneratorstate(gen) == inspect.GEN_CLOSED


def test_close_is_idempotent():
    sim = Simulator()
    log = []
    sim.process(_parked(sim, "once", 5.0, log))
    sim.run(until=1.0)
    sim.close()
    sim.close()
    assert log == ["once"]


def test_finished_processes_are_forgotten():
    sim = Simulator()
    log = []
    short = sim.process(_parked(sim, "short", 1.0, log))
    long = sim.process(_parked(sim, "long", 9.0, log))

    def failing():
        yield sim.timeout(0.5)
        raise KeyError("watched")

    failed = sim.process(failing())
    failed.add_callback(lambda _ev: None)  # watched: the error stays put
    interrupted = sim.process(_parked(sim, "interrupted", 9.0, log))
    sim.timeout(0.5).add_callback(lambda _ev: interrupted.interrupt())
    assert list(sim._live) == [short, long, failed, interrupted]
    sim.run(until=2.0)
    assert list(sim._live) == [long]
    sim.close()
    assert log == ["interrupted", "short", "long"]
    assert not sim._live


def test_close_leaves_clock_count_and_schedule_unchanged():
    sim = Simulator()
    pending = sim.event()
    lock_handoff = sim.event()

    def holder():
        try:
            yield pending
        finally:
            # Cleanup that schedules: a hand-off, a fresh timer and the
            # cancellation of a timer still in the schedule.
            lock_handoff.succeed()
            sim.timeout(1.0)
            deadline.cancel()

    deadline = sim.timeout(50.0)
    sim.process(holder())
    sim.timeout(40.0)
    sim.run(until=3.0)
    before = (sim.now, sim._seq, list(sim._heap), sim._cancelled)
    sim.close()
    assert (sim.now, sim._seq, list(sim._heap), sim._cancelled) == before
    assert lock_handoff.triggered


# -- one event loop behind step, run and run_process ------------------------


class _Boom(Exception):
    pass


def _mixed_schedule():
    """A simulator loaded with same-instant ties, cancelled timers, an
    interrupt, a failure a parent catches and two failures nobody
    watches; returns ``(sim, log, finale)``.  Every callback and process
    step logs ``(tag, now, seq)`` where ``seq`` is the kernel's event
    count at that moment."""
    sim = Simulator()
    log = []

    def note(tag):
        log.append((tag, sim.now, sim._seq))

    def sleeper(tag, delays):
        try:
            for delay in delays:
                value = yield sim.timeout(delay, value=delay)
                note((tag, value))
        except Interrupt as interrupt:
            note((tag, "interrupted", interrupt.cause))
            yield sim.timeout(0.25)
            note((tag, "after interrupt"))

    def failing(tag, delay, exc):
        yield sim.timeout(delay)
        note((tag, "raising"))
        raise exc

    def parent():
        child = sim.process(failing("child", 0.5, ValueError("caught")))
        try:
            yield child
        except ValueError as error:
            note(("parent", "caught", str(error)))
        yield sim.timeout(0.5)
        note(("parent", "done"))

    victim = sim.process(sleeper("victim", [1.0, 1.0, 1.0]))

    def interrupter():
        yield sim.timeout(1.5)
        victim.interrupt("stop")
        note(("interrupter", "sent"))

    for i in range(4):
        sim.process(sleeper(f"s{i}", [0.25 * (i % 2), 0.5, 0.25]))
    sim.process(interrupter())
    sim.process(parent())
    sim.process(failing("unwatched", 0.75, _Boom("first")))
    sim.process(failing("unwatched2", 1.75, _Boom("second")))
    timers = [sim.timeout(0.125 * k, value=k) for k in range(12)]
    for timer in timers:
        timer.add_callback(lambda ev: note(("timer", ev.value)))
    for timer in timers[::3]:
        timer.cancel()
    late = sim.timeout(2.0)
    late.add_callback(lambda _ev: timers[-1].cancel())
    finale = sim.process(sleeper("finale", [3.0]))
    return sim, log, finale


def _drive(driver):
    sim, log, finale = _mixed_schedule()
    while True:
        try:
            if driver == "run":
                sim.run()
            elif driver == "run_until":
                for k in range(1, 17):
                    if sim.now < 0.25 * k:
                        sim.run(until=0.25 * k)
            elif driver == "run_process":
                sim.run_process(finale)
                sim.run()
            else:
                while sim.peek() != float("inf"):
                    sim.step()
            break
        except _Boom as boom:
            log.append(("surfaced", str(boom), sim.now, sim._seq))
    return log, sim._seq, sim._cancelled, sim._heap


@pytest.mark.parametrize("driver", ["run_until", "run_process", "step"])
def test_every_driver_pops_the_same_schedule(driver):
    reference = _drive("run")
    log, seq, cancelled, heap = _drive(driver)
    assert [entry[0] for entry in reference[0]].count(
        ("victim", "interrupted", "stop")) == 1
    assert ("parent", "caught", "caught") in [e[0] for e in reference[0]]
    assert [e[:2] for e in reference[0] if e[0] == "surfaced"] == [
        ("surfaced", "first"), ("surfaced", "second")]
    assert log == reference[0]
    assert (seq, cancelled, heap) == reference[1:] == (seq, 0, [])


def test_run_process_reports_an_unfinished_event_by_until():
    sim = Simulator()

    def slow():
        yield sim.timeout(5.0)

    proc = sim.process(slow(), name="slow")
    with pytest.raises(SimulationError,
                       match="'slow' did not finish by t=1.0"):
        sim.run_process(proc, until=1.0)
    # The entry beyond ``until`` stays scheduled: the run can go on.
    assert sim.now == 0.0 and sim.peek() == 5.0
    sim.run_process(proc)
    assert sim.now == 5.0


def test_step_skips_one_cancelled_timeout_without_advancing_time():
    sim = Simulator()
    fired = []
    doomed = sim.timeout(1.0)
    sim.timeout(2.0).add_callback(fired.append)
    sim.timeout(3.0)
    doomed.cancel()  # one of three: stays in the heap
    sim.step()
    assert (sim.now, fired, len(sim._heap)) == (0.0, [], 2)
    sim.step()
    assert sim.now == 2.0 and len(fired) == 1
