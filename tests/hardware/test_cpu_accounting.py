"""Property test: the CPU's running busy load integrates, bit for bit,
to what recomputing the load from its thread counters at every change
gives.

The reference keeps the three counters the load is made of (awake
pinned pollers, executing threads, spinning threads), recomputes
``min(float(cores), load)`` after each instant that changed one, and
accrues ``busy * (t - last)`` from one such instant to the next — a
spin lease that ran out changes ``spinning`` at its own end time.
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.hardware.cpu import Cpu
from repro.sim import Simulator
from repro.sim.kernel import Event

CORES = 3
# Steps of 0.0 put several changes at one instant; the others make
# sums that round.
DT = st.sampled_from([0.0, 0.0, 1e-6, 0.1, 0.25, 1 / 3, 0.7])
OP = st.one_of(
    st.tuples(st.sampled_from(["execute", "lease"]), DT),
    st.tuples(st.just("lease_end"), st.integers(0, 7)),
    st.tuples(st.sampled_from(["spin_begin", "spin_end", "pin", "unpin",
                               "park", "unpark", "idle", "busy"]),
              st.none()),
)


class Reference:
    """Busy core-seconds from the counters, change instant by instant."""

    def __init__(self, cores: int):
        self.cores = cores
        self.changes = []  # (time, counter, delta), as they happened
        self.leases = []  # end times of the leases not yet ended
        self.ran_out = []  # (end, "spinning", -1) of leases ended late

    def change(self, now: float, counter: str, delta: int) -> None:
        self.changes.append((now, counter, delta))

    def at(self, now: float):
        """``(busy_core_seconds, busy_cores)`` at ``now``."""
        changes = sorted(
            self.changes + self.ran_out
            + [(end, "spinning", -1) for end in self.leases if end <= now],
            key=lambda change: change[0])
        counters = {"awake": 0, "active": 0, "spinning": 0}
        total, last, busy = 0.0, 0.0, 0.0
        i = 0
        while i < len(changes):
            instant = changes[i][0]
            while i < len(changes) and changes[i][0] == instant:
                counters[changes[i][1]] += changes[i][2]
                i += 1
            total += busy * (instant - last)
            last = instant
            load = (counters["awake"] + counters["active"]
                    + counters["spinning"])
            busy = min(float(self.cores), load)
        return total + busy * (now - last), busy


def _work(cpu: Cpu, ref: Reference, seconds: float):
    """``yield from cpu.execute(seconds)``, driven by hand to note when
    the work takes its core (at once, or when its queued wait fires)."""
    sim = cpu.sim
    gen = cpu.execute(seconds)
    target = next(gen)
    if isinstance(target, Event):  # queued: the work's sleep comes next
        yield target
        target = gen.send(None)
    ref.change(sim.now, "active", 1)
    yield target
    ref.change(sim.now, "active", -1)
    try:
        gen.send(None)
    except StopIteration:
        pass


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.lists(st.tuples(DT, OP), max_size=40))
def test_busy_accounting_matches_the_counter_recompute(steps):
    sim = Simulator()
    cpu = Cpu(sim, cores=CORES, name="n0")
    ref = Reference(CORES)
    state = {"pinned": 0, "idle": 0, "spins": 0}

    def check():
        assert (cpu.busy_core_seconds(), cpu.busy_cores) == ref.at(sim.now)

    def apply(op, arg):
        now = sim.now
        if op == "execute":
            sim.process(_work(cpu, ref, arg))
        elif op == "lease":
            wait = cpu.spin_wait(sim.event(), arg)
            ref.change(now, "spinning", 1)
            ref.leases.append(wait.until)
        elif op == "lease_end" and ref.leases:
            until = ref.leases.pop(arg % len(ref.leases))
            cpu.spin_end(until)
            if until > now:
                ref.change(now, "spinning", -1)
            else:
                ref.ran_out.append((until, "spinning", -1))
        elif op == "spin_begin":
            cpu.spin_begin()
            state["spins"] += 1
            ref.change(now, "spinning", 1)
        elif op == "spin_end" and state["spins"]:
            cpu.spin_end()
            state["spins"] -= 1
            ref.change(now, "spinning", -1)
        elif op == "pin":
            try:
                cpu.pin_core()
            except ValueError:
                return  # no core to spare, or every one is running work
            state["pinned"] += 1
            ref.change(now, "awake", 1)
        elif op == "unpin" and state["pinned"]:
            awake = state["pinned"] - state["idle"]
            cpu.unpin_core()
            state["pinned"] -= 1
            state["idle"] = min(state["idle"], state["pinned"])
            # A change even when the net delta is 0 (an idle core).
            ref.change(now, "awake", state["pinned"] - state["idle"] - awake)
        elif op == "park":
            cpu.try_park_core()  # capacity only: no busy-time change
        elif op == "unpark" and cpu.parked_cores:
            cpu.unpark_core()
        elif op == "idle" and state["idle"] < state["pinned"]:
            cpu.pinned_core_idle()
            state["idle"] += 1
            ref.change(now, "awake", -1)
        elif op == "busy":
            cpu.pinned_core_busy()  # lenient: no change without an idle core
            if state["idle"]:
                state["idle"] -= 1
                ref.change(now, "awake", 1)

    def driver():
        for dt, (op, arg) in steps:
            yield sim.timeout(dt)
            apply(op, arg)
            check()

    sim.process(driver())
    sim.run()
    check()
    assert cpu.run_queue_length == 0
