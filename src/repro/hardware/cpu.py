"""The CPU model.

A :class:`Cpu` is a pool of cores with utilization accounting.  Two
behaviours matter for the reproduction:

* **Pinned cores** — RAMCloud's dispatch thread busy-polls the NIC and
  permanently occupies one core, which is why the paper measures 25 %
  CPU on an idle 4-core server (Table I, row 0).  :meth:`pin_core`
  removes a core from the schedulable pool and accounts it as 100 %
  busy forever.
* **Busy-time accounting** — :meth:`busy_core_seconds` integrates the
  busy core count over time.  It is the only source of CPU time: the
  PDU power model, Table I and every controller difference two of its
  snapshots to get a window's utilization.
* **Spin leases** — a busy-polling thread (:meth:`spin_begin`) counts
  as busy until :meth:`spin_end`, or, when it holds a *lease*, until
  the lease's absolute end time at the latest.  A worker's
  spin-then-sleep window is such a lease (:meth:`spin_wait`): nothing
  is scheduled for its end.  The CPU settles every lease that ran out
  before it next changes or reports its busy count, at the lease's own
  end time and with the arithmetic a ``spin_end()`` there would have
  done, so busy seconds and watts are exactly those of an explicit end.
  An awaited event that arrives first ends the lease early.

Two power-management extensions (opt-in, see docs/POWER.md):

* **DVFS** — :meth:`set_frequency` slows every subsequent
  :meth:`execute` by ``1/ratio`` (the X3440's single package-wide
  frequency domain).  Busy-time accounting runs in wall-clock seconds,
  so utilization rises at low frequency exactly as ``top`` would show.
* **Core parking / C-states** — :meth:`try_park_core` power-gates one
  idle core (the power model subtracts per-parked-core watts);
  :meth:`unpark_core` restores it.  The wake latency is charged by the
  *caller* (the worker that parked pays it before serving its next
  request), keeping the pool resize itself instantaneous and
  interrupt-safe.  :meth:`pinned_core_idle`/:meth:`pinned_core_busy`
  model a dispatch thread that blocks on interrupts instead of
  busy-polling: the core stays reserved (pinned) but stops counting as
  busy, which is what collapses the paper's 25 % idle-CPU floor.
"""

from __future__ import annotations

from bisect import insort
from typing import Generator, List

from repro.sim.kernel import Event, Simulator, Timeout
from repro.sim.resources import Resource

__all__ = ["Cpu", "SpinWait"]

_NEVER = float("inf")  # the end of an open-ended spin (no lease)


class SpinWait(Event):
    """The wait of a thread that busy-polls for ``event`` until
    ``until`` and then blocks on it (see :meth:`Cpu.spin_wait`).

    Triggers with ``event``'s outcome.  An outcome that arrives inside
    the window (``now < until``) fires the wait one zero-delay hop
    later.  Once the window has run out the thread is already blocked,
    and ``event`` resumes it in its own step.

    With ``wake``, a timer also fires the wait at ``until`` with value
    ``None`` — for a thread that acts when its window runs out empty
    (core parking, the adaptive dispatch poll) — and whichever of the
    event and the timer comes first fires the wait one hop later.
    """

    __slots__ = ("until", "_timer")

    def __init__(self, sim: Simulator, event: Event, seconds: float,
                 wake: bool = False):
        # Event.__init__ inlined: one of these per idle worker wait.
        self.sim = sim
        self.callbacks = []
        self._value = None
        self._ok = None
        if sim._sanitizer is not None:
            sim._sanitizer.event_created(self)
        # The same float a Timeout(seconds) created now would fire at.
        self.until = sim.now + seconds
        self._timer = None
        if wake:
            self._timer = Timeout(sim, seconds)
            self._timer.callbacks.append(self._on_timer)
        event.add_callback(self._on_event)

    def _on_event(self, event: Event) -> None:
        if self._ok is not None:
            return  # the wake timer fired the wait first
        timer = self._timer
        if timer is not None:
            timer.cancel()
        elif self.sim.now >= self.until:
            # The window ran out first: resume the blocked waiters in
            # this step, as if they had been waiting on ``event``.
            self._ok = event._ok
            self._value = event._value
            callbacks, self.callbacks = self.callbacks, None
            for callback in callbacks:
                callback(self)
            return
        if event._ok:
            self.succeed(event._value)
        else:
            self.fail(event._value)

    def _on_timer(self, _timer: Event) -> None:
        if self._ok is None:
            self.succeed(None)


class Cpu:
    """A multi-core CPU shared by all threads of a simulated machine."""

    __slots__ = ("sim", "cores", "name", "_pinned", "_pinned_idle",
                 "_active", "_spinning", "_parked", "_freq_ratio",
                 "_pool", "_load", "_busy", "_busy_time", "_last_change",
                 "_leases", "_lease_end")

    def __init__(self, sim: Simulator, cores: int, name: str = ""):
        if cores < 1:
            raise ValueError(f"cores must be >= 1, got {cores}")
        self.sim = sim
        self.cores = cores
        self.name = name
        self._pinned = 0
        self._pinned_idle = 0  # pinned cores whose poller is blocked
        self._active = 0  # cores executing real work
        self._spinning = 0  # threads busy-polling while they wait
        self._parked = 0  # cores power-gated in a deep C-state
        self._freq_ratio = 1.0  # package DVFS ratio (1.0 = nominal)
        self._pool = Resource(sim, cores, name=f"{name}:cores")
        self._load = 0  # uncapped busy thread count since _last_change
        self._busy = 0.0  # busy core count since _last_change
        self._busy_time = 0.0  # core-seconds accrued up to _last_change
        self._last_change = sim.now
        # End times of the running spin leases, soonest first, and the
        # soonest of them (_NEVER when there is none).
        self._leases: List[float] = []
        self._lease_end = _NEVER

    def _update_busy(self) -> None:
        """Utilization = awake pinned pollers + executing work +
        spin-waiting threads, capped at the core count (a spinning
        thread yields the instant real work needs the core, so spins
        never add latency — they only burn watts, which is exactly what
        the paper's CPU and power figures observe).  A pinned core whose
        poller is blocked (adaptive dispatch asleep) stays reserved but
        counts as idle.  Called right after a counter changed; leases
        that ran out settle first, then busy time accrues at the old
        level."""
        now = self.sim.now
        if now >= self._lease_end:
            self._expire_leases(now)
        load = ((self._pinned - self._pinned_idle)
                + self._active + self._spinning)
        busy = min(float(self.cores), load)
        if busy < 0:
            raise ValueError(f"{self.name!r}: busy core count {busy} < 0")
        self._busy_time += self._busy * (now - self._last_change)
        self._last_change = now
        self._load = load
        self._busy = busy

    def _expire_leases(self, now: float) -> None:
        """End every spin lease that ran out by ``now`` at its own end
        time, with the arithmetic :meth:`spin_end` would have done
        there.  Works from the level in force since the last change
        (``_load``), so a counter changed just before this call is not
        yet counted."""
        leases = self._leases
        cores = float(self.cores)
        while leases and leases[0] <= now:
            end = leases.pop(0)
            self._spinning -= 1
            self._load -= 1
            self._busy_time += self._busy * (end - self._last_change)
            self._last_change = end
            self._busy = min(cores, self._load)
        self._lease_end = leases[0] if leases else _NEVER

    @property
    def schedulable_cores(self) -> int:
        """Cores available to workers (total minus pinned)."""
        return self.cores - self._pinned

    @property
    def parked_cores(self) -> int:
        """Cores currently power-gated (deep C-state)."""
        return self._parked

    @property
    def frequency_ratio(self) -> float:
        """Current package frequency as a fraction of nominal."""
        return self._freq_ratio

    @property
    def busy_cores(self) -> float:
        """Currently-busy core count (pinned + executing + spinning)."""
        now = self.sim.now
        if now >= self._lease_end:
            self._expire_leases(now)
        return self._busy

    @property
    def run_queue_length(self) -> int:
        """Threads runnable but not on a core."""
        return self._pool.queue_length

    def pin_core(self) -> None:
        """Permanently dedicate one core to a busy-polling thread.

        The core is accounted 100 % busy from now on (that is what
        ``top`` reports for RAMCloud's dispatch thread) and is no longer
        available to workers.
        """
        if self._pinned + self._parked >= self.cores - 1:
            raise ValueError(
                f"cannot pin {self._pinned + 1} of {self.cores} cores: "
                "at least one schedulable core must remain"
            )
        # Pinning must happen before workers pile in — which matches
        # reality: the dispatch thread is pinned at server start-up.
        if self._pool.count > self.cores - self._pinned - self._parked - 1:
            raise ValueError("pin_core() after workers already saturated the pool")
        self._pinned += 1
        self._pool.resize(self.cores - self._pinned - self._parked)
        self._update_busy()

    def unpin_core(self) -> None:
        """Release a pinned core (the dispatch thread exited, e.g. the
        RAMCloud process on this machine was killed)."""
        if self._pinned < 1:
            raise ValueError("no pinned cores to release")
        self._pinned -= 1
        # An unpinned core cannot stay in the blocked-poller state.
        self._pinned_idle = min(self._pinned_idle, self._pinned)
        self._update_busy()
        self._pool.resize(self.cores - self._pinned - self._parked)

    # -- power-management knobs (docs/POWER.md) ------------------------

    def pinned_core_idle(self) -> None:
        """A pinned poller blocked on interrupts: its core stays
        reserved but stops accruing busy time (adaptive dispatch going
        to sleep after its empty-poll threshold)."""
        if self._pinned_idle >= self._pinned:
            raise ValueError("no awake pinned core to idle")
        self._pinned_idle += 1
        self._update_busy()

    def pinned_core_busy(self) -> None:
        """The blocked poller woke up; its core is 100 % busy again.
        Lenient when no pinned core is idle (the unpin in ``kill()``
        may already have cleared the state before the sleeping dispatch
        thread's interrupt handler runs)."""
        if self._pinned_idle > 0:
            self._pinned_idle -= 1
            self._update_busy()

    def set_frequency(self, ratio: float) -> None:
        """Set the package DVFS ratio (1.0 = nominal frequency).

        Subsequent :meth:`execute` calls take ``seconds / ratio`` wall
        time; work already on a core finishes at the old speed (the
        granularity of a P-state transition is far below our cost
        quanta).  Busy-time integrates wall seconds, so utilization
        rises at low frequency — the power model compensates through
        :meth:`PowerSpec.watts`'s ``freq_ratio`` term.
        """
        if not 0.0 < ratio <= 1.5:
            raise ValueError(f"frequency ratio {ratio} outside (0, 1.5]")
        self._freq_ratio = ratio

    def try_park_core(self) -> bool:
        """Power-gate one schedulable core if the invariants allow it:
        at least one unparked schedulable core must always remain, and
        parking never strands a thread already running on a core.
        Returns True if a core was parked.

        The wake side (:meth:`unpark_core`) restores capacity
        immediately; the *caller* models the C-state exit by charging
        its wake latency before using the core again.
        """
        unparked = self.cores - self._pinned - self._parked
        if unparked <= 1:
            return False
        if self._pool.count > unparked - 1:
            return False  # every unparked core is running a thread
        self._parked += 1
        self._pool.resize(self.cores - self._pinned - self._parked)
        return True

    def unpark_core(self) -> None:
        """Bring one parked core back online (capacity is restored
        immediately; the caller pays the C-state exit latency)."""
        if self._parked < 1:
            raise ValueError("no parked cores to wake")
        self._parked -= 1
        self._pool.resize(self.cores - self._pinned - self._parked)

    def execute(self, seconds: float) -> Generator:
        """Run ``seconds`` of work on some core; queues if all are busy.

        Use as ``yield from cpu.execute(t)`` inside a process.  A free
        core is claimed synchronously, so the work is one timer event.
        Safe against interrupts at any point (the core is released / the
        queue entry withdrawn).
        """
        if seconds < 0:
            raise ValueError(f"negative execution time: {seconds}")
        if self.schedulable_cores < 1:
            raise RuntimeError(f"{self.name}: no schedulable cores remain")
        pool = self._pool
        req = pool.claim()
        if req is None:
            req = pool.request()
            try:
                yield req
            except BaseException:
                if req.triggered and req.ok:
                    pool.release(req)
                else:
                    pool.cancel(req)
                raise
        self._active += 1
        self._update_busy()
        try:
            # DVFS: the same work takes 1/ratio longer at reduced
            # frequency (ratio 1.0 divides out bit-exactly).
            yield self.sim.timeout(seconds / self._freq_ratio)
        finally:
            self._active -= 1
            self._update_busy()
            pool.release(req)

    def spin_begin(self, until: float = _NEVER) -> None:
        """Account one more busy-polling thread (see :meth:`spinning`),
        until :meth:`spin_end` — or, for a *lease*, until the absolute
        time ``until`` at the latest, with nothing scheduled for it.

        The ``spin_begin()/try: yield ...: finally: spin_end()`` pair is
        the flattened form of ``yield from cpu.spinning(...)`` for
        waits on a *single event*: it burns no wrapper generator frame
        on each resume.  Use :meth:`spinning` when the wrapped wait is
        itself a multi-step generator (an RPC call pipeline).
        """
        self._spinning += 1
        self._update_busy()
        if until != _NEVER:
            insort(self._leases, until)
            self._lease_end = self._leases[0]

    def spin_end(self, until: float = _NEVER) -> None:
        """End one :meth:`spin_begin` interval; pass the same ``until``.
        A no-op for a lease that already ran out: it ended at its own
        end time."""
        if until <= self.sim.now:
            return
        if until != _NEVER:
            leases = self._leases
            leases.remove(until)
            self._lease_end = leases[0] if leases else _NEVER
        # Each += / -= is atomic within its step; the gauge is *meant*
        # to span the caller's yield (that is the spin interval).
        self._spinning -= 1  # simlint: disable=SIM006 gauge
        self._update_busy()

    def spin_wait(self, event: Event, seconds: float,
                  wake: bool = False) -> SpinWait:
        """Busy-poll for ``event`` for at most ``seconds``, then block on
        it: ``value = yield wait`` with ``wait = cpu.spin_wait(...)``
        and ``cpu.spin_end(wait.until)`` in a ``finally``.

        The window is a spin lease, so a window that runs out empty
        costs no event; ``wake`` adds a timer that fires the wait at
        the window's end instead (see :class:`SpinWait`).
        """
        wait = SpinWait(self.sim, event, seconds, wake)
        self.spin_begin(wait.until)
        return wait

    def spinning(self, inner: Generator) -> Generator:
        """Run ``inner`` (usually an RPC wait) while this thread
        busy-polls: ``result = yield from cpu.spinning(call)``.

        RAMCloud threads spin rather than sleep while waiting for
        replies — during crash recovery this is what drives whole
        machines to >90 % CPU (paper Fig. 9a) even though much of it is
        polling, not useful work.  Spinning is accounting-only: it burns
        utilization (and therefore watts) but never delays real work.
        """
        self.spin_begin()
        try:
            result = yield from inner
        finally:
            self.spin_end()
        return result

    def execute_sliced(self, seconds: float, slice_seconds: float = 2e-3
                       ) -> Generator:
        """Run ``seconds`` of work as preemptible time slices.

        Long CPU bursts (recovery replay, cleaning) release the core
        between slices so short requests interleave — the OS scheduler's
        behaviour that keeps RAMCloud servicing reads (at degraded
        latency) during crash recovery (paper Fig. 10).
        """
        if slice_seconds <= 0:
            raise ValueError("slice must be positive")
        remaining = seconds
        while remaining > 0:
            chunk = min(remaining, slice_seconds)
            yield from self.execute(chunk)
            remaining -= chunk

    # -- measurement helpers -------------------------------------------

    def busy_core_seconds(self) -> float:
        """Cumulative busy core-seconds (pinned pollers, executing work
        and spinning threads).  Utilization over a window is
        ``100 * (b1 - b0) / ((t1 - t0) * cores)`` for two snapshots
        ``(t0, b0)`` and ``(t1, b1)``."""
        now = self.sim.now
        if now >= self._lease_end:
            self._expire_leases(now)
        return self._busy_time + self._busy * (now - self._last_change)
