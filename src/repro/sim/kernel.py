"""The discrete-event simulation kernel.

Processes are Python generators that ``yield`` :class:`Event` objects.
When a yielded event triggers, the process resumes; if the event failed,
the failure's exception is thrown into the generator.  Simulated time is
a float in **seconds**.

Design notes
------------
* The scheduler is a binary heap of ``(time, seq, event)`` tuples.
  ``seq`` is a monotonically increasing tie-breaker, which makes the
  whole simulation deterministic: two events scheduled for the same
  instant fire in scheduling order.  Keys are unique, so the pop order
  does not depend on the heap's layout.
* Events are single-shot.  Once triggered they hold a value (or an
  exception) forever, and late waiters resume immediately.
* A :class:`Timeout` can be withdrawn with :meth:`Timeout.cancel` —
  the cheap form of a deadline that usually loses its race.  Its heap
  entry stays until popped, when the event loop skips it without
  advancing ``now``; once cancelled entries outnumber live
  ones, the heap is rebuilt without them.
* One loop, :meth:`Simulator._dispatch`, pops and dispatches for
  ``step``, ``run`` and ``run_process``, and a process's successful
  wakeup sends into its generator inside :meth:`Process._resume`: an
  event costs the loop's frame plus one per resumed process.
* :class:`Process` is itself an event that triggers when the generator
  returns (value = generator return value) or raises.  While a process
  runs, :attr:`Simulator.active_process` names it.
* A finished run still holds suspended generators: server threads
  parked on their queues, samplers between ticks.  Their frames sit in
  reference cycles through the simulator, and a suspended generator's
  finalizer closes it, so the cyclic collector needs more than one
  pass to free them.  :meth:`Simulator.close` closes them while the
  run is still reachable; one collection then frees it.
"""

from __future__ import annotations

import os
from heapq import heapify, heappop, heappush
from typing import (Any, Callable, Dict, Generator, Iterable, List, Optional,
                    Tuple)

__all__ = [
    "Event",
    "Timeout",
    "Process",
    "AllOf",
    "Interrupt",
    "Simulator",
    "SimulationError",
]


class SimulationError(Exception):
    """Raised for kernel misuse (double triggering, running without events)."""


class Interrupt(Exception):
    """Thrown into a process by :meth:`Process.interrupt`.

    The ``cause`` attribute carries whatever the interruptor passed in —
    in this reproduction a short string: ``"killed"`` when
    :meth:`~repro.ramcloud.server.RamCloudServer.kill` stops a crashed
    server's threads, ``"gave up"`` from a YCSB client's give-up
    deadline, or ``"... stopped"`` when a background loop is shut down.
    """

    def __init__(self, cause: Any = None):
        super().__init__(cause)
        self.cause = cause


class Event:
    """A single-shot occurrence in simulated time.

    An event is *triggered* when :meth:`succeed` or :meth:`fail` is
    called; its callbacks then run at the current simulation instant.
    """

    __slots__ = ("sim", "callbacks", "_value", "_ok", "__weakref__")

    def __init__(self, sim: "Simulator"):
        self.sim = sim
        self.callbacks: Optional[List[Callable[["Event"], None]]] = []
        self._value: Any = None
        self._ok: Optional[bool] = None
        if sim._sanitizer is not None:
            sim._sanitizer.event_created(self)

    @property
    def triggered(self) -> bool:
        """True once succeed() or fail() was called."""
        return self._ok is not None

    @property
    def processed(self) -> bool:
        """True once callbacks have run."""
        return self.callbacks is None

    @property
    def ok(self) -> bool:
        """True for a successful trigger; raises if still pending."""
        if self._ok is None:
            raise SimulationError("event has not been triggered yet")
        return self._ok

    @property
    def value(self) -> Any:
        """The success value or failure exception; raises if pending."""
        if self._ok is None:
            raise SimulationError("event has not been triggered yet")
        return self._value

    def succeed(self, value: Any = None) -> "Event":
        """Trigger successfully; waiters resume with ``value``."""
        if self._ok is not None:
            raise SimulationError(f"{self!r} already triggered")
        self._ok = True
        self._value = value
        # Pushed straight onto the heap at the current instant: this
        # runs once per event — the kernel's hottest line.
        sim = self.sim
        seq = sim._seq + 1
        sim._seq = seq
        heappush(sim._heap, (sim.now, seq, self))
        return self

    def succeed_at(self, when: float, value: Any = None) -> "Event":
        """Trigger successfully now; waiters resume at the absolute time
        ``when`` (``>= now``).

        The event is triggered at once — a second trigger raises, and a
        deadline that checks :attr:`triggered` sees the outcome as
        settled — but fires at ``when``.  This folds a zero-delay hop and
        the fixed timer its waiter would start into one event.  The time
        is absolute because ``now + (when - now)`` need not equal
        ``when`` in floats.
        """
        if self._ok is not None:
            raise SimulationError(f"{self!r} already triggered")
        sim = self.sim
        if when < sim.now:
            raise ValueError(f"succeed_at({when}) is in the past (now={sim.now})")
        self._ok = True
        self._value = value
        seq = sim._seq + 1
        sim._seq = seq
        heappush(sim._heap, (when, seq, self))
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Trigger with an error; ``exception`` is thrown into waiters."""
        if self._ok is not None:
            raise SimulationError(f"{self!r} already triggered")
        if not isinstance(exception, BaseException):
            raise TypeError("fail() requires an exception instance")
        self._ok = False
        self._value = exception
        sim = self.sim
        seq = sim._seq + 1
        sim._seq = seq
        heappush(sim._heap, (sim.now, seq, self))
        return self

    def add_callback(self, callback: Callable[["Event"], None]) -> None:
        """Register ``callback(event)``; runs immediately if already processed."""
        if self.callbacks is None:
            # Already processed: deliver on the spot, preserving "late
            # waiters resume immediately" semantics.
            callback(self)
        else:
            self.callbacks.append(callback)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "ok" if self._ok else ("failed" if self._ok is False else "pending")
        return f"<{type(self).__name__} {state} at t={self.sim.now:.6f}>"


class Timeout(Event):
    """An event that triggers ``delay`` seconds after creation.

    A timeout that should no longer fire — typically a deadline whose
    race the awaited event won — is withdrawn with :meth:`cancel`.
    """

    __slots__ = ("delay",)

    def __init__(self, sim: "Simulator", delay: float, value: Any = None):
        if delay < 0:
            raise ValueError(f"negative timeout delay: {delay}")
        # Event.__init__ and the heap push inlined: a timeout is born
        # triggered and scheduled, and this constructor runs for roughly
        # half of all events in a YCSB run.
        self.sim = sim
        self.callbacks = []
        self.delay = delay
        self._ok = True
        self._value = value
        seq = sim._seq + 1
        sim._seq = seq
        heappush(sim._heap, (sim.now + delay, seq, self))
        if sim._sanitizer is not None:
            sim._sanitizer.event_created(self)

    def cancel(self) -> None:
        """Withdraw the timeout: its callbacks never run and it does not
        advance ``now``.  A no-op once it has fired or been cancelled.

        A cancelled timeout counts as processed; nothing may wait on it.
        """
        if self.callbacks is None:
            return
        self.callbacks = None
        sim = self.sim
        sim._cancelled += 1
        heap = sim._heap
        if 2 * sim._cancelled > len(heap):
            # Cancelled entries outnumber live ones: rebuild in place.
            # A live entry always has a callback list (the event loop
            # sets it to None only when popping), and the (time, seq) keys are
            # unique, so the rebuilt heap pops in the same order.
            heap[:] = [entry for entry in heap
                       if entry[2].callbacks is not None]
            heapify(heap)
            sim._cancelled = 0


class _ConditionValue:
    """Mapping from the constituent events of a condition to their values."""

    __slots__ = ("events",)

    def __init__(self, events: Tuple[Event, ...]):
        self.events = events

    def __getitem__(self, event: Event) -> Any:
        if event not in self.events:
            raise KeyError(event)
        return event.value

    def __len__(self) -> int:
        return len(self.events)

    def values(self) -> List[Any]:
        """Values of the triggered constituent events, in order."""
        return [e.value for e in self.events if e.triggered]


class AllOf(Event):
    """Triggers when every constituent event has triggered.

    Fails as soon as any constituent fails (fail-fast), mirroring a
    master RPC fan-out where one backup error aborts the wait.
    """

    __slots__ = ("_events", "_pending")

    def __init__(self, sim: "Simulator", events: Iterable[Event]):
        super().__init__(sim)
        self._events = tuple(events)
        self._pending = len(self._events)
        if self._pending == 0:
            self.succeed(_ConditionValue(self._events))
            return
        for ev in self._events:
            ev.add_callback(self._on_child)

    def _on_child(self, ev: Event) -> None:
        if self._ok is not None:
            return
        if not ev._ok:
            self.fail(ev._value)
            return
        self._pending -= 1
        if self._pending == 0:
            self.succeed(_ConditionValue(self._events))


class Process(Event):
    """A generator-based simulated process.

    The process triggers (as an event) when its generator returns; the
    event value is the generator's return value.  If the generator
    raises, the process fails with that exception — unless nothing is
    watching, in which case the exception propagates out of
    :meth:`Simulator.run` so bugs never pass silently.
    """

    __slots__ = ("generator", "name", "_waiting_on", "_interrupts",
                 "_resume_cb")

    def __init__(self, sim: "Simulator", generator: Generator, name: str = ""):
        super().__init__(sim)
        self.generator = generator
        self.name = name or getattr(generator, "__name__", "process")
        self._waiting_on: Optional[Event] = None
        self._interrupts: List[Interrupt] = []
        # _resume bound once: every wait registers this same callback
        # instead of allocating a fresh bound method.
        self._resume_cb = self._resume
        if sim._sanitizer is not None:
            sim._sanitizer.register_process(self)
        sim._live[self] = None
        # Kick off at the current instant (an already-succeeded bootstrap
        # event carrying our _resume, built without the constructor and
        # succeed() detours).
        bootstrap = Event(sim)
        bootstrap._ok = True
        bootstrap.callbacks.append(self._resume_cb)
        seq = sim._seq + 1
        sim._seq = seq
        heappush(sim._heap, (sim.now, seq, bootstrap))

    @property
    def is_alive(self) -> bool:
        """True while the generator has not finished."""
        return self._ok is None

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at the current instant.

        Interrupting a dead process is a no-op, which makes crash
        injection idempotent.
        """
        if self._ok is not None:
            return
        self._interrupts.append(Interrupt(cause))
        wakeup = Event(self.sim)
        wakeup.succeed()
        wakeup.add_callback(self._deliver_interrupt)

    def _deliver_interrupt(self, _ev: Event) -> None:
        if self._ok is not None or not self._interrupts:
            return
        interrupt = self._interrupts.pop(0)
        # Detach from whatever we were waiting on; the stale event may
        # still fire later, _resume ignores it via the _waiting_on check.
        self._waiting_on = None
        self._step(interrupt)

    def _resume(self, event: Event) -> None:
        # The single hottest function in the kernel: one call per process
        # resumption.  It reads the slots behind is_alive / ok / value
        # directly and sends into the generator itself, so a successful
        # wakeup costs one frame; a failed event goes through _step.
        # Debug mode checks a process once, when it ends; the resume
        # path carries no sanitizer check.
        if self._ok is not None:
            return  # the process already finished
        waiting_on = self._waiting_on
        if waiting_on is not None and event is not waiting_on:
            return  # stale wakeup from an event we were detached from
        self._waiting_on = None
        if not event._ok:
            self._step(event._value)
            return
        sim = self.sim
        sim._active_process = self
        try:
            target = self.generator.send(event._value)
        except BaseException as exc:
            self._end(exc)
            return
        finally:
            sim._active_process = None
        if not isinstance(target, Event):
            self._yielded_non_event(target)
            return
        self._waiting_on = target
        # target.add_callback(self._resume_cb), inlined:
        if target.callbacks is None:
            self._resume(target)
        else:
            target.callbacks.append(self._resume_cb)

    def _step(self, exc: BaseException) -> None:
        """Throw ``exc`` into the generator: the resumption path of a
        failed event or an interrupt (the success path is inlined in
        :meth:`_resume`)."""
        sim = self.sim
        sim._active_process = self
        try:
            target = self.generator.throw(exc)
        except BaseException as error:
            self._end(error)
            return
        finally:
            sim._active_process = None
        if not isinstance(target, Event):
            self._yielded_non_event(target)
            return
        self._waiting_on = target
        if target.callbacks is None:
            self._resume(target)
        else:
            target.callbacks.append(self._resume_cb)

    def _end(self, exc: BaseException) -> None:
        """Finish the process on what its generator raised.  A return
        (``StopIteration``) succeeds with the return value; an unhandled
        :class:`Interrupt` succeeds with ``None``, the normal way a
        crashed server's threads die; any other error fails the process
        or, with nobody watching it, surfaces from the run."""
        sim = self.sim
        del sim._live[self]
        if isinstance(exc, StopIteration):
            self.succeed(exc.value)
        elif isinstance(exc, Interrupt):
            self.succeed(None)
        elif self.callbacks:
            self.fail(exc)
        else:
            sim._crash(exc)
        if sim._sanitizer is not None:
            sim._sanitizer.process_died(self)

    def _yielded_non_event(self, target: Any) -> None:
        self.sim._crash(SimulationError(
            f"process {self.name!r} yielded {target!r}, expected an Event"))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "alive" if self.is_alive else "done"
        return f"<Process {self.name} {state}>"


_INF = float("inf")


class _Never:
    """The ``watch`` of a run that no event ends: never triggered."""

    __slots__ = ("_ok",)

    def __init__(self):
        self._ok = None


_NEVER = _Never()


class Simulator:
    """The event loop: owns simulated time and the scheduling heap.

    ``debug=True`` attaches the runtime sanitizers
    (:mod:`repro.sim.sanitize`): event-leak detection when the schedule
    drains, lock-held-at-process-death checks when a process ends,
    wait-graph dumps on deadlock, and the declared-guard check on
    ``@guarded_by`` structures.  Both modes run the same
    :meth:`Process._resume`.  The default (``debug=None``) consults the
    ``REPRO_SIM_DEBUG`` environment variable — the test suite turns it
    on globally; production runs pay only a ``None`` check.
    """

    __slots__ = ("debug", "_sanitizer", "now", "_heap", "_seq", "_cancelled",
                 "_active_process", "_fatal", "_live", "__weakref__")

    def __init__(self, debug: Optional[bool] = None):
        if debug is None:
            debug = os.environ.get("REPRO_SIM_DEBUG", "0") not in ("", "0")  # simlint: disable=DET002 construction-time default; the sweep pins this knob per cell
        self.debug = bool(debug)
        if self.debug:
            from repro.sim.sanitize import Sanitizer
            self._sanitizer: Optional["Sanitizer"] = Sanitizer(self)
        else:
            self._sanitizer = None
        self.now: float = 0.0
        self._heap: List[Tuple[float, int, Event]] = []
        self._seq = 0
        # Cancelled timeouts still in the heap (see Timeout.cancel).
        self._cancelled = 0
        self._active_process: Optional[Process] = None
        self._fatal: Optional[BaseException] = None
        # Unfinished processes in spawn order (the values are unused); a
        # process leaves when its generator returns or raises.
        self._live: Dict[Process, None] = {}

    @property
    def active_process(self) -> Optional[Process]:
        """The process whose generator is running right now; ``None``
        between process steps (e.g. inside a plain event callback)."""
        return self._active_process

    def _crash(self, exc: BaseException) -> None:
        """Record a fatal error; re-raised from :meth:`run`/:meth:`step`."""
        if self._fatal is None:
            self._fatal = exc

    # -- public factory helpers ---------------------------------------

    def event(self) -> Event:
        """A fresh untriggered event."""
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """An event that fires ``delay`` seconds from now."""
        return Timeout(self, delay, value)

    def timeout_at(self, when: float, value: Any = None) -> Event:
        """An event that fires at the absolute time ``when`` (see
        :meth:`Event.succeed_at`)."""
        return Event(self).succeed_at(when, value)

    def process(self, generator: Generator, name: str = "") -> Process:
        """Start a generator as a simulated process."""
        return Process(self, generator, name=name)

    def all_of(self, events: Iterable[Event]) -> AllOf:
        """An event that fires when every given event has fired."""
        return AllOf(self, events)

    # -- execution -----------------------------------------------------

    def peek(self) -> float:
        """Time of the next scheduled entry, or ``inf`` if none (an entry
        may be a cancelled timeout that will be skipped)."""
        return self._heap[0][0] if self._heap else float("inf")

    def step(self) -> None:
        """Process the single next event (or skip one cancelled timeout)."""
        if not self._heap:
            raise SimulationError("step() with an empty schedule")
        self._dispatch(_INF, _NEVER, True)

    def run(self, until: Optional[float] = None) -> None:
        """Run until the schedule drains or ``until`` (exclusive of later events).

        When ``until`` is given, ``now`` is advanced to exactly ``until``
        even if no event falls on it, so back-to-back ``run(until=...)``
        calls see monotonically increasing time.
        """
        if until is None:
            self._dispatch(_INF, _NEVER, False)
            if self._sanitizer is not None:
                self._sanitizer.check_leaks()
            return
        if until < self.now:
            raise ValueError(f"run(until={until}) is in the past (now={self.now})")
        self._dispatch(until, _NEVER, False)
        self.now = until

    def run_process(self, event: Event, until: Optional[float] = None) -> Any:
        """Run until ``event`` triggers — a process finishing, or any
        other event such as an :meth:`all_of` over client processes —
        and return its value or raise its error.  (A timer is triggered
        from birth, so waiting on one returns at once.)"""
        self._dispatch(_INF if until is None else until, event, False)
        if event._ok is None:
            name = getattr(event, "name", type(event).__name__)
            if until is not None and self.peek() > until:
                raise SimulationError(f"{name!r} did not finish by t={until}")
            message = (f"deadlock: {name!r} pending "
                       f"with empty schedule")
            if self._sanitizer is not None:
                message += ("\nwait-for graph:\n"
                            + self._sanitizer.wait_graph())
            raise SimulationError(message)
        if not event._ok:
            raise event._value
        return event._value

    def _dispatch(self, until: float, watch: Any, once: bool) -> None:
        """The event loop behind :meth:`step`, :meth:`run` and
        :meth:`run_process`: pop entries in ``(time, seq)`` order and run
        their callbacks while the schedule holds one at or before
        ``until`` and ``watch`` has not triggered; ``once`` stops after
        one entry.  A cancelled timeout is dropped without advancing
        ``now``.  An error that a process left unwatched is raised here,
        after the callbacks of the event that surfaced it."""
        heap = self._heap
        while heap and watch._ok is None:
            when, seq, event = heappop(heap)
            if when > until:
                # Put back: keys are unique, so the pop order is the same.
                heappush(heap, (when, seq, event))
                return
            callbacks = event.callbacks
            if callbacks is not None:
                if when < self.now:
                    raise SimulationError(
                        "scheduler heap corrupted: time went backwards")
                self.now = when
                event.callbacks = None
                for cb in callbacks:
                    cb(event)
                if self._fatal is not None:
                    exc, self._fatal = self._fatal, None
                    raise exc
            else:
                self._cancelled -= 1
            if once:
                return

    def close(self) -> None:
        """Close every unfinished process's generator, in spawn order,
        once the run's results have been read.

        Closing raises ``GeneratorExit`` in each generator where it is
        suspended, so its ``finally`` blocks run now rather than in the
        garbage collector.  Events those blocks schedule are discarded,
        and ``now``, the event count (``_seq``) and the schedule are
        left as they were, so counters read after the run do not move.
        A closed process's own event never triggers.  Do not step or
        run the simulator after closing it.  Calling :meth:`close`
        again does nothing.
        """
        heap, seq, now, cancelled = (self._heap, self._seq, self.now,
                                     self._cancelled)
        # Cleanup code may release a lock or cancel a timer: those
        # pushes land in a temporary schedule that is dropped below.
        self._heap = []
        try:
            while self._live:
                live, self._live = self._live, {}
                for process in live:
                    process.generator.close()
        finally:
            self._heap, self._seq, self.now, self._cancelled = (
                heap, seq, now, cancelled)
