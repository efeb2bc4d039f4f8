"""Runtime sanitizers for the simulation kernel (``Simulator(debug=True)``).

The static linter (:mod:`repro.analyze`) catches what is visible in the
source; these sanitizers catch what only manifests at run time:

* **event leaks** — an event somebody waits on that is never triggered
  when the schedule drains: that waiter is a process silently frozen
  forever (a dropped wakeup, a forgotten ``succeed()``);
* **locks held at process death** — a process that dies (crash
  injection, unhandled error) while holding or queueing for a resource
  slot: every later acquirer deadlocks;
* **deadlock diagnostics** — when :meth:`Simulator.run_process` finds a
  live process with an empty schedule, a dump of *which* process waits
  on *what* turns an opaque error into a one-glance diagnosis;
* **unguarded writes** — a class decorated ``@guarded_by("log_lock")``
  declares the lock its mutations need.  Its :func:`shared` handle
  checks every ``race.write(...)``: the running process must own a
  granted request on the declared lock, found the same way
  :meth:`Sanitizer.held_requests` finds one.  Writes outside any process
  (setup, bulk load) are single-threaded and not checked.  Each
  ``(structure, field, process)`` is reported once, as a
  :class:`RaceWarning`, in schedule order (``Sanitizer.race_reports``).

Diagnostics are emitted as :class:`SanitizerWarning` (the simulation is
not aborted: a measurement run that is already wrong should still
finish so the warning can point at the cause).  With ``debug=False``
(the default) no sanitizer object exists, the kernel pays nothing
beyond a ``None`` check, and guarded structures hold the no-op
:data:`NULL_SHARED` handle.

A fifth check guards sweep-cell state isolation, alongside the sweep
runner's environment snapshot/restore and its serial-vs-parallel
digest check (``docs/ANALYSIS.md``, "Determinism rules"):

* **cell-state divergence** — the sweep runner fingerprints every
  *registered* piece of module state (:func:`watch_cell_state`) before
  an experiment cell runs and re-checks it afterwards; any divergence
  raises :class:`CellStateError`, because state that survives a cell is
  exactly the cross-seed channel the determinism digests cannot see.

Enable globally with the ``REPRO_SIM_DEBUG=1`` environment variable —
the test suite does exactly that (``tests/conftest.py``).
"""

from __future__ import annotations

import hashlib
import os
import warnings
import weakref
from operator import attrgetter
from typing import TYPE_CHECKING, Callable, Dict, List, Set, Tuple

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, types only
    from repro.sim.kernel import Event, Process, Simulator

__all__ = ["CellStateError", "NULL_SHARED", "RaceWarning", "Sanitizer",
           "SanitizerWarning", "Shared", "cell_state_fingerprint",
           "check_cell_state", "guarded_by", "shared", "watch_cell_state"]


class SanitizerWarning(UserWarning):
    """A kernel-hygiene violation detected at run time."""


class RaceWarning(SanitizerWarning):
    """A write to a ``@guarded_by`` structure without its declared lock."""


class CellStateError(AssertionError):
    """Watched module state diverged across one sweep cell.

    An ``AssertionError`` on purpose: like
    :class:`~repro.experiments.sweep.SerialEquivalenceError` this is a
    broken invariant of the harness contract, not an environmental
    failure, so retry budgets must not paper over it.
    """


# -- cell-state fingerprinting ---------------------------------------------
#
# Module state a cell could leak into its successor — including what
# static names cannot see (C extensions, the global RNG) — is
# registered here once at import time; under debug mode the sweep
# runner fingerprints every watch before a cell and re-checks after it.

_CELL_WATCHES: Dict[str, Callable[[], object]] = {}


def watch_cell_state(label: str, supplier: Callable[[], object]) -> None:
    """Register module state the sweep must prove cells don't leak.

    ``supplier`` returns the current value (any ``repr``-stable
    object); ``label`` names it in :class:`CellStateError` reports.
    Re-registering a label replaces the supplier.
    """
    _CELL_WATCHES[label] = supplier


def cell_state_fingerprint() -> Dict[str, str]:
    """label → digest of each watched value's current ``repr``."""
    prints: Dict[str, str] = {}
    for label in sorted(_CELL_WATCHES):
        try:
            value = repr(_CELL_WATCHES[label]())
        except Exception as exc:  # a broken supplier is itself a divergence
            value = f"<supplier raised {type(exc).__name__}: {exc}>"
        prints[label] = hashlib.sha256(value.encode()).hexdigest()
    return prints


def check_cell_state(before: Dict[str, str], context: str = "") -> None:
    """Raise :class:`CellStateError` if any watch diverged from ``before``.

    ``before`` is an earlier :func:`cell_state_fingerprint`; watches
    added or removed since then count as divergence too (a cell that
    registers new global state is still a leak).
    """
    after = cell_state_fingerprint()
    diverged = sorted(
        set(before).symmetric_difference(after)
        | {label for label in set(before) & set(after)
           if before[label] != after[label]})
    if diverged:
        where = f" in {context}" if context else ""
        raise CellStateError(
            f"module state leaked across a sweep cell{where}: "
            f"{', '.join(diverged)} changed — cells must be pure "
            f"functions of (experiment, params, seed, scale); see "
            f"docs/ANALYSIS.md (Determinism rules)")


def _global_random_state() -> object:
    # Fingerprinting the global RNG to *detect* leaked reseeds/draws,
    # not drawing from it.
    import random  # simlint: disable=SIM003 leak detector reads getstate(), never draws
    return random.getstate()  # simlint: disable=SIM003 leak detector reads getstate(), never draws


def _process_environ() -> object:
    return sorted(os.environ.items())  # simlint: disable=DET002 leak detector fingerprints the environment


watch_cell_state("random.getstate", _global_random_state)
watch_cell_state("os.environ", _process_environ)


# -- declared guards -------------------------------------------------------

def guarded_by(*lock_attrs: str):
    """Class decorator declaring which lock attribute(s) guard writes.

    The attribute is resolved on the *owner* passed to :func:`shared`
    (falling back to the object itself), so a per-server structure can
    be guarded by the server's lock::

        @guarded_by("log_lock")
        class HashTable: ...
    """
    def decorate(cls):
        cls.__guarded_by__ = tuple(lock_attrs)
        return cls
    return decorate


class _NullShared:
    """The no-op handle installed when there is nothing to check."""

    __slots__ = ()

    #: False: checking is off, so hot paths may skip building write
    #: labels entirely (``if race.enabled: race.write(f"...")``) — an
    #: eager f-string on a debug-disabled path is pure waste (PERF005).
    enabled = False

    def write(self, field: str) -> None:
        """Check nothing."""


NULL_SHARED = _NullShared()


class Shared:
    """One guarded structure: a label plus its resolved guard locks."""

    __slots__ = ("sanitizer", "label", "guards")

    #: True: writes are checked (the debug-mode counterpart of
    #: :attr:`_NullShared.enabled`).
    enabled = True

    def __init__(self, sanitizer: "Sanitizer", label: str,
                 guards: Tuple[Tuple[str, object], ...]):
        self.sanitizer = sanitizer
        self.label = label
        self.guards = guards  # (attr_name, underlying Resource)

    def write(self, field: str) -> None:
        """Check that the running process holds a declared guard."""
        self.sanitizer.check_guarded_write(self, field)


def shared(sim: "Simulator", label: str, obj: object,
           owner: object = None):
    """The guard-check handle for ``obj``, whose class declares
    ``@guarded_by``; lock attributes are resolved on ``owner`` (default
    ``obj``).  :data:`NULL_SHARED` outside debug mode."""
    sanitizer = sim._sanitizer
    if sanitizer is None:
        return NULL_SHARED
    guards = []
    for attr in getattr(type(obj), "__guarded_by__", ()):
        holder = owner if owner is not None and hasattr(owner, attr) else obj
        lock = getattr(holder, attr, None)
        if lock is not None:
            # A Mutex wraps a Resource; requests reference the Resource.
            guards.append((attr, getattr(lock, "_resource", lock)))
    if not guards:
        return NULL_SHARED
    return Shared(sanitizer, label, tuple(guards))


def describe_event(event: "Event") -> str:
    """A human-readable one-liner for a wait target."""
    # Imported lazily: kernel imports this module lazily too, and the
    # isinstance checks only run on debug/error paths.
    from repro.sim.kernel import Process, Timeout
    from repro.sim.resources import Request

    if event is None:
        return "nothing (runnable or just started)"
    if isinstance(event, Request):
        holder = "granted" if event.triggered else "queued"
        return (f"{type(event).__name__} on "
                f"{event.resource.name or 'resource'} ({holder})")
    if hasattr(event, "describe_wait"):  # a wait that names itself
        return event.describe_wait()
    if isinstance(event, Process):
        return f"process {event.name!r}"
    if isinstance(event, Timeout):
        return f"Timeout({event.delay:g}s)"
    return type(event).__name__


def _waiters(event: "Event") -> List[str]:
    """Names of the callbacks that would still act on ``event``: live
    processes waiting on it, untriggered conditions with such a waiter
    of their own, and plain objects' bound methods."""
    from repro.sim.kernel import Event, Process

    waiters = []
    for cb in event.callbacks or ():
        owner = getattr(cb, "__self__", None)
        if isinstance(owner, Process):
            if owner.is_alive and owner._waiting_on is event:
                waiters.append(owner.name)
        elif isinstance(owner, Event):
            if not owner.triggered and _waiters(owner):
                waiters.append(type(owner).__name__)
        elif owner is not None:
            waiters.append(type(owner).__name__)
    return waiters


class Sanitizer:
    """The debug-mode bookkeeping attached to one :class:`Simulator`.

    All containers are weak: tracking never extends object lifetimes,
    so a debug run frees memory exactly like a production run.
    """

    def __init__(self, sim: "Simulator"):
        self.sim = sim
        self._events: "weakref.WeakSet[Event]" = weakref.WeakSet()
        self._processes: "weakref.WeakSet[Process]" = weakref.WeakSet()
        self._resources: "weakref.WeakSet" = weakref.WeakSet()
        #: Unguarded-write reports in schedule order (seed-deterministic).
        self.race_reports: List[str] = []
        self._race_seen: Set[Tuple[str, str, str]] = set()

    # -- registration hooks (called from the kernel) --------------------

    def event_created(self, event: "Event") -> None:
        """Track ``event`` for leak detection."""
        self._events.add(event)

    def register_process(self, process: "Process") -> None:
        """Track ``process`` for wait-graph dumps."""
        self._processes.add(process)

    def register_resource(self, resource) -> None:
        """Track ``resource`` for held-at-death checks."""
        self._resources.add(resource)

    # -- event-leak detection -------------------------------------------

    def leaked_events(self) -> List[Tuple["Event", List[str]]]:
        """Untriggered events with registered waiters.

        Each entry is ``(event, waiter_names)``.  An untriggered event
        nobody waits on is garbage, not a leak; an untriggered event
        *with* waiters is a process frozen forever.  Stale callbacks are
        not waiters: a dead process (or a live one since detached onto a
        different event, e.g. by an interrupt) will never resume from
        here.  A condition (``AllOf``, a spin wait) waits on this event
        only for whoever waits on the condition: it counts, under its
        own type name, only while it is untriggered and a live process
        waits on it, directly or through further conditions.
        """
        leaks = []
        for event in self._events:
            if event.triggered or not event.callbacks:
                continue
            waiters = _waiters(event)
            if waiters:
                leaks.append((event, sorted(waiters)))
        leaks.sort(key=lambda pair: pair[1])  # simlint: disable=PERF002 teardown-only report ordering
        return leaks

    def check_leaks(self) -> None:
        """Warn about leaked events (called when the schedule drains)."""
        leaks = self.leaked_events()
        if not leaks:
            return
        lines = [f"  {describe_event(ev)} awaited by "
                 f"{', '.join(repr(w) for w in waiters)}"
                 for ev, waiters in leaks]
        warnings.warn(
            "event leak: the schedule drained with "
            f"{len(leaks)} event(s) never triggered but still awaited "
            "(each waiter is a process frozen forever):\n"
            + "\n".join(lines),
            SanitizerWarning, stacklevel=3)

    # -- lock-held-at-death detection ------------------------------------

    def held_requests(self, process: "Process") -> List[Tuple[object, str]]:
        """Resource slots held or queued by ``process``.

        Returns ``(resource, state)`` pairs where state is ``'holding'``
        or ``'queued for'``.
        """
        found = []
        for resource in self._resources:
            for req in getattr(resource, "_users", ()):
                if getattr(req, "owner", None) is process:
                    found.append((resource, "holding"))
            queued = list(getattr(resource, "_queue", ()))
            queued.extend(req for _prio, _seq, req
                          in getattr(resource, "_pqueue", ()))
            for req in queued:
                if (getattr(req, "owner", None) is process
                        and not req.triggered):
                    found.append((resource, "queued for"))
        return found

    def process_died(self, process: "Process") -> None:
        """Check a just-finished process for leaked resource claims."""
        held = self.held_requests(process)
        if not held:
            return
        details = ", ".join(
            f"{state} {getattr(res, 'name', '') or type(res).__name__}"
            for res, state in held)
        warnings.warn(
            f"process {process.name!r} died while {details} — release "
            "requests in a try/finally (simlint SIM002); later acquirers "
            "will deadlock",
            SanitizerWarning, stacklevel=4)

    # -- declared guards -------------------------------------------------

    def check_guarded_write(self, handle: Shared, field: str) -> None:
        """Report a write to ``handle.label[field]`` by a process that
        holds none of the structure's declared guard locks."""
        process = self.sim._active_process
        if process is None:
            return  # setup / bulk load outside any process
        for _attr, resource in handle.guards:
            for req in resource._users:
                if req.owner is process:
                    return
        key = (handle.label, field, process.name)
        if key in self._race_seen:
            return
        self._race_seen.add(key)
        names = ", ".join(attr for attr, _resource in handle.guards)
        message = (f"unguarded write to {handle.label}[{field}]: process "
                   f"{process.name!r} holds none of the declared guard(s) "
                   f"[{names}] (@guarded_by) at t={self.sim.now:.6f}")
        self.race_reports.append(message)
        warnings.warn(message, RaceWarning, stacklevel=3)

    # -- deadlock diagnostics --------------------------------------------

    def wait_graph(self) -> str:
        """A dump of every live process and what it waits on."""
        lines = []
        alive = sorted((p for p in self._processes if p.is_alive),
                       key=attrgetter("name"))
        for proc in alive:
            lines.append(f"  {proc.name!r} waits on "
                         f"{describe_event(proc._waiting_on)}")
        if not lines:
            return "  (no live processes tracked)"
        return "\n".join(lines)
