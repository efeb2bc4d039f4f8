"""Runtime lockset race detection (``Simulator(debug=True)``).

In this cooperative DES every ``yield`` is a preemption point: state
that must change atomically (the hash table entry *and* the log entry,
the tablet map *and* the owners) is only safe if no yield separates the
touches — or if a lock token is held across them.  The static side
(:mod:`repro.analyze`, SIM006) proves what it can from the
source; this module catches the rest at run time, turning the whole
test suite into a race-detection corpus.

How it works
------------
Hot structures carry a :class:`Shared` handle and record each touch::

    self.race.read(f"t{table_id}/{key}")     # before reading
    self.race.write(f"t{table_id}/{key}")    # before mutating

Each access records the running process, its *activation* (which step
of the process — two accesses in different activations have a yield
between them) and the set of resource-request tokens the process holds.
A report fires when one process touches a location in two different
activations, at least one touch is a write, **no token is held across
the gap**, and another process wrote the location in between — i.e. the
classic check-then-act race, observed rather than conjectured.

Two refinements keep the signal clean:

* ``relaxed=True`` marks optimistic accesses that are revalidated under
  a lock (the cleaner's candidate scan, client map snapshots).  Relaxed
  accesses never pair up, though relaxed *writes* still count as
  intervening evidence for other processes' pairs.
* :func:`task_boundary` resets pairing for a long-lived loop that
  serves unrelated work items (a worker thread between requests):
  touches from different tasks are logically unrelated and must not
  pair.

Declared guards
---------------
``@guarded_by("log_lock")`` on a class declares which lock protects its
mutations; :meth:`RaceDetector.track` resolves the attribute on the
owning object (a :class:`~repro.sim.resources.Mutex` or ``Resource``)
and every *strict* write is then checked to hold that lock — a
stronger, intent-level check than the pairwise detector.

Reports are appended in execution order (deterministic under a fixed
seed), de-duplicated, and surfaced as :class:`RaceWarning` — the run is
not aborted, matching the other sanitizers.  Outside debug mode the
structures hold the :data:`NULL_SHARED` singleton and each access costs
one no-op method call.
"""

from __future__ import annotations

import warnings
from collections import deque
from typing import TYPE_CHECKING, Deque, Dict, List, Optional, Set, Tuple

from repro.sim.sanitize import SanitizerWarning

if TYPE_CHECKING:  # pragma: no cover - types only
    from repro.sim.kernel import Process, Simulator
    from repro.sim.resources import Request

__all__ = ["RaceDetector", "RaceWarning", "Shared", "NULL_SHARED",
           "guarded_by", "shared", "task_boundary"]


class RaceWarning(SanitizerWarning):
    """A cross-yield unsynchronized access pair detected at run time."""


def guarded_by(*lock_attrs: str):
    """Class decorator declaring which lock attribute(s) guard writes.

    The attribute is resolved on the *owner* passed to
    :meth:`RaceDetector.track` (falling back to the object itself), so
    a per-server structure can be guarded by the server's lock::

        @guarded_by("log_lock")
        class HashTable: ...
    """
    def decorate(cls):
        cls.__guarded_by__ = tuple(lock_attrs)
        return cls
    return decorate


class _NullShared:
    """The no-op handle installed when race detection is off."""

    __slots__ = ()

    #: False: recording is off, so hot paths may skip building access
    #: labels entirely (``if race.enabled: race.write(f"...")``) — an
    #: eager f-string on a debug-disabled path is pure waste (PERF005).
    enabled = False

    def read(self, field: str, relaxed: bool = False) -> None:
        """Record nothing."""

    def write(self, field: str, relaxed: bool = False) -> None:
        """Record nothing."""


NULL_SHARED = _NullShared()


class Shared:
    """One tracked structure: a label plus its resolved guard locks."""

    __slots__ = ("detector", "label", "guards")

    #: True: accesses are recorded (the debug-mode counterpart of
    #: :attr:`_NullShared.enabled`).
    enabled = True

    def __init__(self, detector: "RaceDetector", label: str,
                 guards: Tuple[Tuple[str, object], ...]):
        self.detector = detector
        self.label = label
        self.guards = guards  # (attr_name, underlying Resource)

    def read(self, field: str, relaxed: bool = False) -> None:
        """Record a read of ``label[field]`` by the running process."""
        self.detector.record(self, field, "read", relaxed)

    def write(self, field: str, relaxed: bool = False) -> None:
        """Record a write of ``label[field]`` by the running process."""
        self.detector.record(self, field, "write", relaxed)


def shared(sim: "Simulator", label: str, obj: object = None,
           owner: object = None):
    """A :class:`Shared` handle for ``sim``, or :data:`NULL_SHARED`
    outside debug mode.  ``obj``'s class may declare ``@guarded_by``;
    lock attributes are resolved on ``owner`` (default ``obj``)."""
    sanitizer = getattr(sim, "_sanitizer", None)
    if sanitizer is None:
        return NULL_SHARED
    return sanitizer.races.track(label, obj=obj, owner=owner)


def task_boundary(sim: "Simulator") -> None:
    """Mark the running process as starting an unrelated work item
    (a worker loop picking up its next request): earlier accesses no
    longer pair with later ones.  No-op outside debug mode."""
    sanitizer = getattr(sim, "_sanitizer", None)
    if sanitizer is not None:
        sanitizer.races.task_boundary()


class _Access:
    """One recorded touch of a location by one process."""

    __slots__ = ("kind", "activation", "task", "locks", "when", "proc_name")

    def __init__(self, kind: str, activation: int, task: int,
                 locks: frozenset, when: float, proc_name: str):
        self.kind = kind
        self.activation = activation
        self.task = task
        self.locks = locks
        self.when = when
        self.proc_name = proc_name


class _Location:
    """Per-(label, field) access history."""

    __slots__ = ("last", "writes")

    def __init__(self):
        # Last strict access per process (pair candidates).
        self.last: Dict[object, _Access] = {}
        # Recent writes by anyone (intervening-write evidence).  A short
        # window suffices: the intervening write we need happened between
        # two activations of one process, which is never far in the past.
        self.writes: Deque[_Access] = deque(maxlen=8)


class RaceDetector:
    """The debug-mode lockset bookkeeping attached to one Simulator."""

    def __init__(self, sim: "Simulator"):
        self.sim = sim
        #: Deterministically-ordered human-readable reports (append order
        #: follows the schedule, which is seed-deterministic).
        self.reports: List[str] = []
        self._seen: Set[Tuple] = set()
        self._activation = 0
        self._current: Optional["Process"] = None
        self._current_activation = 0
        # Per-process: set of granted Request tokens, and a task counter
        # bumped by task_boundary().
        self._locksets: Dict[object, Set["Request"]] = {}
        self._tasks: Dict[object, int] = {}
        self._locations: Dict[Tuple[str, str], _Location] = {}

    # -- kernel hooks ----------------------------------------------------

    def begin_step(self, process: "Process") -> None:
        """A process generator is about to execute one step."""
        self._activation += 1
        self._current = process
        self._current_activation = self._activation

    def end_step(self) -> None:
        """The step finished; accesses no longer attributable."""
        self._current = None

    def process_died(self, process: "Process") -> None:
        """Forget per-process state (its token set can never grow)."""
        self._locksets.pop(process, None)
        self._tasks.pop(process, None)

    # -- resource hooks --------------------------------------------------

    def lock_granted(self, request: "Request") -> None:
        """A resource slot was granted; add it to the owner's lockset."""
        owner = request.owner
        if owner is not None:
            self._locksets.setdefault(owner, set()).add(request)

    def lock_released(self, request: "Request") -> None:
        """A granted slot was returned; drop it from the owner's lockset."""
        owner = request.owner
        if owner is not None:
            held = self._locksets.get(owner)
            if held is not None:
                held.discard(request)

    # -- annotation API --------------------------------------------------

    def track(self, label: str, obj: object = None,
              owner: object = None) -> Shared:
        """Create the :class:`Shared` handle for one structure,
        resolving any ``@guarded_by`` declarations on ``obj``'s class
        against ``owner`` (default: ``obj`` itself)."""
        guards = []
        declared = getattr(type(obj), "__guarded_by__", ()) if obj is not None else ()
        for attr in declared:
            holder = owner if owner is not None and hasattr(owner, attr) else obj
            lock = getattr(holder, attr, None)
            if lock is None:
                continue
            # A Mutex wraps a Resource; requests reference the Resource.
            resource = getattr(lock, "_resource", lock)
            guards.append((attr, resource))
        return Shared(self, label, tuple(guards))

    def task_boundary(self) -> None:
        """See :func:`task_boundary`."""
        proc = self._current
        if proc is not None:
            self._tasks[proc] = self._tasks.get(proc, 0) + 1

    # -- the detector ----------------------------------------------------

    def record(self, handle: Shared, field: str, kind: str,
               relaxed: bool) -> None:
        """Record one access and check it against the history."""
        proc = self._current
        if proc is None:
            return  # setup / bulk-load outside any process: single-threaded
        location = self._locations.get((handle.label, field))
        if location is None:
            location = _Location()
            self._locations[(handle.label, field)] = location
        access = _Access(kind, self._current_activation,
                         self._tasks.get(proc, 0),
                         frozenset(self._locksets.get(proc, ())),
                         self.sim.now, proc.name)
        if relaxed:
            # Optimistic access (revalidated under a lock): never pairs,
            # but a relaxed write is still evidence for other processes.
            if kind == "write":
                location.writes.append(access)
            return
        if kind == "write" and handle.guards:
            self._check_guard(handle, field, access)
        previous = location.last.get(proc)
        if previous is not None:
            self._check_pair(handle, field, location, previous, access)
        location.last[proc] = access
        if kind == "write":
            location.writes.append(access)

    def _check_guard(self, handle: Shared, field: str,
                     access: _Access) -> None:
        """A strict write to a guarded structure must hold a declared lock."""
        for req in access.locks:
            for _attr, resource in handle.guards:
                if req.resource is resource:
                    return
        names = ", ".join(attr for attr, _res in handle.guards)
        key = ("guard", handle.label, field, access.proc_name)
        if key in self._seen:
            return
        self._seen.add(key)
        self._report(
            f"unguarded write to {handle.label}[{field}]: process "
            f"{access.proc_name!r} holds none of the declared guard(s) "
            f"[{names}] (@guarded_by) at t={access.when:.6f}")

    def _check_pair(self, handle: Shared, field: str, location: _Location,
                    previous: _Access, access: _Access) -> None:
        """The lockset check: same process, cross-yield, same task, at
        least one write, no token held across, an intervening write."""
        if previous.activation >= access.activation:
            return  # same step: atomic in a cooperative kernel
        if previous.task != access.task:
            return  # unrelated work items of a long-lived loop
        if previous.kind != "write" and access.kind != "write":
            return  # read/read: re-reading is the fix, not the bug
        if previous.locks & access.locks:
            return  # some token held across the yield: atomic section
        for write in location.writes:
            if (write.proc_name != access.proc_name
                    and previous.activation < write.activation
                    < access.activation):
                key = (handle.label, field, access.proc_name,
                       previous.kind, access.kind, write.proc_name)
                if key in self._seen:
                    return
                self._seen.add(key)
                self._report(
                    f"race on {handle.label}[{field}]: process "
                    f"{access.proc_name!r} {previous.kind} at "
                    f"t={previous.when:.6f} then {access.kind} at "
                    f"t={access.when:.6f} with no lock held across the "
                    f"yield; intervening write by {write.proc_name!r} at "
                    f"t={write.when:.6f}")
                return

    def _report(self, message: str) -> None:
        self.reports.append(message)
        warnings.warn(message, RaceWarning, stacklevel=5)
