"""Queueing primitives built on the kernel.

These model every point of contention in the reproduced system: CPU
cores (``Resource``), the log-append critical section (``Mutex``), disk
queues (``PriorityResource``), mailbox-style handoff between dispatch
and worker threads (``Store``), and DRAM/disk capacity (``Container``).
"""

from __future__ import annotations

import heapq
from collections import deque
from heapq import heappush
from typing import Any, Deque, List, Optional, Tuple

from repro.sim.kernel import Event, SimulationError, Simulator

__all__ = ["Request", "Resource", "PriorityResource", "Mutex", "Store", "Container"]


class Request(Event):
    """A pending or granted claim on a :class:`Resource` slot."""

    __slots__ = ("resource", "priority", "enqueued_at", "owner")

    def __init__(self, resource: "Resource", priority: int = 0):
        # Event.__init__ inlined: requests are created once per resource
        # claim, which puts this on the hot path of every RPC.
        sim = resource.sim
        self.sim = sim
        self.callbacks = []
        self._value = None
        self._ok = None
        self.resource = resource
        self.priority = priority
        self.enqueued_at = sim.now
        # Debug-mode attribution: the process whose step created this
        # request (the would-be holder); None outside debug mode.
        sanitizer = sim._sanitizer
        if sanitizer is not None:
            sanitizer.event_created(self)
            self.owner = sim._active_process
        else:
            self.owner = None


class Resource:
    """A FIFO multi-server queue (e.g. a pool of CPU cores).

    Usage::

        req = cores.request()
        yield req
        yield sim.timeout(service_time)
        cores.release(req)
    """

    # Slotted (PERF001): resources sit on the event path of every RPC.
    # __weakref__ because the debug-mode sanitizer tracks resources in
    # a WeakSet.
    __slots__ = ("sim", "capacity", "name", "_users", "_queue",
                 "total_requests", "total_wait_time", "__weakref__")

    def __init__(self, sim: Simulator, capacity: int, name: str = ""):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.sim = sim
        self.capacity = capacity
        self.name = name
        if sim._sanitizer is not None:
            sim._sanitizer.register_resource(self)
        self._users: List[Request] = []
        self._queue: Deque[Request] = deque()
        # Cumulative statistics for monitoring.
        self.total_requests = 0
        self.total_wait_time = 0.0

    @property
    def count(self) -> int:
        """Number of slots currently held."""
        return len(self._users)

    @property
    def queue_length(self) -> int:
        """Requests waiting for a slot."""
        return len(self._queue)

    def request(self, priority: int = 0) -> Request:
        """Claim a slot; the returned event fires when granted."""
        req = Request(self, priority)
        self.total_requests += 1
        if len(self._users) < self.capacity:
            # Uncontended fast path: _grant + Event.succeed inlined.  A
            # fresh request cannot be triggered (no guard needed) and
            # waited zero seconds (total_wait_time += 0.0 is a no-op),
            # but the grant event is scheduled exactly as _grant would —
            # a synchronous grant here would reorder the whole run.
            self._users.append(req)
            sim = self.sim
            req._ok = True
            req._value = req
            seq = sim._seq + 1
            sim._seq = seq
            heappush(sim._heap, (sim.now, seq, req))
        else:
            self._enqueue(req)
        return req

    def claim(self) -> Optional[Request]:
        """Take a free slot synchronously, or return None when every slot
        is held (then :meth:`request` queues).

        The returned request already holds its slot and schedules no
        grant event; it counts as processed, so nothing waits on it.
        Release it with :meth:`release` as usual.
        """
        if len(self._users) >= self.capacity:
            return None
        req = Request(self)
        self.total_requests += 1
        req._ok = True
        req._value = req
        req.callbacks = None
        self._users.append(req)
        return req

    def _enqueue(self, req: Request) -> None:
        self._queue.append(req)

    def _dequeue(self) -> Optional[Request]:
        return self._queue.popleft() if self._queue else None

    def _grant(self, req: Request) -> None:
        self._users.append(req)
        self.total_wait_time += self.sim.now - req.enqueued_at
        req.succeed(req)

    def release(self, req: Request) -> None:
        """Return a granted slot; the next waiter (if any) is granted."""
        try:
            self._users.remove(req)
        except ValueError:
            raise SimulationError(
                f"release of a request not holding {self.name or 'resource'}"
            ) from None
        nxt = self._dequeue()
        if nxt is not None:
            self._grant(nxt)

    def cancel(self, req: Request) -> None:
        """Withdraw a request that has not been granted (e.g. on interrupt)."""
        try:
            self._queue.remove(req)
        except ValueError:
            pass

    def resize(self, capacity: int) -> None:
        """Change capacity; extra waiters are granted immediately on growth.

        Shrinking never revokes current holders — the reduced capacity
        takes effect as they release.
        """
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        while len(self._users) < self.capacity:
            nxt = self._dequeue()
            if nxt is None:
                break
            self._grant(nxt)


class PriorityResource(Resource):
    """A resource whose queue is ordered by ``priority`` (lower first).

    Ties are FIFO.  Used by the disk model so that recovery reads and
    normal flush writes can be prioritized differently.
    """

    __slots__ = ("_pqueue", "_pseq")

    def __init__(self, sim: Simulator, capacity: int, name: str = ""):
        super().__init__(sim, capacity, name)
        self._pqueue: List[Tuple[int, int, Request]] = []
        self._pseq = 0

    @property
    def queue_length(self) -> int:
        """Requests waiting for a slot."""
        return len(self._pqueue)

    def _enqueue(self, req: Request) -> None:
        self._pseq += 1
        heapq.heappush(self._pqueue, (req.priority, self._pseq, req))

    def _dequeue(self) -> Optional[Request]:
        while self._pqueue:
            _prio, _seq, req = heapq.heappop(self._pqueue)
            if not req.triggered:  # skip cancelled entries
                return req
        return None

    def cancel(self, req: Request) -> None:
        """Withdraw an ungranted request (lazy: the heap entry stays and
        ``_dequeue`` skips it because the request is now triggered)."""
        if not req.triggered:
            req.fail(SimulationError("request cancelled"))


class Mutex:
    """A single-holder lock with FIFO handoff.

    Models the serialized sections of a RAMCloud master: the log-append
    critical path and the hash-table bucket locks.
    """

    __slots__ = ("_resource",)

    def __init__(self, sim: Simulator, name: str = ""):
        self._resource = Resource(sim, 1, name)

    @property
    def locked(self) -> bool:
        """True while some holder owns the lock."""
        return self._resource.count > 0

    @property
    def queue_length(self) -> int:
        """Threads waiting for the lock."""
        return self._resource.queue_length

    def acquire(self) -> Request:
        """Claim the lock; the returned event fires when granted."""
        return self._resource.request()

    def release(self, req: Request) -> None:
        """Hand the lock to the next waiter."""
        self._resource.release(req)

    def abort(self, req: Request) -> None:
        """Clean up a request after an interrupt: release it if it was
        granted, withdraw it if it was still queued."""
        if req.triggered and req.ok:
            self._resource.release(req)
        else:
            self._resource.cancel(req)


class Store:
    """An unbounded FIFO mailbox of items (dispatch → worker handoff).

    Items are always delivered in FIFO order.  ``lifo_getters=True``
    wakes the *most recently arrived* waiting getter instead of the
    oldest — the policy a work-stealing/nanoscheduling runtime uses to
    keep one worker thread hot instead of round-robining over the pool.
    """

    __slots__ = ("sim", "name", "lifo_getters", "_items", "_getters",
                 "max_occupancy")

    def __init__(self, sim: Simulator, name: str = "",
                 lifo_getters: bool = False):
        self.sim = sim
        self.name = name
        self.lifo_getters = lifo_getters
        self._items: Deque[Any] = deque()
        # Waiting getters as (event, delay) pairs; see get().
        self._getters: Deque[Tuple[Event, float]] = deque()
        self.max_occupancy = 0

    def __len__(self) -> int:
        return len(self._items)

    def put(self, item: Any) -> None:
        """Deposit an item; wakes a waiting getter, if any."""
        while self._getters:
            if self.lifo_getters:
                getter, delay = self._getters.pop()
            else:
                getter, delay = self._getters.popleft()
            if getter._ok is None:
                getter.succeed_at(self.sim.now + delay, item)
                return
        self._items.append(item)
        if len(self._items) > self.max_occupancy:
            self.max_occupancy = len(self._items)

    def get(self, delay: float = 0.0) -> Event:
        """Return an event that fires with the next item, ``delay``
        seconds after the item is taken — one event for "take the item,
        then spend a fixed time on it"."""
        ev = Event(self.sim)
        if self._items:
            ev.succeed_at(self.sim.now + delay, self._items.popleft())
        else:
            self._getters.append((ev, delay))
        return ev

    def drain(self) -> List[Any]:
        """Remove and return all queued items without waiting."""
        items = list(self._items)
        self._items.clear()
        return items


class Container:
    """A continuous quantity with a fixed capacity (bytes of DRAM/disk).

    ``put``/``take`` are immediate and raise on violation rather than
    blocking: in this system running out of memory or disk is an error
    condition handled by the caller (the cleaner, the flush path), not a
    queueing point.
    """

    __slots__ = ("sim", "capacity", "level", "name")

    def __init__(self, sim: Simulator, capacity: float, initial: float = 0.0,
                 name: str = ""):
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        if not 0 <= initial <= capacity:
            raise ValueError(f"initial {initial} outside [0, {capacity}]")
        self.sim = sim
        self.capacity = capacity
        self.level = initial
        self.name = name

    @property
    def free(self) -> float:
        """Remaining capacity."""
        return self.capacity - self.level

    @property
    def utilization(self) -> float:
        """Fraction of capacity in use."""
        return self.level / self.capacity

    def put(self, amount: float) -> None:
        """Add ``amount``; raises OverflowError past capacity."""
        if amount < 0:
            raise ValueError(f"negative put: {amount}")
        if self.level + amount > self.capacity + 1e-9:
            raise OverflowError(
                f"{self.name or 'container'} overflow: "
                f"{self.level} + {amount} > {self.capacity}"
            )
        self.level = min(self.capacity, self.level + amount)

    def take(self, amount: float) -> None:
        """Remove ``amount``; raises ValueError below zero."""
        if amount < 0:
            raise ValueError(f"negative take: {amount}")
        if amount > self.level + 1e-9:
            raise ValueError(
                f"{self.name or 'container'} underflow: take {amount} of {self.level}"
            )
        self.level = max(0.0, self.level - amount)
