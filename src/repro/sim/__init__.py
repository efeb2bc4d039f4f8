"""Deterministic discrete-event simulation kernel.

This package is the foundation of the reproduction: every hardware
component (CPU cores, disks, NICs), every RAMCloud server thread, and
every YCSB client is a :class:`~repro.sim.kernel.Process` running inside
a single :class:`~repro.sim.kernel.Simulator`.

The kernel is intentionally simpy-like (generator-based processes that
``yield`` events) but self-contained, deterministic given a seed, and
tuned for the event volumes these experiments generate.
"""

from repro.sim.kernel import (
    AllOf,
    Event,
    Interrupt,
    Process,
    SimulationError,
    Simulator,
    Timeout,
)
from repro.sim.resources import (
    Container,
    Mutex,
    PriorityResource,
    Resource,
    Store,
)
from repro.sim.monitor import TimeSeries
from repro.sim.distributions import RandomStream

__all__ = [
    "AllOf",
    "Container",
    "Event",
    "Interrupt",
    "Mutex",
    "PriorityResource",
    "Process",
    "RandomStream",
    "Resource",
    "SimulationError",
    "Simulator",
    "Store",
    "TimeSeries",
    "Timeout",
]
