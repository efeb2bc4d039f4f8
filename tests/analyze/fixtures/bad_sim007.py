"""True-positive fixture for SIM007: may-yield functions invoked from
plain (non-generator) functions without spawning them.

``open_replication`` is a *wrapper*: itself a plain function, but its
return value is a sim-coroutine the caller must drive — a generator
test of the callee's own body cannot see it.

Never imported or executed — only linted.
"""


def replicate(sim, disk):
    yield sim.timeout(0.01)
    yield from disk.write(8)


def open_replication(sim, disk):
    # Fine: delegation — the caller decides how to drive it.
    return replicate(sim, disk)


def close_all(sim, disk):
    open_replication(sim, disk)  # SIM007: wrapper call discarded
    total = sum(open_replication(sim, disk))  # SIM007: driven by sum()
    for _step in open_replication(sim, disk):  # SIM007: for-driven
        pass
    pending = open_replication(sim, disk)  # SIM007: bound, never spawned
    return total
