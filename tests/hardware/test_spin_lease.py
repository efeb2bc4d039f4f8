"""Spin leases: a worker's spin-then-sleep window schedules no event of
its own, yet accounts exactly like an explicit ``spin_begin``/``spin_end``
pair and hands requests over at the instants the explicit race did.

Every test runs on both kernel paths (sanitizers on and off).
"""

import pytest

from repro.hardware.node import Node
from repro.hardware.specs import GRID5000_NANCY_NODE
from repro.net.rpc import RpcRequest
from repro.sim import Simulator

from tests.ramcloud.conftest import build_cluster


@pytest.fixture(autouse=True, params=["1", "0"], ids=["debug", "production"])
def kernel_path(request, monkeypatch):
    monkeypatch.setenv("REPRO_SIM_DEBUG", request.param)


def _busy_trace(lease):
    """Readings of a node whose CPU runs two overlapping spins and two
    bursts of work; the spins are leases or explicit begin/end pairs."""
    sim = Simulator()
    node = Node(sim, GRID5000_NANCY_NODE, "n")
    cpu = node.cpu
    cpu.pin_core()
    readings = []

    def spinner(start, seconds):
        yield sim.timeout(start)
        if lease:
            cpu.spin_begin(sim.now + seconds)
        else:
            cpu.spin_begin()
            yield sim.timeout(seconds)
            cpu.spin_end()

    def worker(start, seconds):
        yield sim.timeout(start)
        yield from cpu.execute(seconds)

    def read(_ev):
        readings.append((sim.now, cpu.busy_core_seconds(),
                         node.power.sample()))

    def read_mid(_ev):
        read(_ev)
        readings.append(cpu.busy_cores)

    # The long lease ends at 0.1 + 0.3 = 0.4000000000000001; the short
    # one, started later, ends first.
    sim.process(spinner(0.1, 0.3))
    sim.process(spinner(0.15, 0.2))
    sim.process(worker(0.2, 0.15))
    sim.process(worker(0.3, 0.3))
    for at in (0.05, 0.25, 0.375):  # inside the leases
        sim.timeout(at).add_callback(read_mid)
    for at in (0.35, 0.1 + 0.3, 0.45, 0.7, 1.0):  # at and after their ends
        sim.timeout(at).add_callback(read)
    sim.run()
    return readings, cpu.busy_core_seconds()


def test_lease_accounts_exactly_like_spin_begin_and_end():
    readings, total = _busy_trace(lease=True)
    assert (readings, total) == _busy_trace(lease=False)
    # Mid-lease, both spins and one burst are busy beside the poller.
    assert readings[3] == 4.0


def test_an_expired_lease_is_settled_by_a_reading_alone():
    sim = Simulator()
    cpu = Node(sim, GRID5000_NANCY_NODE, "n").cpu
    sim.timeout(0.1)
    sim.run()
    cpu.spin_begin(sim.now + 0.3)
    assert cpu.busy_cores == 1.0
    sim.timeout(0.5)
    sim.run()
    assert cpu.busy_cores == 0.0
    assert cpu.busy_core_seconds() == 1.0 * ((0.1 + 0.3) - 0.1)


# -- the worker's spin window ---------------------------------------------


def _bogus(cluster):
    """A request whose handler fails it on the spot (unknown op): one
    reply event, no CPU time."""
    return RpcRequest(cluster.sim, "bogus_op", None, 0, 0.0,
                      cluster.client_nodes[0])


def _quiet_server():
    """A server at t = 0.05 whose workers are all blocked (their first
    windows ran out long ago) and nothing is scheduled before the
    cleaners wake at t = 0.1."""
    cluster = build_cluster(num_servers=3)
    cluster.sim.run(until=0.05)
    return cluster, cluster.servers[0]


def test_an_idle_interval_schedules_nothing():
    cluster, _server = _quiet_server()
    before = cluster.sim._seq
    cluster.sim.run(until=0.06)
    assert cluster.sim._seq == before


def test_spin_window_costs_get_and_hop_or_nothing():
    cluster, server = _quiet_server()
    sim = cluster.sim
    cpu = server.node.cpu
    spin = server.cost.worker_spin

    # A blocked worker takes the request when its get fires: get +
    # reply.  Its next window then runs out empty: no event at all.
    first = _bogus(cluster)
    before = sim._seq
    server.worker_queue.put(first)
    sim.run(until=0.05 + spin / 2)
    assert sim._seq - before == 2
    assert cpu.busy_cores == 2.0  # the poller and the spinning worker

    # A request inside the window: get + one hop + reply.
    second = _bogus(cluster)
    before = sim._seq
    server.worker_queue.put(second)
    sim.run(until=0.06)
    assert sim._seq - before == 3
    assert first.reply.processed and second.reply.processed
    assert cpu.busy_cores == 1.0


def test_a_request_at_the_window_end_resumes_the_worker_directly():
    # The documented narrowing: a request that arrives at exactly the
    # window's end, from an event scheduled before the window began,
    # resumes the worker in its get's own step (no hop).
    cluster, server = _quiet_server()
    sim = cluster.sim
    until = 0.05 + server.cost.worker_spin
    first, second = _bogus(cluster), _bogus(cluster)
    tie = sim.event().succeed_at(until)
    tie.add_callback(lambda _ev: server.worker_queue.put(second))
    server.worker_queue.put(first)
    sim.run(until=0.05)  # the worker takes `first`; its window begins
    assert first.reply.triggered
    before = sim._seq
    sim.run(until=until)
    assert second.reply.processed
    assert sim._seq - before == 2  # get + reply


def test_core_parking_still_parks_at_the_window_end():
    cluster, server = _quiet_server()
    sim = cluster.sim
    cpu = server.node.cpu
    cost, config = server.cost, server.config
    server.set_power_mode(core_parking=True)
    server.worker_queue.put(_bogus(cluster))
    end = 0.05 + cost.worker_spin
    sim.run(until=0.05 + cost.worker_spin / 2)
    assert cpu.parked_cores == 0
    sim.run(until=end)
    assert cpu.parked_cores == 1 and server.core_parks == 1
    # The next request wakes the core and pays the C-state exit first.
    sim.run(until=0.06)
    late = _bogus(cluster)
    answered = []
    late.reply.add_callback(lambda _ev: answered.append(sim.now))
    server.worker_queue.put(late)
    sim.run(until=0.06 + config.core_wake_latency)
    assert cpu.parked_cores == 0
    assert answered == [0.06 + config.core_wake_latency]
    # ...and parks again once its next window runs out empty.
    sim.run(until=0.07)
    assert cpu.parked_cores == 1 and server.core_parks == 2


def test_killed_spinning_worker_ends_its_lease_at_once():
    cluster, server = _quiet_server()
    sim = cluster.sim
    cpu = server.node.cpu
    server.worker_queue.put(_bogus(cluster))
    sim.run(until=0.05 + server.cost.worker_spin / 4)
    assert cpu.busy_cores == 2.0
    server.kill()
    sim.run(until=0.06)
    assert cpu.busy_cores == 0.0
