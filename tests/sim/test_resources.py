"""Unit tests for queueing primitives."""

import pytest

from repro.sim import Container, Mutex, PriorityResource, Resource, Simulator, Store
from repro.sim.kernel import SimulationError


def _hold(sim, resource, duration, log, tag):
    req = resource.request()
    yield req
    log.append(("acquired", tag, sim.now))
    yield sim.timeout(duration)
    resource.release(req)
    log.append(("released", tag, sim.now))


class TestResource:
    def test_capacity_enforced(self):
        sim = Simulator()
        res = Resource(sim, capacity=2)
        log = []
        for tag in "abc":
            sim.process(_hold(sim, res, 1.0, log, tag))
        sim.run()
        acquired = [(t, when) for kind, t, when in log if kind == "acquired"]
        assert acquired == [("a", 0.0), ("b", 0.0), ("c", 1.0)]

    def test_fifo_ordering(self):
        sim = Simulator()
        res = Resource(sim, capacity=1)
        log = []
        for tag in "abcd":
            sim.process(_hold(sim, res, 1.0, log, tag))
        sim.run()
        order = [t for kind, t, _ in log if kind == "acquired"]
        assert order == list("abcd")

    def test_invalid_capacity(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            Resource(sim, capacity=0)

    def test_release_of_unheld_request_rejected(self):
        sim = Simulator()
        res = Resource(sim, capacity=1)
        req = res.request()
        res.release(req)
        with pytest.raises(SimulationError):
            res.release(req)

    def test_cancel_pending_request(self):
        sim = Simulator()
        res = Resource(sim, capacity=1)
        holder = res.request()  # granted immediately
        waiter = res.request()
        assert res.queue_length == 1
        res.cancel(waiter)
        assert res.queue_length == 0
        res.release(holder)
        assert res.count == 0  # cancelled request must not be granted


class TestPriorityResource:
    def test_lower_priority_value_goes_first(self):
        sim = Simulator()
        res = PriorityResource(sim, capacity=1)
        log = []

        def hold(tag, prio):
            req = res.request(priority=prio)
            yield req
            log.append(tag)
            yield sim.timeout(1.0)
            res.release(req)

        def scenario():
            # Occupy the resource, then enqueue contenders.
            first = res.request()
            yield first
            sim.process(hold("low", 5))
            sim.process(hold("high", 0))
            sim.process(hold("mid", 3))
            yield sim.timeout(1.0)
            res.release(first)

        sim.process(scenario())
        sim.run()
        assert log == ["high", "mid", "low"]

    def test_ties_are_fifo(self):
        sim = Simulator()
        res = PriorityResource(sim, capacity=1)
        log = []

        def hold(tag):
            req = res.request(priority=1)
            yield req
            log.append(tag)
            yield sim.timeout(1.0)
            res.release(req)

        def scenario():
            first = res.request()
            yield first
            for tag in "abc":
                sim.process(hold(tag))
            yield sim.timeout(1.0)
            res.release(first)

        sim.process(scenario())
        sim.run()
        assert log == ["a", "b", "c"]


class TestMutex:
    def test_mutual_exclusion(self):
        sim = Simulator()
        mutex = Mutex(sim)
        inside = []
        overlaps = []

        def critical(tag):
            token = mutex.acquire()
            yield token
            if inside:
                overlaps.append(tag)
            inside.append(tag)
            yield sim.timeout(1.0)
            inside.remove(tag)
            mutex.release(token)

        for tag in range(5):
            sim.process(critical(tag))
        sim.run()
        assert overlaps == []
        assert sim.now == 5.0  # fully serialized

    def test_locked_and_queue_length(self):
        sim = Simulator()
        mutex = Mutex(sim)
        assert not mutex.locked
        token = mutex.acquire()
        assert mutex.locked
        mutex.acquire()
        assert mutex.queue_length == 1
        mutex.release(token)
        assert mutex.queue_length == 0


class TestStore:
    def test_put_then_get(self):
        sim = Simulator()
        store = Store(sim)
        store.put("x")
        got = []

        def getter():
            item = yield store.get()
            got.append(item)

        sim.process(getter())
        sim.run()
        assert got == ["x"]

    def test_get_blocks_until_put(self):
        sim = Simulator()
        store = Store(sim)
        got = []

        def getter():
            item = yield store.get()
            got.append((item, sim.now))

        def putter():
            yield sim.timeout(3.0)
            store.put("late")

        sim.process(getter())
        sim.process(putter())
        sim.run()
        assert got == [("late", 3.0)]

    def test_fifo_item_and_getter_order(self):
        sim = Simulator()
        store = Store(sim)
        got = []

        def getter(tag):
            item = yield store.get()
            got.append((tag, item))

        sim.process(getter("g1"))
        sim.process(getter("g2"))

        def putter():
            yield sim.timeout(1.0)
            store.put("first")
            store.put("second")

        sim.process(putter())
        sim.run()
        assert got == [("g1", "first"), ("g2", "second")]

    @pytest.mark.parametrize("lifo", [False, True])
    def test_delayed_getters_fire_after_their_item_is_taken(self, lifo):
        # Waiting getters are served in FIFO (or LIFO) order, and each
        # fires its own delay after the put that fed it — one event per
        # get.
        sim = Simulator()
        store = Store(sim, lifo_getters=lifo)
        got = []

        def getter(tag, delay):
            item = yield store.get(delay)
            got.append((tag, item, sim.now))

        sim.process(getter("g1", 0.25))
        sim.process(getter("g2", 0.5))

        def putter():
            for delay, item in ((0.3, "first"), (0.3, "second")):
                yield sim.timeout(delay)
                before = sim._seq
                store.put(item)
                assert sim._seq - before == 1

        sim.process(putter())
        sim.run()
        if lifo:
            assert got == [("g2", "first", 0.3 + 0.5),
                           ("g1", "second", 0.6 + 0.25)]
        else:
            assert got == [("g1", "first", 0.3 + 0.25),
                           ("g2", "second", 0.6 + 0.5)]

    def test_delayed_get_of_a_queued_item(self):
        sim = Simulator()
        store = Store(sim)
        store.put("x")
        got = []

        def getter():
            yield sim.timeout(0.3)
            item = yield store.get(0.6)
            got.append((item, sim.now))

        sim.process(getter())
        sim.run()
        assert got == [("x", 0.3 + 0.6)]

    def test_drain(self):
        sim = Simulator()
        store = Store(sim)
        for i in range(3):
            store.put(i)
        assert store.drain() == [0, 1, 2]
        assert len(store) == 0


class TestContainer:
    def test_put_take_roundtrip(self):
        sim = Simulator()
        c = Container(sim, capacity=100.0)
        c.put(60.0)
        assert c.level == 60.0
        assert c.free == 40.0
        assert c.utilization == pytest.approx(0.6)
        c.take(25.0)
        assert c.level == 35.0

    def test_overflow_rejected(self):
        sim = Simulator()
        c = Container(sim, capacity=10.0, initial=8.0)
        with pytest.raises(OverflowError):
            c.put(5.0)

    def test_underflow_rejected(self):
        sim = Simulator()
        c = Container(sim, capacity=10.0, initial=1.0)
        with pytest.raises(ValueError):
            c.take(2.0)

    def test_invalid_construction(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            Container(sim, capacity=0.0)
        with pytest.raises(ValueError):
            Container(sim, capacity=5.0, initial=6.0)

    def test_negative_amounts_rejected(self):
        sim = Simulator()
        c = Container(sim, capacity=10.0)
        with pytest.raises(ValueError):
            c.put(-1.0)
        with pytest.raises(ValueError):
            c.take(-1.0)
