"""Tests for condition events (AllOf) value access and edge cases."""

import pytest

from repro.sim import Simulator
from repro.sim.kernel import _ConditionValue


class TestConditionValues:
    def test_all_of_result_indexable_by_event(self):
        sim = Simulator()
        got = {}

        def proc():
            a = sim.timeout(1.0, value="a")
            b = sim.timeout(2.0, value="b")
            result = yield sim.all_of([a, b])
            got["a"] = result[a]
            got["b"] = result[b]
            got["len"] = len(result)
            got["values"] = result.values()

        sim.process(proc())
        sim.run()
        assert got == {"a": "a", "b": "b", "len": 2, "values": ["a", "b"]}

    def test_condition_value_rejects_foreign_event(self):
        sim = Simulator()
        a = sim.timeout(0.0, value=1)
        b = sim.timeout(0.0, value=2)
        sim.run()
        cv = _ConditionValue((a,))
        with pytest.raises(KeyError):
            cv[b]

    def test_all_of_with_pre_triggered_events(self):
        sim = Simulator()
        a = sim.event()
        a.succeed("early")
        done = []

        def proc():
            b = sim.timeout(1.0, value="late")
            result = yield sim.all_of([a, b])
            done.append((sim.now, result[a], result[b]))

        sim.process(proc())
        sim.run()
        assert done == [(1.0, "early", "late")]

    def test_nested_conditions(self):
        sim = Simulator()
        done = []

        def proc():
            inner = sim.all_of([sim.timeout(1.0), sim.timeout(2.0)])
            outer = sim.all_of([inner, sim.timeout(0.5)])
            yield outer
            done.append(sim.now)

        sim.process(proc())
        sim.run(until=20.0)
        assert done == [2.0]

    def test_all_of_duplicate_event(self):
        sim = Simulator()
        done = []

        def proc():
            t = sim.timeout(1.0, value="x")
            result = yield sim.all_of([t, t])
            done.append(result[t])

        sim.process(proc())
        sim.run()
        assert done == ["x"]
