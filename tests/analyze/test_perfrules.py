"""Per-rule TP/TN tests for the PERF rules, plus hot-set scoping.

Mirrors ``test_simlint.py``: each PERF rule fires on its bad fixture
and stays silent on ``good_perf.py``.  The scoping tests pin the
profile-guided contract: with a hot set attached, findings only come
from code the benchmark profile marked hot (directly, or one
call-graph level away); without one the rules run unscoped.
"""

import json
import os
import textwrap

from repro.analyze import PERF_RULES, analyze_paths, analyze_source
from repro.analyze.profilehot import HotSet

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")


def lint_fixture(name, hotset=None):
    findings, errors = analyze_paths([os.path.join(FIXTURES, name)],
                                     rules=PERF_RULES, hotset=hotset)
    assert not errors
    return findings


def lint_snippet(source):
    return analyze_source(textwrap.dedent(source), path="snippet.py",
                          rules=PERF_RULES)


def codes(findings):
    return [f.code for f in findings]


def make_hotset(rows, total_tottime=1.0, total_calls=1000):
    return HotSet(rows=rows, total_tottime=total_tottime,
                  total_calls=total_calls)


# ---------------------------------------------------------------------------
# the good fixture is clean under every PERF rule
# ---------------------------------------------------------------------------

def test_good_fixture_is_clean():
    assert lint_fixture("good_perf.py") == []


# ---------------------------------------------------------------------------
# PERF001 — missing __slots__
# ---------------------------------------------------------------------------

class TestPerf001:
    def test_bad_fixture_fires_on_both_classes(self):
        findings = lint_fixture("bad_perf001.py")
        assert codes(findings) == ["PERF001", "PERF001"]
        assert "'Token'" in findings[0].message
        assert "'Child'" in findings[1].message

    def test_unslotted_base_exempts_subclass(self):
        # Only Base fires: Sub's base carries a __dict__ anyway, so
        # slots on Sub would be cosmetic.
        findings = lint_snippet("""
            class Base:
                def __init__(self):
                    self.x = 1

            class Sub(Base):
                def __init__(self):
                    super().__init__()
                    self.y = 2
        """)
        assert codes(findings) == ["PERF001"]
        assert "'Base'" in findings[0].message

    def test_guarded_by_decorator_still_fires(self):
        findings = lint_snippet("""
            @guarded_by("log_lock")
            class Index:
                def __init__(self):
                    self.entries = {}
        """)
        assert codes(findings) == ["PERF001"]


# ---------------------------------------------------------------------------
# PERF002 — per-event allocation
# ---------------------------------------------------------------------------

class TestPerf002:
    def test_bad_fixture_fires_three_times(self):
        findings = lint_fixture("bad_perf002.py")
        assert codes(findings) == ["PERF002"] * 3
        messages = " | ".join(f.message for f in findings)
        assert "dict display" in messages
        assert "lambda" in messages
        assert "nested def" in messages

    def test_dict_outside_loop_is_clean(self):
        assert lint_snippet("""
            def build(items):
                weights = {"read": 1}
                return [weights.get(i, 0) for i in items]
        """) == []

    def test_pragma_suppresses(self):
        assert lint_snippet("""
            def retry(items):
                while True:
                    groups = {}  # simlint: disable=PERF002 regrouped per retry
                    for i in items:
                        groups.setdefault(i, []).append(i)
                    return groups
        """) == []


# ---------------------------------------------------------------------------
# PERF003 — repeated attribute chains
# ---------------------------------------------------------------------------

class TestPerf003:
    def test_bad_fixture_fires_once_with_minimal_chain(self):
        findings = lint_fixture("bad_perf003.py")
        assert codes(findings) == ["PERF003"]
        assert "'server.stats'" in findings[0].message

    def test_chain_outside_loop_is_clean(self):
        assert lint_snippet("""
            def flat(server):
                a = server.stats.reads
                b = server.stats.scans
                c = server.stats.updates
                return a + b + c
        """) == []


# ---------------------------------------------------------------------------
# PERF004 — generator trampolines
# ---------------------------------------------------------------------------

class TestPerf004:
    def test_bad_fixture_fires_on_all_three_shapes(self):
        findings = lint_fixture("bad_perf004.py")
        assert codes(findings) == ["PERF004"] * 3
        names = " | ".join(f.message for f in findings)
        assert "'trampoline'" in names
        assert "'returning_trampoline'" in names
        assert "'wait_one'" in names

    def test_plain_return_wrapper_is_clean(self):
        # The PERF004 *fix*: a plain function handing back the
        # generator costs nothing per resume.
        assert lint_snippet("""
            def read(self, n):
                return self._io(n, "read")
        """) == []


# ---------------------------------------------------------------------------
# PERF005 — eager race labels
# ---------------------------------------------------------------------------

class TestPerf005:
    def test_bad_fixture_fires_once(self):
        findings = lint_fixture("bad_perf005.py")
        assert codes(findings) == ["PERF005"]
        assert "self.race.read" in findings[0].message

    def test_constant_label_is_clean(self):
        assert lint_snippet("""
            def touch(self):
                self.race.write("head")
        """) == []


# ---------------------------------------------------------------------------
# hot-set scoping
# ---------------------------------------------------------------------------

class TestHotSetScoping:
    def test_cold_file_is_not_flagged(self):
        # A hot set naming only some other file: every PERF rule goes
        # quiet on this one.
        hotset = make_hotset([{"path": "elsewhere.py", "func": "f",
                               "line": 1, "ncalls": 1000, "tottime": 1.0}])
        assert lint_fixture("bad_perf002.py", hotset=hotset) == []

    def test_hot_function_is_flagged_cold_one_is_not(self):
        # Only per_event is hot: its dict-in-loop fires, per_call's
        # lambda and nested def do not.
        path = os.path.join(FIXTURES, "bad_perf002.py")
        hotset = make_hotset([{"path": path, "func": "per_event",
                               "line": 8, "ncalls": 1000, "tottime": 1.0}])
        findings = lint_fixture("bad_perf002.py", hotset=hotset)
        assert codes(findings) == ["PERF002"]
        assert "dict display" in findings[0].message

    def test_threshold_excludes_cheap_rows(self):
        # A row below both relative thresholds does not enter the set.
        path = os.path.join(FIXTURES, "bad_perf002.py")
        hotset = make_hotset(
            [{"path": path, "func": "per_event", "line": 8,
              "ncalls": 1, "tottime": 1e-6}],
            total_tottime=10.0, total_calls=10_000_000)
        assert hotset.hot_rows == 0
        assert lint_fixture("bad_perf002.py", hotset=hotset) == []

    def test_expansion_reaches_direct_callees(self, tmp_path):
        # hot.py's entry is profiled; the helper it calls lives in a
        # file the profiler never attributed rows to — one level of
        # call-graph expansion still brings the helper into scope.
        hot = tmp_path / "hot.py"
        cold = tmp_path / "cold.py"
        hot.write_text(textwrap.dedent("""\
            from cold import helper

            def entry(items):
                return helper(items)
        """))
        cold.write_text(textwrap.dedent("""\
            def helper(items):
                total = 0
                for item in items:
                    weights = {"a": 1}
                    total += weights.get(item, 0)
                return total

            def untouched(items):
                return [(lambda i: i)(item) for item in items]
        """))
        hotset = make_hotset([{"path": str(hot), "func": "entry",
                               "line": 3, "ncalls": 1000, "tottime": 1.0}])
        findings, errors = analyze_paths([str(tmp_path)], rules=PERF_RULES,
                                         hotset=hotset)
        assert not errors
        assert codes(findings) == ["PERF002"]
        assert findings[0].path == str(cold)

    def test_a_moved_function_row_marks_no_other_def(self, tmp_path):
        # A stale profile: ``moved`` was profiled at line 1, and an
        # edit above it put ``sitting`` there.  The row names ``moved``,
        # so ``sitting`` stays cold and its dict-in-loop is not flagged.
        source = tmp_path / "stale.py"
        source.write_text(textwrap.dedent("""\
            def sitting(items):
                total = 0
                for item in items:
                    weights = {"a": 1}
                    total += weights.get(item, 0)
                return total


            def moved(items):
                return items
        """))
        hotset = make_hotset([{"path": str(source), "func": "moved",
                               "line": 1, "ncalls": 1000, "tottime": 1.0}])
        findings, errors = analyze_paths([str(source)], rules=PERF_RULES,
                                         hotset=hotset)
        assert not errors
        assert findings == []

    def test_an_anonymous_row_marks_its_innermost_enclosing_def(
            self, tmp_path):
        # A ``<genexpr>`` row has no def name of its own: it marks the
        # innermost def that holds its line.  The row at line 6 marks
        # ``owners``; the one at line 11 marks ``inner``, not ``outer``
        # around it, so only ``owners``' dict-in-loop is flagged.
        source = tmp_path / "anonymous.py"
        source.write_text(textwrap.dedent("""\
            def owners(items):
                total = 0
                for item in items:
                    weights = {"a": 1}
                    total += weights.get(item, 0)
                return total + sum(1 for item in items)


            def outer(items):
                def inner(values):
                    return sum(v for v in values)
                for item in items:
                    weights = {"a": 1}
                    inner(weights)
        """))
        hotset = make_hotset([
            {"path": str(source), "func": "<genexpr>", "line": 6,
             "ncalls": 1000, "tottime": 1.0},
            {"path": str(source), "func": "<genexpr>", "line": 11,
             "ncalls": 1000, "tottime": 1.0}])
        findings, errors = analyze_paths([str(source)], rules=PERF_RULES,
                                         hotset=hotset)
        assert not errors
        assert [(f.code, f.line) for f in findings] == [("PERF002", 4)]

    def test_a_decorated_def_is_hot_from_its_decorator_line(self, tmp_path):
        # cProfile reports a decorated function at its decorator's line
        # (``co_firstlineno``), one line above the ``def``.
        source = tmp_path / "decorated.py"
        source.write_text(textwrap.dedent("""\
            def traced(func):
                return func


            @traced
            def per_event(items):
                total = 0
                for item in items:
                    weights = {"a": 1}
                    total += weights.get(item, 0)
                return total
        """))
        hotset = make_hotset([{"path": str(source), "func": "per_event",
                               "line": 5, "ncalls": 1000, "tottime": 1.0}])
        findings, errors = analyze_paths([str(source)], rules=PERF_RULES,
                                         hotset=hotset)
        assert not errors
        assert codes(findings) == ["PERF002"]
        assert findings[0].line == 9

    def test_load_roundtrip(self, tmp_path):
        payload = {"schema": 1, "bench": "fig4", "scale": "smoke",
                   "total_tottime": 2.0, "total_calls": 1000,
                   "rows": [{"path": "src/repro/sim/kernel.py",
                             "func": "step", "line": 10,
                             "ncalls": 900, "tottime": 1.5}]}
        profile = tmp_path / "profile.json"
        profile.write_text(json.dumps(payload))
        hotset = HotSet.load(str(profile))
        assert hotset.hot_rows == 1
        assert hotset.file_is_hot("repro/sim/kernel.py")
        assert hotset.file_is_hot("/abs/prefix/src/repro/sim/kernel.py")
        assert not hotset.file_is_hot("src/repro/sim/monitor.py")
