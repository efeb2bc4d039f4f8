"""Precision tests for the DET001–DET006 state-isolation rules.

Each bad fixture is a pure true-positive corpus for one rule (linted
single-rule, so cross-rule noise like the DET001 registry write inside
bad_det006 stays out of the assertion); ``good_det.py`` must be clean
under the whole family.  The :class:`~repro.analyze.stateflow.
StateIndex` fixed points get their own unit tests — the rules are only
as good as the analysis under them.
"""

import os
import textwrap

from repro.analyze import DET_RULES
from repro.analyze.detrules import (
    rule_det001,
    rule_det002,
    rule_det003,
    rule_det004,
    rule_det005,
    rule_det006,
)
from repro.analyze.linter import Module, analyze_paths, analyze_source
from repro.analyze.stateflow import CONSTANT, MUTABLE, REGISTRY, StateIndex

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")


def lint_fixture(name, rules=DET_RULES):
    findings, errors = analyze_paths(
        [os.path.join(FIXTURES, name)], rules=rules)
    assert errors == []
    return findings


def lint_snippet(source, rules=DET_RULES, path="snippet.py"):
    return analyze_source(textwrap.dedent(source), path=path, rules=rules)


def parse_module(source, path="snippet.py"):
    return Module.parse(textwrap.dedent(source), path)


def codes(findings):
    return [f.code for f in findings]


# ---------------------------------------------------------------------------
# The StateIndex under the rules
# ---------------------------------------------------------------------------

class TestStateIndex:
    def test_top_level_classifications(self):
        mod = parse_module("""
            LIMIT = 10
            PAIRS = ((1, 2), (3, 4))
            TABLE = {"a": 1}
            _CACHE = None
        """)
        idx = StateIndex([mod])
        assert idx.classification(mod, "LIMIT") == CONSTANT
        assert idx.classification(mod, "PAIRS") == CONSTANT
        assert idx.classification(mod, "TABLE") == REGISTRY
        # A None placeholder is a lazy-init slot, not a constant.
        assert idx.classification(mod, "_CACHE") == REGISTRY

    def test_runtime_write_flips_classification_to_mutable(self):
        mod = parse_module("""
            TABLE = {"a": 1}

            def grow():
                TABLE["b"] = 2
        """)
        idx = StateIndex([mod])
        assert idx.classification(mod, "TABLE") == MUTABLE
        [write] = idx.writes_in(mod)
        # ...but the write site remembers what it was before the flip.
        assert write.classification == REGISTRY
        assert write.kind == "mutate"
        assert write.func_name == "grow"

    def test_transitive_mutator_fixed_point(self):
        mod = parse_module("""
            STATE = {}

            def sink():
                STATE["k"] = 1

            def middle():
                sink()

            def top():
                middle()

            def bystander():
                return 1
        """)
        idx = StateIndex([mod])
        for name in ("sink", "middle", "top"):
            assert idx.transitively_mutates(name), name
        assert not idx.transitively_mutates("bystander")

    def test_cell_reachability_is_forward_from_registry(self):
        mod = parse_module("""
            def helper():
                return 1

            def pure_cell(params, seed, scale):
                return helper()

            def unrelated():
                return 2

            SWEEP_CELLS = {"pure": pure_cell}
        """)
        idx = StateIndex([mod])
        assert idx.scoped
        assert idx.reachable_from_cells("pure_cell")
        assert idx.reachable_from_cells("helper")
        assert not idx.reachable_from_cells("unrelated")

    def test_without_a_registry_everything_is_reachable(self):
        mod = parse_module("def f():\n    return 1\n")
        idx = StateIndex([mod])
        assert not idx.scoped
        assert idx.reachable_from_cells("f")

    def test_real_tree_roots_at_every_registered_cell(self):
        # The experiment registry merges each module's SWEEP_CELLS at
        # import time; the linter reads the same dicts statically.  A
        # cell registered some other way would run in workers without
        # DET001/DET004 ever looking at what it can reach.
        from repro.experiments import registry
        package = os.path.dirname(registry.__file__)
        modules = []
        for name in sorted(os.listdir(package)):
            if name.endswith(".py"):
                path = os.path.join(package, name)
                with open(path, encoding="utf-8") as fh:
                    modules.append(Module.parse(fh.read(), path))
        idx = StateIndex(modules)
        assert idx.scoped
        registered = {cell.__name__ for cell in registry.CELLS.values()}
        assert len(registered) >= 15
        assert registered <= idx.cell_seed_names
        # ...and the shared cell body is reachable from them.
        assert idx.reachable_from_cells("run_cell")
        assert idx.reachable_from_cells("ycsb_spec")


# ---------------------------------------------------------------------------
# DET001 — module state written at runtime
# ---------------------------------------------------------------------------

class TestDet001:
    def test_fixture_finds_every_write_shape(self):
        findings = lint_fixture("bad_det001.py", rules=[rule_det001])
        assert codes(findings) == ["DET001"] * 5
        messages = "\n".join(f.message for f in findings)
        assert "rebound via 'global'" in messages
        assert "mutated in place" in messages
        assert "written through its class" in messages
        assert "transitively calls" in messages

    def test_cell_reachable_writes_say_so(self):
        findings = lint_fixture("bad_det001.py", rules=[rule_det001])
        remember = [f for f in findings if "'remember'" in f.message]
        assert remember and all("reachable from a sweep cell" in f.message
                                for f in remember)

    def test_local_shadowing_is_not_a_write(self):
        findings = lint_snippet("""
            TABLE = {}

            def local_work():
                TABLE = {}
                TABLE["x"] = 1
                return TABLE
        """, rules=[rule_det001])
        assert findings == []

    def test_pragma_sanctions_a_registry(self):
        findings = lint_snippet("""
            _CACHE = None

            def resolve():
                global _CACHE
                _CACHE = 1  # simlint: disable=DET001 resolve-once cache
                return _CACHE
        """, rules=[rule_det001])
        assert findings == []


# ---------------------------------------------------------------------------
# DET002 — os.environ outside sweep/scale
# ---------------------------------------------------------------------------

class TestDet002:
    def test_fixture_finds_every_spelling(self):
        findings = lint_fixture("bad_det002.py", rules=[rule_det002])
        assert codes(findings) == ["DET002"] * 5

    def test_sanctioned_modules_are_exempt(self):
        source = """
            import os

            def resolve(name):
                return os.environ.get(name, "")
        """
        assert lint_snippet(source, rules=[rule_det002],
                            path="src/repro/experiments/scale.py") == []
        assert lint_snippet(source, rules=[rule_det002],
                            path="src/repro/experiments/sweep.py") == []
        assert codes(lint_snippet(source, rules=[rule_det002])) == ["DET002"]

    def test_unrelated_environ_name_is_not_flagged(self):
        findings = lint_snippet("""
            def run(host):
                environ = {"local": "mapping"}
                return environ["local"]
        """, rules=[rule_det002])
        assert findings == []


# ---------------------------------------------------------------------------
# DET003 — shared mutable class attrs / defaults
# ---------------------------------------------------------------------------

class TestDet003:
    def test_fixture_finds_both_shapes(self):
        findings = lint_fixture("bad_det003.py", rules=[rule_det003])
        assert codes(findings) == ["DET003"] * 4
        messages = "\n".join(f.message for f in findings)
        assert "shared by every instance" in messages
        assert "shared across calls" in messages

    def test_none_default_and_instance_state_are_clean(self):
        findings = lint_snippet("""
            class Worker:
                LIMIT = 8

                def __init__(self):
                    self.items = []

            def helper(acc=None):
                acc = [] if acc is None else acc
                return acc
        """, rules=[rule_det003])
        assert findings == []


# ---------------------------------------------------------------------------
# DET004 — memo caches reachable from cells
# ---------------------------------------------------------------------------

class TestDet004:
    def test_only_the_cell_reachable_memo_fires(self):
        findings = lint_fixture("bad_det004.py", rules=[rule_det004])
        assert codes(findings) == ["DET004"]
        assert "lookup_latency" in findings[0].message
        assert "docs_table" not in findings[0].message

    def test_unscoped_module_flags_every_memo(self):
        findings = lint_snippet("""
            from functools import lru_cache

            @lru_cache(maxsize=None)
            def anything():
                return 1
        """, rules=[rule_det004])
        assert codes(findings) == ["DET004"]


# ---------------------------------------------------------------------------
# DET005 — process-local values in deterministic outputs
# ---------------------------------------------------------------------------

class TestDet005:
    def test_fixture_finds_every_context(self):
        findings = lint_fixture("bad_det005.py", rules=[rule_det005])
        assert codes(findings) == ["DET005"] * 4
        messages = "\n".join(f.message for f in findings)
        assert "sort key" in messages
        assert "formatted label" in messages
        assert "digest (sha256)" in messages

    def test_uncontextualized_pid_is_not_flagged(self):
        findings = lint_snippet("""
            import os

            def diagnostics():
                return os.getpid()
        """, rules=[rule_det005])
        assert findings == []

    def test_deterministic_sort_key_is_clean(self):
        findings = lint_snippet("""
            def stable(items):
                return sorted(items, key=lambda pair: pair[0])
        """, rules=[rule_det005])
        assert findings == []


# ---------------------------------------------------------------------------
# DET006 — unshippable sweep cell payloads
# ---------------------------------------------------------------------------

class TestDet006:
    def test_fixture_finds_every_payload_shape(self):
        findings = lint_fixture("bad_det006.py", rules=[rule_det006])
        assert codes(findings) == ["DET006"] * 4
        messages = "\n".join(f.message for f in findings)
        assert "lambda" in messages
        assert "closure" in messages
        assert "process-local Simulator" in messages

    def test_module_level_function_payload_is_clean(self):
        findings = lint_snippet("""
            def pure_cell(params, seed, scale):
                return seed

            SWEEP_CELLS = {"pure": pure_cell}
        """, rules=[rule_det006])
        assert findings == []


# ---------------------------------------------------------------------------
# The true-negative corpus
# ---------------------------------------------------------------------------

def test_good_fixture_is_clean_under_the_whole_family():
    assert lint_fixture("good_det.py") == []
