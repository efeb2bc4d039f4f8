"""Precision tests for the DET002 environment rule.

``bad_det002.py`` is a pure true-positive corpus; ``good_det.py`` must
be clean under the whole DET family.
"""

import os
import textwrap

from repro.analyze import DET_RULES
from repro.analyze.detrules import rule_det002
from repro.analyze.linter import analyze_paths, analyze_source

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")


def lint_fixture(name, rules=DET_RULES):
    findings, errors = analyze_paths(
        [os.path.join(FIXTURES, name)], rules=rules)
    assert errors == []
    return findings


def lint_snippet(source, rules=DET_RULES, path="snippet.py"):
    return analyze_source(textwrap.dedent(source), path=path, rules=rules)


def codes(findings):
    return [f.code for f in findings]


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
# The true-negative corpus
# ---------------------------------------------------------------------------

def test_good_fixture_is_clean_under_the_whole_family():
    assert lint_fixture("good_det.py") == []
