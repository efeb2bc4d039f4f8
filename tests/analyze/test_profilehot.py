"""The profile writer (``python -m repro.analyze.profilehot``) and the
committed hot set it wrote (``BENCH_profile.json``).

The payload test profiles one tiny run; the committed-profile test
parses the tree only, so a change that moves a hot def without
regenerating the profile fails here instead of silently dropping the
def out of PERF scope.
"""

import ast
import os

from repro.analyze.profilehot import HotSet, main, profile_payload
from repro.experiments.scale import SMOKE
from repro.experiments.sweep import ycsb_spec
from repro.ycsb.workload import WORKLOAD_A

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))
ROW_KEYS = {"path", "func", "line", "ncalls", "tottime", "cumtime"}


def test_payload_of_a_tiny_run():
    spec = ycsb_spec(WORKLOAD_A, 4, 4, SMOKE.with_(ops_per_client=5))
    payload = profile_payload(spec, bench="fig4", scale="smoke")
    assert payload["schema"] == 1
    assert set(payload) == {"schema", "bench", "scale", "total_tottime",
                            "total_calls", "rows"}
    assert payload["total_tottime"] > 0
    rows = payload["rows"]
    assert rows, "profile captured no rows"
    assert all(set(row) == ROW_KEYS for row in rows)
    assert rows == sorted(rows, key=lambda r: (-r["tottime"], r["path"],
                                               r["line"]))
    assert any(r["path"] == "src/repro/sim/kernel.py" for r in rows), \
        "the kernel should appear in its own profile"
    assert not [r["path"] for r in rows if REPO_ROOT in r["path"]]


def test_main_refuses_to_profile_with_sanitizers_on(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_SIM_DEBUG", "1")
    out = tmp_path / "profile.json"
    assert main(["--write", str(out)]) == 2
    assert not out.exists()


def _defs(path):
    with open(path, encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    return [node for node in ast.walk(tree)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))]


def test_every_hot_row_of_the_committed_profile_marks_a_def():
    hotset = HotSet.load(os.path.join(REPO_ROOT, "BENCH_profile.json"))
    rows = [(suffix, func, line)
            for suffix, entries in hotset._by_suffix.items()
            if suffix.startswith("repro/") for func, line in entries]
    assert rows, "the committed profile has no hot repro/ rows"
    unmarked = []
    for suffix, func, line in rows:
        path = os.path.join(REPO_ROOT, "src", suffix)
        one_row = HotSet([{"path": suffix, "func": func, "line": line,
                           "ncalls": 1, "tottime": 1.0}],
                         total_tottime=1.0, total_calls=1)
        if not (os.path.exists(path) and any(
                one_row.function_is_hot(path, node) for node in _defs(path))):
            unmarked.append(f"{suffix}:{line} {func}")
    assert not unmarked, (
        "hot rows that mark no def; regenerate the profile with "
        "`python -m repro.analyze.profilehot --write BENCH_profile.json`: "
        + ", ".join(unmarked))
