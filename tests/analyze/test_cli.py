"""CLI contract of ``python -m repro.analyze``: exit codes and output.

This is what CI runs — exit 0 on the real tree, non-zero on the bad
fixtures — so the contract is pinned here.
"""

import json
import os
import re
import subprocess
import sys

from repro.analyze import iter_python_files

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))
FIXTURES = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                        "fixtures")


# A suppression pragma's codes: ``disable=SIM003,...`` / ``ignore[...]``.
_PRAGMA = re.compile(r"simlint:\s*(?:disable=|ignore\[)"
                     r"([A-Z]+\d{3}(?:\s*,\s*[A-Z]+\d{3})*)")


def catalogue(list_rules_output):
    """The rule codes ``--list-rules`` printed."""
    return set(re.findall(r"^  ([A-Z]+\d{3}) ", list_rules_output, re.M))


def run_cli(*args):
    env = dict(os.environ)
    env["PYTHONPATH"] = (os.path.join(REPO_ROOT, "src")
                         + os.pathsep + env.get("PYTHONPATH", ""))
    return subprocess.run(
        [sys.executable, "-m", "repro.analyze", *args],
        capture_output=True, text=True, env=env, cwd=REPO_ROOT)


def test_clean_tree_exits_zero():
    proc = run_cli("src")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.strip() == ""


def test_bad_fixtures_exit_nonzero_and_name_every_rule():
    proc = run_cli(FIXTURES)
    assert proc.returncode == 1
    for code in ("SIM002", "SIM003", "SIM004", "SIM005", "SIM006",
                 "SIM007"):
        assert code in proc.stdout, f"{code} missing from:\n{proc.stdout}"
    assert "finding(s)" in proc.stderr


def test_select_runs_only_chosen_rules():
    proc = run_cli("--select", "SIM004", FIXTURES)
    assert proc.returncode == 1
    assert "SIM004" in proc.stdout
    assert "SIM002" not in proc.stdout


def test_select_unknown_code_is_usage_error():
    proc = run_cli("--select", "SIM999", FIXTURES)
    assert proc.returncode == 2
    assert "unknown rule code" in proc.stderr


def test_missing_path_is_usage_error():
    proc = run_cli("no/such/dir")
    assert proc.returncode == 2
    assert "no such file or directory: no/such/dir" in proc.stderr
    assert proc.stdout.strip() == ""


def test_one_missing_path_among_good_ones_still_errors():
    proc = run_cli("src", "no/such/dir")
    assert proc.returncode == 2
    assert "no/such/dir" in proc.stderr


def test_list_rules_prints_catalogue():
    proc = run_cli("--list-rules")
    assert proc.returncode == 0
    assert catalogue(proc.stdout) == {
        "SIM002", "SIM003", "SIM004", "SIM005", "SIM006", "SIM007",
        "PERF001", "PERF002", "PERF003", "PERF004", "PERF005",
        "DET002",
    }


def test_every_pragma_names_a_catalogued_code():
    # A pragma for a deleted rule silences nothing and tells the reader
    # a rule guards the line when none does.
    codes = catalogue(run_cli("--list-rules").stdout)
    fixtures = os.path.join(REPO_ROOT, "tests", "analyze", "fixtures")
    roots = [os.path.join(REPO_ROOT, d)
             for d in ("src", "examples", "tools", "tests")]
    stale = []
    for path in iter_python_files(roots):
        if path.startswith(fixtures + os.sep):
            continue
        with open(path, encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, 1):
                for match in _PRAGMA.finditer(line):
                    for code in re.split(r"\s*,\s*", match.group(1)):
                        if code not in codes:
                            stale.append(f"{path}:{lineno}: {code}")
    assert codes and not stale, "\n".join(stale)


def test_json_format_is_machine_readable():
    proc = run_cli("--format", "json",
                   os.path.join(FIXTURES, "bad_sim006.py"))
    assert proc.returncode == 1
    report = json.loads(proc.stdout)
    assert report["errors"] == []
    assert len(report["findings"]) == 4
    for finding in report["findings"]:
        assert finding["code"] == "SIM006"
        assert finding["path"].endswith("bad_sim006.py")
        assert isinstance(finding["line"], int) and finding["line"] > 0


def test_json_format_on_clean_tree_is_empty_report():
    proc = run_cli("--format", "json", "src")
    assert proc.returncode == 0
    report = json.loads(proc.stdout)
    assert report == {"errors": [], "findings": []}


# ---------------------------------------------------------------------------
# --select PERF / --profile-json (the PERF rules' CLI surface)
# ---------------------------------------------------------------------------

def test_select_sim_perf_runs_perf_rules_on_fixtures():
    proc = run_cli("--select", "SIM,PERF", FIXTURES)
    assert proc.returncode == 1
    for code in ("PERF001", "PERF002", "PERF003", "PERF004", "PERF005"):
        assert code in proc.stdout, f"{code} missing from:\n{proc.stdout}"


def test_default_selection_leaves_perf_rules_off():
    proc = run_cli(os.path.join(FIXTURES, "bad_perf002.py"))
    assert proc.returncode == 0
    assert proc.stdout.strip() == ""


def test_select_perf_code_directly():
    proc = run_cli("--select", "PERF004",
                   os.path.join(FIXTURES, "bad_perf004.py"))
    assert proc.returncode == 1
    assert "PERF004" in proc.stdout
    assert "PERF002" not in proc.stdout


def test_perf_scoped_by_committed_profile_is_clean_on_tree():
    # The CI invocation: every family over the real tree, the PERF
    # rules scoped to the committed benchmark profile — zero
    # unsuppressed findings.
    profile = os.path.join(REPO_ROOT, "BENCH_profile.json")
    proc = run_cli("--select", "SIM,PERF,DET", "--profile-json", profile,
                   "src", "examples", "tools")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.strip() == ""


def test_missing_profile_is_usage_error():
    proc = run_cli("--profile-json", "no/such/profile.json", "src")
    assert proc.returncode == 2
    assert "no such profile" in proc.stderr


def test_list_rules_includes_perf_catalogue():
    proc = run_cli("--list-rules")
    assert proc.returncode == 0
    for code in ("PERF001", "PERF002", "PERF003", "PERF004", "PERF005"):
        assert code in proc.stdout


# ---------------------------------------------------------------------------
# --select/--ignore families and the DET rules' CLI surface
# ---------------------------------------------------------------------------

def test_select_det_family_runs_all_det_rules():
    proc = run_cli("--select", "DET", FIXTURES)
    assert proc.returncode == 1
    assert "DET002" in proc.stdout
    assert "SIM" not in proc.stdout
    assert "PERF002" not in proc.stdout


def test_det_pass_on_the_real_tree_is_clean():
    # The state-isolation family alone over the whole tree.
    proc = run_cli("--select", "DET", "src", "examples", "tools")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.strip() == ""


def test_select_mixes_family_and_single_code():
    proc = run_cli("--select", "DET002,SIM004", FIXTURES)
    assert proc.returncode == 1
    assert "DET002" in proc.stdout
    assert "SIM004" in proc.stdout
    assert "SIM002" not in proc.stdout


def test_ignore_drops_a_family_from_the_selection():
    proc = run_cli("--select", "SIM,PERF", "--ignore", "PERF", FIXTURES)
    assert proc.returncode == 1
    assert "SIM007" in proc.stdout
    assert "PERF" not in proc.stdout


def test_ignore_drops_a_single_code():
    proc = run_cli("--select", "DET", "--ignore", "DET002",
                   os.path.join(FIXTURES, "bad_det002.py"))
    assert proc.returncode == 0
    assert proc.stdout.strip() == ""


def test_ignore_unknown_token_is_usage_error():
    proc = run_cli("--ignore", "NOPE", FIXTURES)
    assert proc.returncode == 2
    assert "unknown rule code" in proc.stderr


def test_list_rules_groups_by_family():
    proc = run_cli("--list-rules")
    assert proc.returncode == 0
    for header in ("SIM —", "PERF —", "DET —"):
        assert header in proc.stdout, f"{header!r} missing:\n{proc.stdout}"
    assert "DET002" in proc.stdout
