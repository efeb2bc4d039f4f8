"""Command line of the repo benchmark.

``python -m bench --workload W --seed N --seconds S --trace 0|1`` is
the driver's contract: one workload in this process, every declared
metric printed by name with its unit, outputs checked, and one JSON
object as the last line of standard output.  Without ``--workload``
every workload runs, each in a fresh child process (so
``host_peak_rss_mb`` is per workload).  ``--repeat-check`` runs the
untraced set twice and compares the two against the declared bounds.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys
from typing import Dict, List, Optional, Sequence

from bench import REPO_ROOT
from bench.cells import CELLS, Cell
from bench.measure import Report, run_untraced
from bench.traced import run_traced

BENCHMARK_JSON = os.path.join(REPO_ROOT, "BENCHMARK.json")
CHILD_TIMEOUT_S = 180


def load_declared() -> dict:
    """``BENCHMARK.json``: the one place names, units, directions and
    bounds are declared."""
    with open(BENCHMARK_JSON) as handle:
        return json.load(handle)


def parse_args(argv: Optional[Sequence[str]], declared: dict):
    parser = argparse.ArgumentParser(prog="python -m bench",
                                     description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="run only this workload, in "
                        "this process (default: all, one child each)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float,
                        default=float(declared["run_seconds"]),
                        help="host seconds an untraced run repeats the cell")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1 = traced run: per-layer metrics")
    parser.add_argument("--traced", action="store_const", const=1,
                        dest="trace", help="same as --trace 1")
    parser.add_argument("--trace-out", metavar="PATH",
                        help="traced run: write Chrome-trace JSON here")
    parser.add_argument("--repeat-check", action="store_true",
                        help="run the untraced set twice and compare")
    parser.add_argument("--ops-scale", type=float, default=1.0,
                        help="multiply every cell's op count (tests only)")
    return parser.parse_args(argv)


def result_line(report: Report, declared: dict, trace: int) -> str:
    """The JSON object the contract wants on the last line.  Raises if a
    correct run's metric names differ from the declared ones."""
    section = declared["per_layer" if trace else "end_to_end"]
    units = {row["name"]: row["unit"] for row in section}
    if report.correct and set(report.metrics) != set(units):
        missing = sorted(set(units) - set(report.metrics))
        extra = sorted(set(report.metrics) - set(units))
        raise AssertionError(f"metrics differ from BENCHMARK.json: "
                             f"missing {missing}, undeclared {extra}")
    return json.dumps({
        "correct": report.correct,
        "attempted": report.attempted,
        "failed": report.failed,
        "metrics": {name: {"value": value, "unit": units.get(name, "")}
                    for name, value in report.metrics.items()},
    })


def print_report(report: Report, declared: dict, trace: int) -> None:
    section = declared["per_layer" if trace else "end_to_end"]
    print(f"== {report.workload}  seed {report.seed}  "
          f"({'traced: per-layer' if trace else 'untraced: end-to-end'}) ==")
    for note in report.notes:
        print(note)
    print(f"operations attempted {report.attempted}, failed {report.failed}")
    for row in section:
        name = row["name"]
        if name not in report.metrics:
            continue
        bound = f"  bound {100 * row['bound']:g} %" if "bound" in row else ""
        print(f"  {name:<46}{report.metrics[name]:>18,.4f} {row['unit']:<8}"
              f"{row['better']:>7} is better{bound}")
    for problem in report.problems:
        print(f"FAILED: {problem}")


def run_here(cell: Cell, args, declared: dict) -> int:
    """Run one workload in this process; exit code 0 only if correct."""
    if args.trace:
        report = run_traced(cell, args.seed, args.ops_scale, args.trace_out)
    else:
        report = run_untraced(cell, args.seed, args.seconds, args.ops_scale)
    print_report(report, declared, args.trace)
    print(result_line(report, declared, args.trace), flush=True)
    return 0 if report.correct else 1


def run_child(workload: str, args) -> Optional[dict]:
    """Run one workload in a fresh child; its output passes through and
    its result line is parsed (None if it failed)."""
    command = [sys.executable, "-m", "bench", "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--ops-scale", str(args.ops_scale)]
    if args.trace_out:
        root, ext = os.path.splitext(args.trace_out)
        command += ["--trace-out", f"{root}.{workload}{ext}"]
    # Its own session, so that a child that hangs is killed together
    # with anything it started: nothing outlives this call.
    child = subprocess.Popen(command, cwd=REPO_ROOT, stdout=subprocess.PIPE,
                             text=True, start_new_session=True)
    try:
        stdout, _ = child.communicate(timeout=CHILD_TIMEOUT_S)
    except BaseException:
        os.killpg(child.pid, signal.SIGKILL)
        child.communicate()
        raise
    sys.stdout.write(stdout)
    sys.stdout.flush()
    if child.returncode != 0:
        return None
    return json.loads(stdout.rstrip().rsplit("\n", 1)[-1])


def run_all(cells: Sequence[Cell], args) -> Dict[str, Optional[dict]]:
    return {cell.name: run_child(cell.name, args) for cell in cells}


def repeat_check(cells: Sequence[Cell], args, declared: dict) -> int:
    """Two untraced sets of the same code and seed: host metrics must
    agree within their bounds, every ``sim_*`` metric exactly."""
    first, second = run_all(cells, args), run_all(cells, args)
    failures: List[str] = []
    print(f"\n{'workload':<14}{'metric':<22}{'first':>16}{'second':>16}"
          f"{'diff %':>9}{'bound %':>9}")
    for cell in cells:
        a, b = first[cell.name], second[cell.name]
        if a is None or b is None:
            failures.append(f"{cell.name}: a run failed")
            continue
        for row in declared["end_to_end"]:
            name = row["name"]
            x = a["metrics"][name]["value"]
            y = b["metrics"][name]["value"]
            worse = (y - x) / x if row["better"] == "lower" else (x - y) / x
            exact = name.startswith("sim_")
            limit = 0.0 if exact else row["bound"]
            bad = (x != y) if exact else worse > limit
            print(f"{cell.name:<14}{name:<22}{x:>16,.4f}{y:>16,.4f}"
                  f"{100 * worse:>9.2f}{100 * limit:>9g}"
                  f"{'  FAILED' if bad else ''}")
            if bad:
                failures.append(f"{cell.name} {name}: {x!r} vs {y!r}")
    for failure in failures:
        print(f"FAILED: {failure}")
    return 1 if failures else 0


def main(argv: Optional[Sequence[str]] = None,
         cells: Sequence[Cell] = CELLS) -> int:
    declared = load_declared()
    args = parse_args(argv, declared)
    if args.repeat_check:
        args.trace = 0
        return repeat_check(cells, args, declared)
    if args.workload is None:
        results = run_all(cells, args)
        return 0 if all(results.values()) else 1
    for cell in cells:
        if cell.name == args.workload:
            return run_here(cell, args, declared)
    print(f"unknown workload {args.workload!r}: choose from "
          f"{', '.join(c.name for c in cells)}", file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main())
