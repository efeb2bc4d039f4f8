#!/usr/bin/env python
"""Kernel benchmark harness: the repo's perf trajectory.

Runs canonical paper workload cells (the fig4 configuration: workload A,
20 servers, 30 clients, replication disabled) through the real
``run_experiment`` path and measures **kernel events per wall-clock
second** — the unit every optimization PR must move, committed to
``BENCH_kernel.json`` so regressions are visible in CI.

Three modes:

* ``--update`` appends a labelled entry to ``BENCH_kernel.json``;
* ``--check`` re-runs the benches and fails (exit 1) if events/sec fell
  below ``tolerance × baseline`` for the same bench+scale (wall time is
  machine-dependent, so the committed baseline is only a floor with a
  generous default tolerance);
* ``--profile-json`` additionally runs the first bench under cProfile
  and dumps the per-function rows as JSON — the hot-set input for the
  profile-guided lint rules (``python -m repro.analyze --select PERF``).

Determinism note: the benches measure *wall time only*.  Simulated
results are pinned separately by the determinism digests
(``tests/analyze/test_determinism.py``); this harness asserts the op
count so a silently-shrunk workload cannot fake a speedup.
"""

from __future__ import annotations

import argparse
import cProfile
import json
import os
import pstats
import sys
import time
from typing import Dict, List, Optional

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(REPO_ROOT, "src"))

BENCH_JSON = os.path.join(REPO_ROOT, "BENCH_kernel.json")
SCHEMA = 1

# Canonical cells.  ``fig4`` is the paper's Fig. 4a workload-A column
# (the most contended cell: 50 % updates through the log-append lock);
# ``fig4_debug`` is the same cell with the runtime sanitizers attached,
# tracking the cost of ``Simulator(debug=True)``.  ``fig4_sweep`` runs
# the same cell across seeds through the parallel sweep runner
# (repro.experiments.sweep) — aggregate events/sec over all workers, so
# it tracks the multi-process speedup on top of the kernel's.
# ``fig_index`` is the secondary-index cell: the lookup-heavy mix over
# a 2-indexlet index, exercising the Search fan-out and the index
# maintenance on the write path.
BENCHES = ("fig4", "fig4_debug", "fig4_sweep", "fig_index")


def _build_spec(servers: int, clients: int, ops: Optional[int],
                scale_name: str, indexed: bool = False):
    from repro.cluster import ClusterSpec, ExperimentSpec
    from repro.experiments.scale import scale_named
    from repro.ramcloud.config import ServerConfig
    from repro.ycsb.workload import WORKLOAD_A, WORKLOAD_LOOKUP_HEAVY

    scale = scale_named(scale_name)
    base = WORKLOAD_LOOKUP_HEAVY if indexed else WORKLOAD_A
    workload = base.scaled(num_records=scale.num_records,
                           ops_per_client=scale.ops_per_client)
    if ops is not None:
        workload = workload.scaled(num_records=scale.num_records,
                                   ops_per_client=ops)
    return ExperimentSpec(
        cluster=ClusterSpec(
            num_servers=servers, num_clients=clients, seed=1,
            server_config=ServerConfig(replication_factor=0)),
        workload=workload,
    )


def run_bench(name: str, scale: str, servers: int, clients: int,
              ops: Optional[int]) -> Dict[str, float]:
    """Run one bench cell and return its measurement row."""
    from repro.cluster import run_experiment

    debug = name.endswith("_debug")
    spec = _build_spec(servers, clients, ops, scale,
                       indexed=name == "fig_index")
    previous = os.environ.get("REPRO_SIM_DEBUG")  # simlint: disable=DET002 bench harness pins+restores the knob like the sweep does
    os.environ["REPRO_SIM_DEBUG"] = "1" if debug else "0"  # simlint: disable=DET002 bench harness pins+restores the knob like the sweep does
    try:
        # The wall clock is the measurand here, not simulation state.
        start = time.perf_counter()  # simlint: disable=SIM003 benchmarking wall time
        result = run_experiment(spec)
        wall = time.perf_counter() - start  # simlint: disable=SIM003 benchmarking wall time
    finally:
        if previous is None:
            os.environ.pop("REPRO_SIM_DEBUG", None)  # simlint: disable=DET002 restoring the snapshot taken above
        else:
            os.environ["REPRO_SIM_DEBUG"] = previous  # simlint: disable=DET002 restoring the snapshot taken above
    expected = spec.workload.ops_per_client * clients
    if result.total_ops + result.client_errors < expected:
        raise RuntimeError(
            f"{name}: completed {result.total_ops} + {result.client_errors} "
            f"errors < expected {expected} ops — bench workload shrank")
    return {
        "bench": name,
        "scale": scale,
        "servers": servers,
        "clients": clients,
        "ops": result.total_ops,
        "events": result.sim_events,
        "wall_s": round(wall, 4),
        "events_per_s": round(result.sim_events / wall, 1),
    }


def run_sweep_bench(scale: str, servers: int, clients: int,
                    ops: Optional[int], seeds: int = 4,
                    workers: Optional[int] = None) -> Dict[str, float]:
    """Run the fig4 cell across ``seeds`` seeds through the parallel
    sweep runner; events/sec is the aggregate over every worker."""
    from repro.experiments.scale import scale_named
    from repro.experiments.sweep import run_sweep
    from repro.experiments.workloads import fig4_sweep_plan

    sc = scale_named(scale)
    if ops is not None:
        sc = sc.with_(ops_per_client=ops)
    plan = fig4_sweep_plan(sc, seeds=tuple(range(1, seeds + 1)),
                           client_counts=(clients,), servers=servers,
                           workload_names=("A",))
    previous = os.environ.get("REPRO_SIM_DEBUG")  # simlint: disable=DET002 bench harness pins+restores the knob like the sweep does
    os.environ["REPRO_SIM_DEBUG"] = "0"  # simlint: disable=DET002 bench harness pins+restores the knob like the sweep does
    try:
        # The wall clock is the measurand here, not simulation state.
        start = time.perf_counter()  # simlint: disable=SIM003 benchmarking wall time
        report = run_sweep(plan, workers=workers, retries=0)
        wall = time.perf_counter() - start  # simlint: disable=SIM003 benchmarking wall time
    finally:
        if previous is None:
            os.environ.pop("REPRO_SIM_DEBUG", None)  # simlint: disable=DET002 restoring the snapshot taken above
        else:
            os.environ["REPRO_SIM_DEBUG"] = previous  # simlint: disable=DET002 restoring the snapshot taken above
    failed = report.failed()
    if failed:
        raise RuntimeError(f"fig4_sweep: {len(failed)} cells failed")
    events = sum(r.outcome.events for r in report.results)
    total_ops = sum(r.outcome.ops for r in report.results)
    errors = sum(int(r.outcome.metrics["client_errors"])
                 for r in report.results)
    expected = sc.ops_per_client * clients * seeds
    if total_ops + errors < expected:
        raise RuntimeError(
            f"fig4_sweep: completed {total_ops} + {errors} errors < "
            f"expected {expected} ops — bench workload shrank")
    return {
        "bench": "fig4_sweep",
        "scale": scale,
        "servers": servers,
        "clients": clients,
        "seeds": seeds,
        "workers": report.workers,
        "ops": total_ops,
        "events": events,
        "wall_s": round(wall, 4),
        "events_per_s": round(events / wall, 1),
    }


def _portable_path(path: str) -> str:
    """A profiled file's path without the checkout's or interpreter's
    location: repo files repo-relative (``src/repro/sim/kernel.py``, as
    the linter sees them), standard-library files under ``<python>/``."""
    for root, prefix in ((REPO_ROOT, ""), (sys.base_prefix, "<python>/")):
        if path.startswith(root + os.sep):
            return prefix + os.path.relpath(path, root).replace(os.sep, "/")
    return path.replace(os.sep, "/")


def profile_bench(name: str, scale: str, servers: int, clients: int,
                  ops: Optional[int], out_path: str,
                  top: int = 120) -> None:
    """Run one bench under cProfile and dump the hot rows as JSON.

    Rows are ordered by ``tottime`` (self time) — the quantity the
    PERF rules care about — and carry enough identity (path, function
    name, first line) for :mod:`repro.analyze.profilehot` to map them
    back onto source files.
    """
    profiler = cProfile.Profile()
    profiler.enable()
    try:
        run_bench(name, scale, servers, clients, ops)
    finally:
        profiler.disable()
    stats = pstats.Stats(profiler)
    total_tt = 0.0
    rows: List[Dict] = []
    for (path, line, func), (cc, nc, tt, ct, _callers) in stats.stats.items():
        total_tt += tt
        if path.startswith("<") or func.startswith("<module>"):
            continue
        rows.append({
            "path": _portable_path(path),
            "func": func,
            "line": line,
            "ncalls": nc,
            "tottime": round(tt, 6),
            "cumtime": round(ct, 6),
        })
    rows.sort(key=lambda r: (-r["tottime"], r["path"], r["line"]))
    payload = {
        "schema": SCHEMA,
        "bench": name,
        "scale": scale,
        "total_tottime": round(total_tt, 6),
        "total_calls": stats.total_calls,
        "rows": rows[:top],
    }
    with open(out_path, "w") as fh:
        json.dump(payload, fh, indent=1)
        fh.write("\n")
    print(f"wrote profile ({len(payload['rows'])} rows) to {out_path}")


# -- the committed trajectory -----------------------------------------


def load_baseline(path: str = BENCH_JSON) -> Dict:
    if not os.path.exists(path):
        return {"schema": SCHEMA, "entries": []}
    with open(path) as fh:
        return json.load(fh)


def latest_row(baseline: Dict, bench: str, scale: str) -> Optional[Dict]:
    """The most recent committed measurement for one bench+scale cell."""
    for entry in reversed(baseline.get("entries", [])):
        for row in entry.get("rows", []):
            if row["bench"] == bench and row["scale"] == scale:
                return row
    return None


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="bench_kernel",
        description="measure kernel events/sec on canonical fig workloads")
    parser.add_argument("--scale", default="default",
                        choices=("smoke", "default", "full"))
    parser.add_argument("--bench", action="append", choices=BENCHES,
                        help="bench cell(s) to run (default: all)")
    parser.add_argument("--servers", type=int, default=20)
    parser.add_argument("--clients", type=int, default=30)
    parser.add_argument("--ops", type=int, default=None,
                        help="override ops per client (tests only)")
    parser.add_argument("--sweep-seeds", type=int, default=4,
                        help="seeds for the fig4_sweep bench (default 4)")
    parser.add_argument("--sweep-workers", type=int, default=None,
                        help="workers for the fig4_sweep bench "
                             "(default: min(cells, cpus))")
    parser.add_argument("--profile-json", metavar="PATH",
                        help="also profile the first bench, dump hot rows")
    parser.add_argument("--update", metavar="LABEL",
                        help="append a labelled entry to BENCH_kernel.json")
    parser.add_argument("--check", action="store_true",
                        help="fail if events/sec regressed vs the baseline")
    parser.add_argument("--tolerance", type=float, default=0.5,
                        help="--check floor as a fraction of baseline "
                             "(default 0.5: fail below half baseline speed)")
    parser.add_argument("--json", default=BENCH_JSON,
                        help="trajectory file (default: repo BENCH_kernel.json)")
    args = parser.parse_args(argv)

    # fig4_sweep is opt-in (it multiplies the workload by the seed
    # count); the default set stays the single-process cells.
    benches = args.bench or [b for b in BENCHES if b != "fig4_sweep"]
    rows = []
    for name in benches:
        if name == "fig4_sweep":
            row = run_sweep_bench(args.scale, args.servers, args.clients,
                                  args.ops, seeds=args.sweep_seeds,
                                  workers=args.sweep_workers)
        else:
            row = run_bench(name, args.scale, args.servers, args.clients,
                            args.ops)
        rows.append(row)
        print(f"{name:12s} scale={args.scale:8s} events={row['events']:>9d} "
              f"wall={row['wall_s']:8.3f}s  "
              f"events/s={row['events_per_s']:>10.0f}")

    if args.profile_json:
        # cProfile can't see into sweep workers; profile the equivalent
        # single-process cell instead.
        profiled = next((b for b in benches if b != "fig4_sweep"), "fig4")
        profile_bench(profiled, args.scale, args.servers, args.clients,
                      args.ops, args.profile_json)

    status = 0
    if args.check:
        baseline = load_baseline(args.json)
        for row in rows:
            base = latest_row(baseline, row["bench"], row["scale"])
            if base is None:
                print(f"{row['bench']}: no baseline for scale "
                      f"{row['scale']!r}, skipping check")
                continue
            floor = args.tolerance * base["events_per_s"]
            verdict = "ok" if row["events_per_s"] >= floor else "REGRESSED"
            print(f"{row['bench']}: {row['events_per_s']:.0f} ev/s vs "
                  f"baseline {base['events_per_s']:.0f} "
                  f"(floor {floor:.0f}) — {verdict}")
            if row["events_per_s"] < floor:
                status = 1

    if args.update is not None:
        baseline = load_baseline(args.json)
        baseline["schema"] = SCHEMA
        baseline.setdefault("entries", []).append(
            {"label": args.update, "rows": rows})
        with open(args.json, "w") as fh:
            json.dump(baseline, fh, indent=1)
            fh.write("\n")
        print(f"appended entry {args.update!r} to {args.json}")
    return status


if __name__ == "__main__":
    sys.exit(main())
