#!/usr/bin/env python
"""Parallel multi-seed sweep CLI (ROADMAP item 1; docs/BENCH.md).

Fans one worker process per (experiment, config-point, seed) cell,
streams per-cell determinism digests as they complete, and prints the
merged aggregate statistics — bit-identical to what the serial runners
compute for the same cells.

Examples:

    python tools/sweep.py --experiment fig4 --seeds 8
    python tools/sweep.py --experiment fig11 --scale full --json out.json
    python tools/sweep.py --experiment fig4 --seeds 2 --scale smoke \\
        --serial-check 2          # CI: prove parallel == serial

``--serial-check K`` reruns K completed cells in-process and exits 2 if
any digest differs from the worker's — the guarantee that parallelism
can never silently fork behaviour.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from typing import List, Optional

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(REPO_ROOT, "src"))


def main(argv: Optional[List[str]] = None) -> int:
    from repro.experiments.registry import plan_for, sweep_names
    from repro.experiments.scale import scale_named
    from repro.experiments.sweep import (
        SerialEquivalenceError,
        run_sweep,
        write_report,
    )

    parser = argparse.ArgumentParser(
        prog="sweep",
        description="parallel multi-seed experiment sweeps with "
                    "serial-equivalence digests")
    parser.add_argument("--experiment", default="fig4",
                        help="registered experiment (see --list); "
                             "default fig4")
    parser.add_argument("--seeds", type=int, default=4, metavar="N",
                        help="sweep seeds 1..N (default 4)")
    parser.add_argument("--seed-list", metavar="S1,S2,…",
                        help="explicit seeds (overrides --seeds)")
    parser.add_argument("--scale", default="default",
                        choices=("smoke", "default", "full"))
    parser.add_argument("--workers", type=int, default=None,
                        help="worker processes (default: min(cells, cpus))")
    parser.add_argument("--serial", action="store_true",
                        help="run the serial reference path instead")
    parser.add_argument("--serial-check", type=int, default=0, metavar="K",
                        help="rerun K cells in-process and assert "
                             "digest equality (exit 2 on mismatch)")
    parser.add_argument("--retries", type=int, default=1,
                        help="retries per cell after a worker crash "
                             "(default 1)")
    parser.add_argument("--json", metavar="PATH",
                        help="write the merged report as JSON")
    parser.add_argument("--list", action="store_true",
                        help="list registered experiments and exit")
    args = parser.parse_args(argv)

    if args.list:
        for name in sweep_names():
            print(name)
        return 0

    if args.seed_list:
        seeds = tuple(int(s) for s in args.seed_list.split(","))
    else:
        seeds = tuple(range(1, args.seeds + 1))
    plan = plan_for(args.experiment, scale_named(args.scale), seeds=seeds)
    cells = plan.cells()
    mode = "serial" if args.serial else "parallel"
    print(f"sweep {plan.experiment}: {len(plan.points)} points x "
          f"{len(plan.seeds)} seeds = {len(cells)} cells "
          f"({mode}, scale={args.scale})")

    done = [0]

    def on_cell(result):
        done[0] += 1
        cell = result.cell
        if result.ok:
            print(f"  [{done[0]:>3d}/{len(cells)}] {cell.point.label} / "
                  f"seed {cell.seed}  digest={result.outcome.digest[:16]}  "
                  f"(attempt {result.attempts})", flush=True)
        else:
            print(f"  [{done[0]:>3d}/{len(cells)}] {cell.point.label} / "
                  f"seed {cell.seed}  FAILED after {result.attempts} "
                  f"attempts: {result.error}", flush=True)

    # Wall clock is the measurand of the parallel speedup, nothing else.
    start = time.perf_counter()  # simlint: disable=SIM003 wall-clock report
    try:
        report = run_sweep(plan, parallel=not args.serial,
                           workers=args.workers, retries=args.retries,
                           serial_check=args.serial_check, on_cell=on_cell)
    except SerialEquivalenceError as exc:
        print(f"SERIAL-EQUIVALENCE FAILURE: {exc}", file=sys.stderr)
        return 2
    wall = time.perf_counter() - start  # simlint: disable=SIM003 wall-clock report

    print(f"\nmerged aggregates ({len(plan.seeds)} seeds per point):")
    for label, metrics in report.aggregates().items():
        throughput = metrics.get("throughput")
        parts = []
        if throughput is not None:
            parts.append(f"throughput {throughput.mean / 1000.0:8.1f}K "
                         f"±{throughput.stddev / 1000.0:.1f}")
        for key in ("avg_power_per_server", "energy_efficiency",
                    "recovery_time"):
            agg = metrics.get(key)
            if agg is not None:
                parts.append(f"{key} {agg.mean:.2f}")
        print(f"  {label:40s} {'  '.join(parts)}")

    failed = report.failed()
    checked = (f", serial-checked {len(report.serial_checked)} cells: ok"
               if report.serial_checked else "")
    print(f"\n{len(cells) - len(failed)}/{len(cells)} cells ok in "
          f"{wall:.1f}s ({report.workers} workers{checked})")
    print(f"merged digest: {report.merged_digest()}")
    if args.json:
        write_report(report, args.json)
        print(f"wrote {args.json}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
