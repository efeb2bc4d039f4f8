#!/usr/bin/env python3
"""Regenerate EXPERIMENTS.md: run every registered experiment
(repro.experiments.registry, in its order) and record the
paper-vs-measured tables.

Usage:  REPRO_SCALE=default python tools/generate_experiments_md.py

The file is written either way; then every paper claim (registry
check, calibrated at DEFAULT) that its tables do not hold is listed as
`experiment: claim`, and the script exits 1.

Set REPRO_SWEEP_WORKERS=N to sweep every experiment through the parallel
runner (repro.experiments.sweep) — the rendered tables are bit-identical
to the serial path (that equivalence is what `pytest -m sweep`
enforces), only the wall clock changes.
"""

import os
import sys
import time

from repro.experiments.registry import EXPERIMENTS, run_experiments
from repro.experiments.scale import active_scale


HEADER = """\
# EXPERIMENTS — paper vs. measured

Generated by `tools/generate_experiments_md.py` at scale `{scale}`.
Every table below compares the paper's reported value
(exact where the text gives a number, digitized from the figure
otherwise) with this reproduction's measurement.  Absolute joule totals
depend on run length and op-count scaling (DESIGN.md §5); ratios and
shapes are the comparison targets.

Scaling of this run: {records:,} records / {ops:,} ops per client for
YCSB experiments ({seeds} seed(s) per point); crash-recovery
experiments use ≈{recovery_mb} MB per server in {record_kb} KB records.

## Sweep scale

The grids here can also be produced by the parallel multi-seed sweep
runner (`python tools/sweep.py`, docs/BENCH.md "Sweep scale"): one
worker process per (experiment, config-point, seed) cell, merged into
the same aggregates with byte-identical determinism digests.  `--scale
full` is the paper-shaped lane — 100,000 records and 5,000 ops per
client over 5 seeds per point (the paper: 100 K records, 100 K ops per
client, 5 runs per point on a 131-node testbed) — sized for the
nightly `sweep-full` CI lane rather than per-PR runs; `smoke` backs the
per-PR `sweep-smoke` equivalence check.  Regenerating this file with
`REPRO_SWEEP_WORKERS=N` sweeps every grid in parallel and renders
bit-identical tables.

"""


def main():
    scale = active_scale()
    workers = int(os.environ.get("REPRO_SWEEP_WORKERS", "0"))  # simlint: disable=DET002 CI entry point reading its own opt-in knob
    sections = []
    failures = []
    for name, tables, failed in run_experiments(EXPERIMENTS, scale,
                                                workers=workers):
        print(f"[{time.strftime('%H:%M:%S')}] {name} done", flush=True)
        sections.extend(table.render_markdown() for table in tables)
        failures.extend(f"{name}: {claim}" for claim in failed)

    with open("EXPERIMENTS.md", "w") as fh:
        fh.write(HEADER.format(
            scale=scale.name, records=scale.num_records,
            ops=scale.ops_per_client, seeds=len(scale.seeds),
            recovery_mb=scale.recovery_bytes_per_server // (1024 * 1024),
            record_kb=scale.recovery_record_size // 1024))
        fh.write(FINDINGS)
        fh.write("\n\n".join(sections) + "\n")
    print("wrote EXPERIMENTS.md")
    for failure in failures:
        print(f"claim does not hold: {failure}", file=sys.stderr)
    return 1 if failures else 0


FINDINGS = """\
## Findings scorecard

| Paper finding | Status in this reproduction |
|---|---|
| **1** — read-only scales linearly but power is non-proportional (servers hit max CPU before peak throughput; 25 % CPU when idle) | Reproduces: single server saturates ≈375 Kop/s (paper 372 K), idle CPU 25 %, 1-client power 92 W, efficiency falls ≈7x from 1→10 servers at 30 clients |
| **2** — update-heavy loses up to 97 % vs read-only at high concurrency; read-heavy up to 57 %; more updates → more power and up to 4.92x energy | Reproduces: A plateaus at ≈64 Kop/s (97 % below C at 90 clients — the paper's exact gap); B collapses between 30 and 60 clients (our loss ≈70 % vs paper 58 %); A burns several times C's energy |
| **3** — RF 1→4 costs up to 68 % throughput and ≈3.5x energy | Reproduces: 10-client row of Fig. 5 matches point-for-point (78/65/52/43 K paper vs ≈78/67/60/53 K ours); energy multiplies with RF |
| **4** — with update-heavy + replication, more servers are MORE energy-efficient | Partially: scaling out is nearly free in efficiency (unlike read-only's 7.6x penalty) and wins throughput, but the strict op/J ordering is flat-to-slightly-decreasing in our model. Note the paper's own Fig. 6b implies ≈74 op/J for runs Fig. 8 reports as 1500 op/J, so the absolute Fig. 8 scale conflicts with its sibling figures |
| **5** — crash recovery: ≈90 % CPU, ≈8 % more power, lost data blocked for the whole recovery, live data 1.4–2.4x slower | Reproduces: cluster CPU ≈89 % during recovery, power rises on survivors, the pinned client blocks exactly until recovery completes, live-data client slows ≈1.3–2x |
| **6** — recovery time GROWS with RF (10 s → 55 s for RF 1→5 over ≈1.085 GB) | Reproduces: 13.2 s → 60.3 s, linear in RF (a 4.57x growth vs the paper's 5.50x), same mechanism (replay re-inserts through the replicated write path) |

## Known deviations

* Workload A at 10–20 clients runs ≈30 % below the paper (ours ≈67 K vs
  98–106 Kop/s): our collision-burst tail is heavier than the real
  system's at low concurrency. The plateau (the finding) matches.
* Fig. 6a's missing 10-server RF 3–4 points (the paper's runs "were
  always crashing") now reproduce via dispatch-side admission control:
  with `ServerConfig.overload_queue_limit` set, overload drops client
  requests silently, the caller eats its full 1 s RPC timeout, and
  YCSB's give-up cliff trips (`tests/cluster/test_overload_giveup.py`).
  The default configuration leaves the limit off, so the headline
  figure-6a table still reports smooth degradation.
* Fig. 8's strict efficiency ordering (see scorecard row 4).
* Fig. 10's absolute baseline latency: the paper reads 1 KB records
  (≈15 µs); our recovery-scale dataset uses 8 KB records, so the
  baseline is a few µs higher. The blocked/slowdown behaviour is the
  reproduction target and matches.

## Per-experiment tables

"""


if __name__ == "__main__":
    sys.exit(main())
