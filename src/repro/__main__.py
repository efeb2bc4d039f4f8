"""Command-line entry point: ``python -m repro <command>``.

Commands::

    python -m repro list                      # every experiment name
    python -m repro run fig5 [--scale smoke]  # one experiment, table out
    python -m repro run all --scale default   # regenerate everything
    python -m repro findings                  # the six findings, one line each

The experiment names are the keys of
:data:`repro.experiments.registry.EXPERIMENTS` — ``list`` prints them;
``run all`` sweeps each shared grid once (Fig. 2 renders from Fig. 1's
cells, Figs. 7/8 from Fig. 6's).  ``run`` exits 1 if a paper claim
(calibrated at DEFAULT scale) does not hold on the tables.
"""

from __future__ import annotations

import argparse
import sys

FINDINGS = [
    "1  read-only scales linearly; power does not (25% CPU when idle, "
    "servers max their CPU before peak throughput)",
    "2  update-heavy collapses ~97% below read-only at 90 clients; "
    "read-heavy loses ~57%; more updates = more power, up to 4.9x energy",
    "3  replication factor 1→4 costs up to 68% throughput and ~3.5x "
    "total energy (CPU contention + wait-for-ack)",
    "4  with update-heavy + replication, bigger clusters are the "
    "(energy-)better choice — the opposite of the read-only rule",
    "5  crash recovery: ~90% CPU, ~8% extra power; lost data is "
    "unavailable for the whole recovery; live data slows 1.4-2.4x",
    "6  recovery time GROWS with the replication factor "
    "(10s → 55s for RF 1→5): replay re-inserts through the write path",
]


def main(argv=None) -> int:
    """CLI dispatcher; returns a process exit code."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduce the RAMCloud performance/energy paper "
                    "(ICDCS 2017).")
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("list", help="list experiment names")
    sub.add_parser("findings", help="print the paper's six findings")
    run = sub.add_parser("run", help="run one experiment (or 'all')")
    run.add_argument("experiment")
    run.add_argument("--scale", default=None,
                     choices=["smoke", "default", "full"],
                     help="op-count scaling (default: $REPRO_SCALE or "
                          "'default')")
    args = parser.parse_args(argv)

    if args.command == "findings":
        for line in FINDINGS:
            print(line)
        return 0

    from repro.experiments.registry import EXPERIMENTS, run_experiments
    if args.command == "list":
        for name in EXPERIMENTS:
            print(name)
        return 0

    from repro.experiments.scale import active_scale, set_active_scale
    scale = set_active_scale(args.scale) if args.scale else active_scale()
    if args.experiment == "all":
        names = list(EXPERIMENTS)
    elif args.experiment in EXPERIMENTS:
        names = [args.experiment]
    else:
        parser.error(f"unknown experiment {args.experiment!r}; "
                     f"try: {', '.join(EXPERIMENTS)}")
    held = True
    for name, tables, failed in run_experiments(names, scale):
        print(f"== {name} at scale {scale.name} ==")
        for table in tables:
            print(table.render())
            print()
        for claim in failed:
            print(f"claim does not hold: {claim}")
        held = held and not failed
    return 0 if held else 1


if __name__ == "__main__":
    sys.exit(main())
