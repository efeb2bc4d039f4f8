#!/usr/bin/env python3
"""Energy tuning: which power governor should a deployment run?

The paper's machines are flat-out non-proportional — ≈75 W and 25 %
CPU with zero load (Table I, Figs. 1-4) — because the dispatch thread
busy-polls a pinned core.  `repro.powermgmt` (docs/POWER.md) adds the
standard toolbox: `ondemand` DVFS, and `poll-adaptive` blocking
dispatch with core parking.  This example sweeps the three governors
across three load points and prints the table an operator would tune
from: watts, ops/joule, and the p99 latency each watt saved costs.

Run:  python examples/energy_tuning.py          (REPRO_SCALE=smoke for
      a quicker pass)
"""

from repro.experiments.energy_proportionality import run_energy_sweep
from repro.experiments.scale import active_scale

GOVERNORS = ("static", "ondemand", "poll-adaptive")


def main():
    scale = active_scale()
    # Idle, a light 30 % of peak, and full load: the three operating
    # points that separate the governors.
    result = run_energy_sweep(scale, governors=GOVERNORS, servers=2,
                              clients=4, fractions=(0.3,))

    print("== governor sweep: watts vs ops/joule vs p99 ==")
    header = (f"{'governor':<14} {'load':>6} {'Kop/s':>8} {'W/server':>9} "
              f"{'op/joule':>9} {'p99 (µs)':>9}")
    print(header)
    print("-" * len(header))
    for governor in GOVERNORS:
        for p in result.by_governor(governor):
            label = ("idle" if p.load_fraction == 0.0
                     else f"{p.load_fraction:.0%}")
            p99 = p.p99_latency * 1e6 if p.p99_latency else float("nan")
            print(f"{governor:<14} {label:>6} {p.throughput / 1000:>8.1f} "
                  f"{p.watts_per_server:>9.1f} {p.ops_per_joule:>9.0f} "
                  f"{p99:>9.1f}")
        print()

    print("== energy-proportionality index (1 = perfect, 0 = flat) ==")
    for governor in GOVERNORS:
        print(f"  {governor:<14} {result.ep_index[governor]:.2f}")

    static_idle = result.point("static", 0.0)
    adaptive_idle = result.point("poll-adaptive", 0.0)
    saved = static_idle.watts_per_server - adaptive_idle.watts_per_server
    print("\n== operator's conclusion ==")
    print(f"poll-adaptive erases the busy-poll floor: {saved:.0f} W/server "
          "saved at idle (the paper's 25 % idle CPU drops to ~0) at the "
          "price of wake latency in the light-load tail.")
    print("ondemand keeps latency flat but only trims the DVFS-scalable "
          "part of the floor; the polling core still burns at every "
          "P-state.")
    print("run latency-critical fleets on static or ondemand; park "
          "everything else on poll-adaptive.")


if __name__ == "__main__":
    main()
