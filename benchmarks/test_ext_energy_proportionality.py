"""§X extension — energy proportionality under adaptive power management.

The paper's negative result (Figs. 1–4, Table I): a busy-polling
dispatch core pins an idle 4-core server at 25 % CPU and ≈75 W, so the
cluster is nowhere near energy-proportional.  This benchmark sweeps the
repro.powermgmt governors (docs/POWER.md) over an idle→peak load curve
and checks what each knob buys — and what it costs in tail latency —
plus the cluster-level power cap built on the Fig. 13 throttling path.
"""

import pytest

from repro.experiments.energy_proportionality import (
    CAP_HYSTERESIS_WATTS,
    PAPER_IDLE_CPU,
    PAPER_IDLE_WATTS,
    run_energy_sweep,
)
from repro.experiments.registry import tables


def test_energy_proportionality_sweep(run_plan, scale):
    _table, merged = run_plan("energy", scale)
    (metrics,) = merged.values()

    def value(key, governor):
        return metrics[f"{key}[{governor}]"].mean

    # The static arm IS the paper's machine: the idle row reproduces
    # Table I row 0 through the power model's calibration anchors.
    assert value("idle_cpu", "static") == pytest.approx(PAPER_IDLE_CPU,
                                                        abs=0.5)
    assert value("idle_watts", "static") == pytest.approx(PAPER_IDLE_WATTS,
                                                          rel=0.01)
    # ... and never exercises a single power knob (strictly opt-in):
    # no nap and no park at any of its load points.
    assert value("dispatch_sleeps", "static") == 0
    assert value("core_parks", "static") == 0

    # poll-adaptive collapses the idle floor: the dispatch thread blocks
    # instead of busy-polling (25 % CPU → ~0) and idle watts drop
    # measurably below the 57.5 + 0.69·25 baseline.
    assert value("idle_cpu", "poll-adaptive") < 2.0
    assert value("idle_watts", "poll-adaptive") < PAPER_IDLE_WATTS - 5.0
    assert value("idle_dispatch_sleeps", "poll-adaptive") > 0

    # Peak throughput survives the governor: within 5 % of busy-poll.
    assert (value("peak_throughput", "poll-adaptive")
            >= 0.95 * value("peak_throughput", "static"))

    # The price: wake latency is visible in the light-load p99.
    assert value("light_core_parks", "poll-adaptive") > 0
    assert (value("light_p99", "poll-adaptive")
            > 1.5 * value("light_p99", "static"))

    # Both managed governors beat the paper's flat curve on the
    # proportionality index.
    assert value("ep_index", "poll-adaptive") > value("ep_index", "static")
    assert value("ep_index", "ondemand") > value("ep_index", "static")
    # ondemand's DVFS also undercuts the static idle floor (the
    # dispatch core still polls, but at the lowest P-state).
    assert value("idle_watts", "ondemand") < PAPER_IDLE_WATTS - 5.0


def test_energy_report_deterministic(scale):
    # Acceptance: same seed → same digest, covering >= 3 governors.  A
    # compact sweep keeps the rerun affordable.
    kwargs = dict(servers=2, clients=3, fractions=(0.5,))
    first = run_energy_sweep(scale, **kwargs)
    second = run_energy_sweep(scale, **kwargs)
    assert len(first.ep_index) >= 3
    assert first.digest() == second.digest()
    # Guard the digest: a different seed must actually diverge.
    other = run_energy_sweep(scale, seed=2, **kwargs)
    assert other.digest() != first.digest()


def test_power_cap_held(run_once, scale):
    table = run_once(tables, "powercap", scale)
    rows = {r.label: r.measured for r in table.rows}
    cap = rows["configured cap"]
    # Demand alone would blow the budget...
    assert rows["uncapped fleet watts"] > cap + 10.0
    # ...but the controller holds the fleet inside the hysteresis band
    # (its own measurement, the signal it regulates on).
    assert rows["settled fleet watts (max)"] <= cap + CAP_HYSTERESIS_WATTS
    assert rows["settled fleet watts (mean)"] == pytest.approx(cap,
                                                               abs=10.0)
    # The cap engaged the admission throttle at a finite rate (the row
    # is blank at an infinite one), and the cluster still made forward
    # progress.
    assert rows["admitted rate"] is not None
    assert rows["throughput under cap"] > 0
