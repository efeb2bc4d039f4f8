"""Fig. 11a/11b — recovery time and energy vs replication factor (§VII).

Finding 6, the paper's most counterintuitive result: raising the
replication factor makes recovery SLOWER (10 s at RF1 → 55 s at RF5 for
≈1.085 GB) and costlier in energy, because replay re-inserts data
through the normal replicated write path.
"""

from repro.experiments.registry import tables


def test_fig11_recovery_vs_rf(run_once, scale):
    time_table, energy_table = run_once(tables, "fig11", scale)
    seconds = {r.label: r.measured for r in time_table.rows
               if r.label.startswith("RF")}
    joules = {r.label: r.measured for r in energy_table.rows}

    # Monotone growth of recovery time with RF.
    series = [seconds[f"RF {rf}"] for rf in (1, 2, 3, 4, 5)]
    assert all(series[i] < series[i + 1] for i in range(4))
    # Substantial overall growth (paper: 5.5x; shape, not exact match).
    assert series[-1] > 2.0 * series[0]
    # Energy grows ~with duration (power is roughly flat in recovery).
    energy_series = [joules[f"RF {rf}"] for rf in (1, 2, 3, 4, 5)]
    assert all(energy_series[i] < energy_series[i + 1] for i in range(4))
