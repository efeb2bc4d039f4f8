"""Fig. 9a/9b — CPU and power timeline around a crash (§VII).

10 idle servers with RF 4; a random server is killed.  The paper
measures: idle 25 % CPU (the polling core), a jump to ≈92 % cluster
CPU during recovery, and ≈8 % extra power per node.
"""


def test_fig9_crash_timeline(run_plan, scale):
    table, merged = run_plan("fig9", scale)
    rows = {r.label: r.measured for r in table.rows}
    (metrics,) = merged.values()

    assert abs(rows["idle cluster CPU"] - 25.0) < 2.0
    assert rows["peak cluster CPU during recovery"] > 70.0
    # Power rises during recovery over the idle ≈75 W baseline.
    assert rows["peak surviving-node power"] > 90.0
    assert rows["recovery time"] > 1.0
    # After recovery, CPU returns toward idle (the cell leaves the
    # metric out when the run ends within 5 s of recovery).
    if "tail_cpu_min" in metrics:
        assert metrics["tail_cpu_min"].mean < 40.0
