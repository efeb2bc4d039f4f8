"""Fig. 12 — aggregate disk activity during recovery (§VII).

A read burst (backups streaming the lost segments off their disks)
followed by a larger, overlapping write burst (re-replication of the
replayed data) — the overlap is the head contention the paper blames
for slow small-cluster recovery.
"""


def test_fig12_disk_activity(run_plan, scale):
    table, merged = run_plan("fig12", scale)
    rows = {r.label: r.measured for r in table.rows}
    (metrics,) = merged.values()

    assert rows["peak aggregate read"] > 0.0
    assert rows["peak aggregate write"] > 0.0
    # Writes dominate reads in volume: RF copies are written for every
    # byte read (paper's dark-green overlap region).
    assert rows["write/read volume ratio"] > 1.5
    assert rows["seconds with overlapping read+write"] >= 1.0
    # No disk traffic before the kill (the cluster idles).
    assert metrics["pre_kill_peak_write"].mean == 0.0
