"""Fig. 10 — per-operation latency around a crash (§VII).

Two clients run read-only against the same cluster; one requests only
the data held by the (deliberately chosen) victim, the other only live
data.  Paper: the lost-data client blocks for the whole recovery
(≈40 s at RF 4); the live-data client sees 1.4–2.4x average latency
during recovery.
"""

from repro.experiments.registry import tables


def test_fig10_latency_during_crash(run_once, scale):
    table = run_once(tables, "fig10", scale)
    rows = {r.label: r.measured for r in table.rows}

    # The lost-data client's worst op lasted essentially the recovery.
    blocked = rows["lost-data client blocked for"]
    assert blocked > 0.5 * rows["recovery time"]
    # The live-data client slowed down but stayed in the microsecond
    # regime (its worst op is orders of magnitude below the outage).
    slowdown = rows.get("live-data slowdown during recovery")
    assert slowdown is not None and slowdown > 1.1
    assert rows["live-data client latency during recovery"] < 1e6  # < 1 s
