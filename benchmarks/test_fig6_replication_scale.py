"""Fig. 6a/6b — replication vs cluster size at 60 clients (§VI).

More servers absorb the replication load (Fig. 6a: RF1 throughput grows
128→237 Kop/s from 10 to 40 servers), while raising the replication
factor multiplies total energy (Fig. 6b: 3.5x from RF1 to RF4 at 20
servers).  The paper could not run 10 servers beyond RF2 at 60 clients
(crashes from excessive timeouts).
"""

from repro.experiments.registry import tables


def test_fig6_replication_vs_cluster_size(run_once, scale):
    throughput, energy = run_once(tables, "fig6", scale)
    kops = {r.label: r.measured for r in throughput.rows}

    # At RF1, throughput grows with the server count.
    rf1 = [kops[f"{s} servers / RF 1"] for s in (10, 20, 30, 40)]
    assert rf1 == sorted(rf1)
    assert rf1[-1] > 1.5 * rf1[0]
    # At every size, RF4 is well below RF1.
    for servers in (20, 30, 40):
        assert (kops[f"{servers} servers / RF 4"]
                < 0.8 * kops[f"{servers} servers / RF 1"])

    ratios = {r.label: r.measured for r in energy.rows}
    # Energy multiplies with RF (paper: 3.5x at 20 servers).
    assert ratios["20 servers energy ratio RF4/RF1"] > 1.5
    assert ratios["40 servers energy ratio RF4/RF1"] > 1.5
