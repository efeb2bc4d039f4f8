"""Fig. 5 — throughput vs replication factor, 20 servers (§VI).

Finding 3's first half: every replication-factor step costs throughput
(the paper measures 78→43 Kop/s for RF 1→4 at 10 clients: a 45 % drop),
because the master answers the client only after every backup acked.
"""

from repro.experiments.registry import tables


def test_fig5_replication_throughput(run_once, scale):
    table = run_once(tables, "fig5", scale)
    kops = {r.label: r.measured for r in table.rows}

    for clients in (10, 30, 60):
        series = [kops[f"{clients} clients / RF {rf}"] for rf in (1, 2, 3, 4)]
        # Monotone (within noise) decline with the replication factor.
        assert series[0] > series[-1]
        assert all(series[i] >= series[i + 1] * 0.9 for i in range(3))
    # The 10-client drop RF1→RF4 is substantial (paper: 45 %).
    drop = 1.0 - kops["10 clients / RF 4"] / kops["10 clients / RF 1"]
    assert drop > 0.2
