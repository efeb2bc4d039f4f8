"""Fig. 8 — energy efficiency vs replication factor (§VI).

Finding 4's robust half reproduces: efficiency declines as RF rises for
every cluster size, and update-heavy clusters keep usable efficiency at
larger sizes (unlike read-only, where Fig. 2 showed a 7.6x penalty for
over-provisioning).

Known deviation (recorded in EXPERIMENTS.md): the paper reports
efficiency *strictly increasing* with server count at fixed RF
(1500→2300 op/J for 20→40 servers).  In our model it is flat-to-slightly
-decreasing, because our 20-server cluster degrades less catastrophically
under 60 update-heavy clients than the authors' testbed did.  Note the
paper's Fig. 6a/6b numbers imply ≈74 op/J for the same runs Fig. 8
reports as 1500 op/J, so the absolute scale of Fig. 8 cannot be
reconciled with its siblings either way.
"""

from repro.experiments.registry import tables


def test_fig8_efficiency_vs_rf(run_once, scale):
    table = run_once(tables, "fig8", scale,
                     server_counts=(20, 30, 40))
    eff = {r.label: r.measured for r in table.rows}

    # Efficiency declines as RF rises, for every cluster size.
    for servers in (20, 30, 40):
        assert (eff[f"{servers} servers / RF 4"]
                < eff[f"{servers} servers / RF 1"])
    # Unlike the read-only case (Fig. 2: 7.6x penalty for 10x servers),
    # update-heavy efficiency is nearly size-independent: scaling out
    # for performance costs little efficiency.
    rf1 = [eff[f"{s} servers / RF 1"] for s in (20, 30, 40)]
    assert max(rf1) < 1.5 * min(rf1)
    rf4 = [eff[f"{s} servers / RF 4"] for s in (20, 30, 40)]
    assert max(rf4) < 2.0 * min(rf4)
