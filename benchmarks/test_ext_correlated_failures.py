"""§X extension — correlated failures.

"An interesting aspect to consider then would be correlated failures
[33]": two servers dying together (a rack/PDU event) defeat random
replica placement whenever a segment's master and every backup land on
the dead pair — the Copysets problem the paper cites [28].
"""

from repro.experiments.registry import tables


def test_ext_correlated_failures(run_once, scale):
    table = run_once(tables, "correlated", scale)
    rows = {r.label: r.measured for r in table.rows}

    # RF 1 with three simultaneous deaths essentially always loses data.
    assert rows["RF 1: trials with data loss"] >= 50.0
    # Raising RF monotonically shrinks the number of lost segments...
    lost = [rows[f"RF {rf}: segments lost"] for rf in (1, 2, 3)]
    assert lost[0] >= lost[1] >= lost[2]
    assert lost[2] < lost[0]
    # ...and RF 3 cannot lose anything to a 3-machine event (4 copies).
    assert lost[2] == 0.0
