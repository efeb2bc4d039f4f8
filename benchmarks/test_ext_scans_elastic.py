"""§X/§IX extensions — scans and elastic sizing.

Workload E ("one could think of scans to assess the indexing
mechanism", §X) over RAMCloud's MultiRead, and the §IX coordinator-
driven scale-down with live tablet migration.
"""

from repro.experiments.registry import tables


def test_ext_scans(run_once, scale):
    table = run_once(tables, "scans", scale)
    ops = {r.label: r.measured for r in table.rows}
    # Longer scans take longer per op...
    series = [ops[f"max scan length {n}"] for n in (10, 100, 500)]
    assert series[0] > series[1] > series[2]
    # ...but never cost as much as reading every record individually:
    # 10x the scan length must cost far less than 10x the time.
    assert series[0] / series[1] < 6.0


def test_ext_elastic_sizing(run_once, scale):
    table = run_once(tables, "elastic", scale)
    rows = {r.label: r.measured for r in table.rows}
    # Halving the fleet halves the power under light load...
    assert rows["power saved"] > 35.0
    # ...at (almost) no throughput cost: the load was client-limited.
    assert rows["throughput after"] > 0.85 * rows["throughput before"]
