"""Table II — throughput of 10 servers under workloads A/B/C (§V).

The paper's Finding 2: read-only scales to ≈2 Mop/s at 90 clients,
read-heavy loses ≈57 % vs read-only, update-heavy collapses ≈97 %
(replication disabled in all cases).
"""

from repro.experiments.registry import tables


def test_table2_workload_throughput(run_once, scale):
    table = run_once(tables, "table2", scale)
    kops = {r.label: r.measured for r in table.rows}

    def measured(workload, clients):
        return kops[f"workload {workload} / {clients} clients"]

    # Read-only scales close to linearly with clients.
    assert measured("C", 90) > 6 * measured("C", 10)
    # Read-heavy collapses between 30 and 60 clients: far below C.
    assert measured("B", 90) < 0.5 * measured("C", 90)
    # Update-heavy plateaus: 90 clients is no better than 30.
    assert measured("A", 90) < 1.3 * measured("A", 30)
    # Finding 2's 97 % headline: A vs C at 90 clients.
    degradation = 1.0 - measured("A", 90) / measured("C", 90)
    assert degradation > 0.90
