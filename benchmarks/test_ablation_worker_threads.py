"""§IX ablation — the degree of concurrency.

"The concurrency level, i.e., number of servicing threads can play a
role in performance. Sometimes having more threads than needed can lead
to useless context switching": read-only throughput grows with worker
threads (up to the core count), update-heavy does not — its work
serializes on the log anyway.
"""

from repro.experiments.registry import tables


def test_ablation_worker_threads(run_once, scale):
    table = run_once(tables, "worker-threads", scale)
    kops = {r.label: r.measured for r in table.rows}

    # Read-only benefits from more workers (1 → 3).
    assert (kops["workload C (read-only) / 3 workers"]
            > 1.5 * kops["workload C (read-only) / 1 workers"])
    # Update-heavy gains far less from the same change.
    update_gain = (kops["workload A (update-heavy) / 3 workers"]
                   / kops["workload A (update-heavy) / 1 workers"])
    read_gain = (kops["workload C (read-only) / 3 workers"]
                 / kops["workload C (read-only) / 1 workers"])
    assert update_gain < read_gain
    # Oversubscribing beyond the cores buys nothing for updates.
    assert (kops["workload A (update-heavy) / 6 workers"]
            < 1.2 * kops["workload A (update-heavy) / 3 workers"])
