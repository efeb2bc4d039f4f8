"""§IX ablation — relaxing the consistency level.

"we can think of simply sending the response to the client after an
update request, without waiting for the acknowledgement from the
backups, if the application tolerates inconsistencies": quantifies the
throughput and energy-efficiency gain the paper predicts.

The asynchronous arm is ``default_consistency=ASYNC_BOUNDED``
(docs/CONSISTENCY.md).
"""

from repro.experiments.ablations import run_async_replication_ablation


def test_ablation_async_replication(run_once, scale):
    table = run_once(run_async_replication_ablation, scale)
    rows = {r.label: r.measured for r in table.rows}

    gain = rows["throughput gain from relaxing consistency"]
    assert gain > 1.1  # meaningfully faster without ack waits
    assert (rows["asynchronous (no ack wait): energy efficiency"]
            > rows["synchronous (wait for acks): energy efficiency"])
