"""§IX ablation — recovery time vs segment size.

"while tuning the segment size from 1MB to 32MB we find that 8MB, as
hard-coded in RAMCloud, gives the best recovery times with our
machines": small segments parallelize recovery but pay a disk seek per
segment on HDDs; huge segments serialize the pipeline.
"""

from repro.experiments.registry import tables


def test_ablation_segment_size(run_once, scale):
    table = run_once(tables, "segment-size", scale)
    seconds = {r.label: r.measured for r in table.rows}

    assert all(v is not None and v > 0 for v in seconds.values())
    # 1 MB segments pay many more seeks than 8 MB on the HDD model:
    # they must not beat 8 MB.
    assert seconds["8 MB segments"] <= seconds["1 MB segments"] * 1.1
