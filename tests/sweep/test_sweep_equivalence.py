"""Satellite 1 + the acceptance property: for every registered plan, a
serial and a parallel sweep of the same ``SweepPlan`` yield identical
determinism digests and bit-identical merged statistics.

Parallel workers are spawn-context processes (fresh interpreters), so
any hidden dependency on parent-process state — module-level RNG, env
mutation mid-suite, import order — would fork the digests here.
"""

from dataclasses import replace

import pytest

from repro.cluster import repeat_experiment
from repro.experiments.registry import plan_for, sweep_names
from repro.experiments.scale import SMOKE
from repro.experiments.sweep import run_sweep, ycsb_spec
from repro.ycsb.workload import WORKLOAD_A

pytestmark = pytest.mark.sweep

TINY = SMOKE.with_(num_records=500, ops_per_client=60, seeds=(1, 2),
                   recovery_bytes_per_server=24 * 1024 * 1024,
                   crash_timeline_bytes_per_server=24 * 1024 * 1024)

# Every plan the registry knows is checked across the spawn boundary on
# the first point of its default grid, so a newly registered plan is
# covered without touching this file.  The exceptions are default grids
# whose first point cannot serve as a quick check at TINY:
REDUCED_GRIDS = {
    # one cell is a whole 3-governor idle→peak sweep: ~30 s even here
    "energy": dict(governors=("static", "poll-adaptive"), servers=2,
                   clients=2, fractions=(0.5,)),
}


def first_point_plan(experiment):
    plan = plan_for(experiment, TINY, seeds=(1, 2),
                    **REDUCED_GRIDS.get(experiment, {}))
    return replace(plan, points=plan.points[:1])


def _snapshot(report):
    """Everything that must be bit-identical across execution modes."""
    return (
        report.digests(),
        report.merged_digest(),
        {label: {metric: (agg.mean, agg.stddev, agg.values)
                 for metric, agg in metrics.items()}
         for label, metrics in report.aggregates().items()},
    )


@pytest.mark.parametrize("experiment", sweep_names())
def test_serial_and_parallel_sweeps_are_bit_identical(experiment):
    plan = first_point_plan(experiment)
    serial = run_sweep(plan, parallel=False)
    parallel = run_sweep(plan, workers=2)
    assert not serial.failed() and not parallel.failed()
    assert _snapshot(serial) == _snapshot(parallel)


def test_fig4_acceptance_four_seeds_parallel_equals_serial():
    # The ISSUE acceptance criterion: a parallel fig4 sweep across >=4
    # seeds produces digests identical to the serial run, and the
    # in-process serial-equivalence check passes on top.
    plan = plan_for("fig4", TINY, seeds=(1, 2, 3, 4), client_counts=(2,),
                    servers=2, workload_names=("A",))
    serial = run_sweep(plan, parallel=False)
    parallel = run_sweep(plan, workers=2, serial_check=2)  # must not raise
    assert len(parallel.results) == 4
    assert not parallel.failed()
    assert _snapshot(serial) == _snapshot(parallel)
    assert len(parallel.serial_checked) == 2
    # Different seeds genuinely diverge — the equality above is not
    # comparing constants.
    digests = set(parallel.digests().values())
    assert len(digests) == 4


def test_serial_check_catches_environment_dependent_results():
    # A cell whose digest depends on the execution environment (here:
    # the worker's PID) is exactly the fork serial_check exists to
    # catch — the in-process rerun sees a different digest and raises.
    from repro.experiments.sweep import (
        SerialEquivalenceError,
        SweepPlan,
        SweepPoint,
    )
    plan = SweepPlan("_selftest", (
        SweepPoint.of("salted", servers=2, clients=1, pid_salt=True),),
        (1,), TINY)
    with pytest.raises(SerialEquivalenceError, match="diverged"):
        run_sweep(plan, workers=1, serial_check=1)


def test_merged_aggregates_equal_repeat_experiment():
    # The merge contract: a parallel sweep reproduces repeat_experiment's
    # Aggregate values float-for-float for the same cells and seed order.
    plan = plan_for("fig4", TINY, client_counts=(2,), servers=2,
                    workload_names=("A",))
    report = run_sweep(plan, workers=2)
    metrics, _results = repeat_experiment(
        ycsb_spec(WORKLOAD_A, 2, 2, TINY), TINY.seeds)
    merged = report.aggregates()["workload A / 2 clients"]
    # Both are built from ExperimentResult.headline_metrics(): the same
    # keys, float for float.
    assert merged == metrics
    assert {"throughput", "avg_power_per_server", "total_energy_joules",
            "energy_efficiency", "makespan", "mean_latency"} <= set(merged)
