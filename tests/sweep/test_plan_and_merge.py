"""Fast sweep-runner unit tests: plans, merging, reports — no
subprocesses (the multi-process properties live in the ``-m sweep``
files next door)."""

import json

import pytest

from repro.cluster.experiment import Aggregate
from repro.experiments.registry import EXPERIMENTS, plan_for, sweep_names
from repro.experiments.scale import SMOKE
from repro.experiments.sweep import (
    CellOutcome,
    CellResult,
    SweepCell,
    SweepPlan,
    SweepPoint,
    SweepReport,
    cell_registry,
    run_sweep,
)


def test_sweep_point_canonical_param_order():
    a = SweepPoint.of("p", servers=2, clients=3)
    b = SweepPoint.of("p", clients=3, servers=2)
    assert a == b
    assert a.as_dict() == {"servers": 2, "clients": 3}


def test_plan_cells_are_points_times_seeds_in_plan_order():
    points = (SweepPoint.of("a"), SweepPoint.of("b"))
    plan = SweepPlan("_selftest", points, (1, 2), SMOKE)
    keys = [cell.key for cell in plan.cells()]
    assert keys == [("_selftest", "a", 1), ("_selftest", "a", 2),
                    ("_selftest", "b", 1), ("_selftest", "b", 2)]


def test_registry_lists_every_experiment_and_hides_selftest():
    names = sweep_names()
    assert {"fig1", "fig4", "fig5", "fig11", "energy"} <= set(names)
    assert not any(name.startswith("_") for name in names)
    # ...but the cell registry still resolves the hidden test runner.
    assert "_selftest" in cell_registry()
    assert plan_for("_selftest", SMOKE).experiment == "_selftest"
    # A sweepable name is its own plan's experiment, and has a cell.
    for name in names:
        assert plan_for(name, SMOKE).experiment == name
        assert name in cell_registry()


def test_every_registry_entry_renders_from_a_plan_or_runs_plain():
    for name, entry in EXPERIMENTS.items():
        if entry.render is not None:
            # A figure may render from another's cells (fig2 from
            # fig1's), but always from cells some sweep name owns.
            assert entry.run is None, name
            assert plan_for(name, SMOKE).experiment in sweep_names(), name
        else:
            assert callable(entry.run), name


def test_plan_for_unknown_experiment_raises():
    with pytest.raises(ValueError, match="unknown sweep experiment"):
        plan_for("nope", SMOKE)


def test_plan_factories_default_to_scale_seeds():
    assert plan_for("fig4", SMOKE).seeds == SMOKE.seeds
    assert plan_for("fig4", SMOKE, seeds=(5, 6)).seeds == (5, 6)
    # fig11 pins the serial runner's seed so a merged sweep renders the
    # exact table run_fig11_recovery_rf produces today.
    assert plan_for("fig11", SMOKE).seeds == (3,)


def test_plan_labels_match_grid_runner_labels():
    plan = plan_for("fig1", SMOKE, server_counts=(1, 5), client_counts=(10,))
    assert [p.label for p in plan.points] == [
        "1 servers / 10 clients", "5 servers / 10 clients"]
    plan = plan_for("fig4", SMOKE, client_counts=(30,),
                    workload_names=("A",))
    assert [p.label for p in plan.points] == ["workload A / 30 clients"]
    plan = plan_for("fig5", SMOKE, client_counts=(10,), rfs=(1, 2))
    assert [p.label for p in plan.points] == [
        "10 clients / RF 1", "10 clients / RF 2"]
    plan = plan_for("fig11", SMOKE, rfs=(1, 2))
    assert [p.label for p in plan.points] == ["RF 1", "RF 2"]


def test_run_sweep_validates_inputs():
    plan = SweepPlan("_selftest", (SweepPoint.of("a"),), (1,), SMOKE)
    with pytest.raises(ValueError, match="permutation"):
        run_sweep(plan, schedule=[1])
    with pytest.raises(ValueError, match="retries"):
        run_sweep(plan, retries=-1)
    with pytest.raises(ValueError, match="no cells"):
        run_sweep(SweepPlan("_selftest", (), (1,), SMOKE))


def _report(rows):
    """Build a SweepReport from (label, seed, metrics-or-None) rows."""
    labels = []
    for label, _seed, _metrics in rows:
        if label not in labels:
            labels.append(label)
    points = tuple(SweepPoint.of(label) for label in labels)
    seeds = tuple(sorted({seed for _l, seed, _m in rows}))
    plan = SweepPlan("_selftest", points, seeds, SMOKE)
    results = []
    for label, seed, metrics in rows:
        cell = SweepCell("_selftest", SweepPoint.of(label), seed)
        if metrics is None:
            results.append(CellResult(cell, None, attempts=2, error="boom"))
        else:
            results.append(CellResult(cell, CellOutcome(
                metrics=metrics, digest=f"d-{label}-{seed}")))
    return SweepReport(plan, results, parallel=True, workers=2)


def test_aggregates_match_aggregate_of_in_seed_order():
    report = _report([("a", 1, {"throughput": 10.0}),
                      ("a", 2, {"throughput": 30.0})])
    agg = report.aggregates()["a"]["throughput"]
    assert agg == Aggregate.of([10.0, 30.0])
    assert agg.values == (10.0, 30.0)


def test_aggregates_intersect_metric_keys_and_skip_failures():
    report = _report([
        ("a", 1, {"throughput": 1.0, "recovery_time": 5.0}),
        ("a", 2, {"throughput": 2.0}),          # no recovery_time
        ("b", 1, None), ("b", 2, None),          # every seed failed
    ])
    merged = report.aggregates()
    assert set(merged["a"]) == {"throughput"}
    assert "b" not in merged
    assert [r.cell.point.label for r in report.failed()] == ["b", "b"]


def test_checked_aggregates_refuses_a_partial_sweep():
    # The figure runners render through checked_aggregates(): a table
    # silently missing a failed point would be worse than an error.
    clean = _report([("a", 1, {"m": 1.0})])
    assert clean.checked_aggregates() == clean.aggregates()
    partial = _report([("a", 1, {"m": 1.0}), ("b", 1, None)])
    with pytest.raises(RuntimeError, match="failed cell"):
        partial.checked_aggregates()


def test_in_process_failure_keeps_its_cause():
    # Every run_figN goes through the in-process path, so a cell that
    # raises must surface as the original exception (with its
    # traceback), not as a flattened "Type: msg" string.
    plan = SweepPlan("_selftest", (
        SweepPoint.of("failer", servers=2, clients=1, fail=True),),
        (1,), SMOKE)
    report = run_sweep(plan, parallel=False)
    with pytest.raises(RuntimeError, match="failed cell") as raised:
        report.checked_aggregates()
    cause = raised.value.__cause__
    assert cause is report.results[0].exception
    assert str(cause) == "selftest cell asked to fail"
    assert cause.__traceback__ is not None


def test_merged_digest_is_order_independent_and_failure_sensitive():
    rows = [("a", 1, {"m": 1.0}), ("a", 2, {"m": 2.0}),
            ("b", 1, {"m": 3.0}), ("b", 2, {"m": 4.0})]
    forward = _report(rows)
    backward = _report(list(reversed(rows)))
    assert forward.merged_digest() == backward.merged_digest()
    failed = _report(rows[:3] + [("b", 2, None)])
    assert failed.merged_digest() != forward.merged_digest()


def test_report_to_json_is_serializable_and_complete():
    report = _report([("a", 1, {"m": 1.0}), ("a", 2, {"m": 2.0}),
                      ("b", 1, None), ("b", 2, None)])
    payload = json.loads(json.dumps(report.to_json()))
    assert payload["experiment"] == "_selftest"
    assert payload["seeds"] == [1, 2]
    assert len(payload["cells"]) == 4
    ok = [c for c in payload["cells"] if c["digest"] is not None]
    bad = [c for c in payload["cells"] if c["digest"] is None]
    assert len(ok) == 2 and len(bad) == 2
    assert bad[0]["error"] == "boom"
    assert payload["aggregates"]["a"]["m"]["values"] == [1.0, 2.0]
    assert payload["merged_digest"] == report.merged_digest()
