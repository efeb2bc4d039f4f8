"""Satellite 3: worker-crash handling.

A SIGKILL'd worker breaks the whole ``ProcessPoolExecutor`` — every
in-flight cell raises ``BrokenProcessPool`` and the true culprit is
indistinguishable from collateral.  The runner must retry once,
report the cell as failed after the retry, and still produce a
complete merged report for the surviving cells (quarantine: broken
cells re-run alone in fresh single-worker pools, so innocent cells
win their budget back immediately).
"""

import pytest

from repro.experiments.scale import SMOKE
from repro.experiments.sweep import SweepPlan, SweepPoint, run_sweep

pytestmark = pytest.mark.sweep

TINY = SMOKE.with_(num_records=500, ops_per_client=60)


def _plan(points, seeds=(1,)):
    return SweepPlan("_selftest", points, seeds, TINY)


def test_persistent_crasher_fails_after_one_retry_survivors_complete():
    plan = _plan((
        SweepPoint.of("crasher", servers=2, clients=1, crash_attempts=99),
        SweepPoint.of("ok-a", servers=2, clients=1),
        SweepPoint.of("ok-b", servers=2, clients=1),
    ))
    streamed = []
    report = run_sweep(plan, workers=2, retries=1,
                       on_cell=lambda r: streamed.append(r.cell.key))
    # The merged report is complete and in plan order, failures included.
    assert [r.cell.point.label for r in report.results] == [
        "crasher", "ok-a", "ok-b"]
    assert sorted(streamed) == sorted(c.key for c in plan.cells())

    crasher = report.results[0]
    assert not crasher.ok
    assert crasher.attempts == 2          # first try + exactly one retry
    assert "crashed" in crasher.error
    assert [r.cell.point.label for r in report.failed()] == ["crasher"]

    survivors = report.results[1:]
    assert all(r.ok for r in survivors)
    merged = report.aggregates()
    assert set(merged) == {"ok-a", "ok-b"}  # crasher absent, not NaN'd
    assert merged["ok-a"]["throughput"].values \
        == merged["ok-b"]["throughput"].values


def test_crash_once_then_recover_on_the_retry():
    # crash_attempts=1: the worker dies on attempt 1 and succeeds on
    # attempt 2 — the retry must rescue the cell.
    plan = _plan((
        SweepPoint.of("flaky", servers=2, clients=1, crash_attempts=1),
        SweepPoint.of("steady", servers=2, clients=1),
    ), seeds=(1, 2))
    report = run_sweep(plan, workers=2, retries=1)
    assert not report.failed()
    for result in report.results:
        if result.cell.point.label == "flaky":
            assert result.attempts == 2
    # Crash-and-retry must not perturb the measurement: the flaky and
    # steady points share params, so their digests match per seed.
    digests = report.digests()
    for seed in (1, 2):
        assert digests[("flaky", seed)] == digests[("steady", seed)]


def test_retries_zero_still_rescues_the_innocent_bystander():
    # A batch break charges every in-flight cell (the culprit is
    # unknowable), so with retries=0 both cells exhaust their budget —
    # but quarantine still grants each one solo run to assign blame:
    # the bystander gets its result, only the crasher fails.
    plan = _plan((
        SweepPoint.of("crasher", servers=2, clients=1, crash_attempts=99),
        SweepPoint.of("ok", servers=2, clients=1),
    ))
    report = run_sweep(plan, workers=2, retries=0)
    crasher, ok = report.results
    assert not crasher.ok and crasher.attempts <= 2
    assert ok.ok


def test_plain_exception_also_respects_the_retry_budget():
    # A cell that raises (rather than killing its worker) consumes the
    # same budget but never breaks the pool for its siblings.
    plan = _plan((
        SweepPoint.of("failer", servers=2, clients=1, fail=True),
        SweepPoint.of("ok", servers=2, clients=1),
    ))
    report = run_sweep(plan, workers=2, retries=1)
    failer, ok = report.results
    assert not failer.ok
    assert failer.attempts == 2
    assert "selftest cell asked to fail" in failer.error
    assert ok.ok and ok.attempts == 1
    # A spawned cell's traceback died with its worker: the report keeps
    # the message, and refusing the partial sweep quotes it.
    assert failer.exception is None
    with pytest.raises(RuntimeError,
                       match="selftest cell asked to fail") as raised:
        report.checked_aggregates()
    assert raised.value.__cause__ is None
