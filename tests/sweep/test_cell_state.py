"""The debug-mode cell-state sanitizer — sweep cells leak no module state.

Under ``debug=True`` every sweep cell is bracketed by a fingerprint of
the registered module-state watches (:func:`repro.sim.sanitize.
watch_cell_state`); a cell that leaves any watched state behind fails
with :class:`CellStateError` instead of silently poisoning the sibling
cells its worker runs next.  The deliberately-leaky ``_selftest`` cell
is the proof that the detector detects; the clean cells prove it stays
quiet.
"""

import random

import pytest

from repro.experiments.scale import SMOKE
from repro.experiments.sweep import (
    SweepPlan,
    SweepPoint,
    _execute_cell,
    run_sweep,
)
from repro.sim import sanitize
from repro.sim.sanitize import (
    CellStateError,
    cell_state_fingerprint,
    check_cell_state,
    watch_cell_state,
)

pytestmark = pytest.mark.sweep

TINY = SMOKE.with_(num_records=500, ops_per_client=60)
PARAMS = {"servers": 2, "clients": 1}


@pytest.fixture(autouse=True)
def _restore_polluted_globals():
    """Leaky cells run in-process here; put their targets back."""
    state = random.getstate()
    leak = sanitize._CELL_WATCHES["repro.experiments.sweep._SELFTEST_LEAK"]
    before = leak()
    yield
    random.setstate(state)
    import repro.experiments.sweep as sweep_mod
    sweep_mod._SELFTEST_LEAK = before


def test_debug_cell_catches_the_selftest_leak():
    with pytest.raises(CellStateError) as excinfo:
        _execute_cell("_selftest", dict(PARAMS, leak=True), 1, TINY,
                      debug=True, attempt=1)
    message = str(excinfo.value)
    assert "_SELFTEST_LEAK" in message
    assert "random.getstate" in message


def test_clean_cell_passes_under_debug():
    outcome = _execute_cell("_selftest", dict(PARAMS), 1, TINY,
                            debug=True, attempt=1)
    assert outcome.digest


def test_debug_off_skips_the_check():
    # The containment tests (test_seed_isolation.py) depend on leaky
    # cells *succeeding* with debug=False — only the debug mode pays
    # for (and gets) detection.
    outcome = _execute_cell("_selftest", dict(PARAMS, leak=True), 1, TINY,
                            debug=False, attempt=1)
    assert outcome.digest


def test_runner_exception_is_not_masked_by_the_check():
    # The state check runs only after a successful cell: a failing
    # runner must surface its own error, not a CellStateError about
    # state it happened to touch first.
    with pytest.raises(RuntimeError, match="asked to fail"):
        _execute_cell("_selftest", dict(PARAMS, fail=True), 1, TINY,
                      debug=True, attempt=1)


def test_parallel_sweep_fails_only_the_leaky_cell():
    points = (
        SweepPoint.of("leaky", leak=True, **PARAMS),
        SweepPoint.of("clean", **PARAMS),
    )
    plan = SweepPlan("_selftest", points, (1,), TINY, debug=True)
    report = run_sweep(plan, workers=1, retries=0)
    failed = report.failed()
    assert [r.cell.point.label for r in failed] == ["leaky"]
    assert "CellStateError" in failed[0].error
    assert ("clean", 1) in report.digests()


def test_watch_primitives_report_the_diverged_label():
    box = {"value": 0}
    watch_cell_state("tests.cell_state.box", lambda: box["value"])
    try:
        before = cell_state_fingerprint()
        check_cell_state(before)  # no divergence yet
        box["value"] = 7
        with pytest.raises(CellStateError, match="tests.cell_state.box"):
            check_cell_state(before)
    finally:
        del sanitize._CELL_WATCHES["tests.cell_state.box"]


def test_added_or_removed_watches_count_as_divergence():
    before = cell_state_fingerprint()
    watch_cell_state("tests.cell_state.new", lambda: 1)
    try:
        with pytest.raises(CellStateError, match="tests.cell_state.new"):
            check_cell_state(before)
    finally:
        del sanitize._CELL_WATCHES["tests.cell_state.new"]
