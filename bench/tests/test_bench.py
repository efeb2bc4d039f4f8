"""Tests of the benchmark itself (``python -m pytest bench/tests -q``).

Cells run at ``--ops-scale 0.05`` so the whole file takes under a
minute; the properties checked do not depend on the scale.
"""

import dataclasses
import json
import multiprocessing
from multiprocessing import resource_tracker

import pytest

from bench import cells, micro
from bench.__main__ import load_declared, main, result_line
from bench.layers import LAYERS
from bench.measure import run_untraced
from bench.traced import run_traced

SCALE = 0.05
DECLARED = load_declared()


@pytest.fixture(scope="module", autouse=True)
def short_micro_loops():
    """The ladder's loop length does not matter to these tests."""
    saved = micro.MIN_LOOP_S
    micro.MIN_LOOP_S = 0.005
    yield
    micro.MIN_LOOP_S = saved


def names(section):
    return {row["name"] for row in DECLARED[section]}


def test_benchmark_json_matches_the_cells():
    assert [w["name"] for w in DECLARED["workloads"]] == [
        c.name for c in cells.CELLS]
    assert DECLARED["paths"] == ["bench"]
    setup = [r for r in DECLARED["end_to_end"] if r["name"] == "setup_s"]
    assert setup == [{"name": "setup_s", "unit": "s", "better": "lower",
                      "bound": max(r["bound"]
                                   for r in DECLARED["end_to_end"])}]
    assert len(DECLARED["per_layer"]) <= 128


@pytest.mark.parametrize("cell", cells.CELLS, ids=lambda c: c.name)
def test_untraced_emits_exactly_the_declared_metrics(cell):
    report = run_untraced(cell, seed=1, seconds=0.0, ops_scale=SCALE)
    assert report.correct, report.problems
    assert set(report.metrics) == names("end_to_end")
    assert all(value > 0 for value in report.metrics.values())
    line = json.loads(result_line(report, DECLARED, trace=0))
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["failed"] == 0 and line["attempted"] >= 1
    assert all(m["unit"] for m in line["metrics"].values())


@pytest.mark.parametrize("name", ["update_a_rf3", "recover_rf3"])
def test_traced_run_attributes_time_without_perturbing_it(name, tmp_path):
    cell = next(c for c in cells.CELLS if c.name == name)
    trace_out = tmp_path / "trace.json"
    report = run_traced(cell, seed=1, ops_scale=SCALE,
                        trace_out=str(trace_out))
    # Both instrumented passes reproduced the untraced events + digest,
    # and every predicted zero held: anything else is a problem.
    assert report.correct, report.problems
    assert set(report.metrics) == names("per_layer")
    # The sweep-overhead row spawns a worker; neither it nor the
    # resource tracker multiprocessing starts beside it may survive.
    assert multiprocessing.active_children() == []
    assert resource_tracker._resource_tracker._pid is None
    layer_sum = sum(report.metrics[f"{layer}.host_self_s"]
                    for layer in LAYERS)
    total = report.metrics["trace.profile_total_s"]
    assert abs(layer_sum - total) <= 0.01 * total
    events = json.loads(trace_out.read_text())["traceEvents"]
    assert any(e["name"] == "ramcloud.client:read" for e in events)
    if cell.is_crash:
        assert report.metrics["hardware.disk.ios"] > 0
        assert report.metrics["faults.actions_applied"] == 1
    else:
        assert report.metrics["ramcloud.server.replicate_fanout"] == 3


def test_unfinished_recovery_is_a_failure_with_nonzero_exit(capsys):
    crash = cells.CELLS[-1]
    unfinished = dataclasses.replace(
        crash, build=lambda seed, scale: dataclasses.replace(
            crash.build(seed, scale), run_until=cells.CRASH_KILL_AT + 0.5))
    code = main(["--workload", crash.name, "--seconds", "0",
                 "--ops-scale", str(SCALE)], cells=(unfinished,))
    assert code != 0
    last = capsys.readouterr().out.rstrip().rsplit("\n", 1)[-1]
    assert json.loads(last)["correct"] is False


def test_second_seed_runs_clean_and_differs(capsys):
    code = main(["--workload", "update_a_rf0", "--seed", "2", "--seconds",
                 "0", "--ops-scale", str(SCALE)])
    assert code == 0
    second = json.loads(capsys.readouterr().out.rstrip().rsplit("\n", 1)[-1])
    first = run_untraced(cells.CELLS[1], seed=1, seconds=0.0, ops_scale=SCALE)
    assert second["correct"] and second["failed"] == 0
    assert (second["metrics"]["sim_ops_per_s"]["value"]
            != first.metrics["sim_ops_per_s"])


def test_micro_events_per_op_are_exact():
    rows = micro.run_ladder()
    assert set(rows) == set(micro.ROWS)
    assert rows["sim.kernel.timeout_ns"].events_per_op == 1
    assert rows["sim.kernel.process_spawn_ns"].events_per_op == 2
    assert rows["net.rpc.roundtrip_host_ns"].events_per_op == 6
    assert all(row.ns_per_op > 0 for row in rows.values())
