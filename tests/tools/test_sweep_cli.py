"""tools/sweep.py — the sweep CLI: streaming output, JSON reports,
exit codes — plus the fig4_sweep bench row in tools/bench_kernel.py.

Everything here spawns real worker processes, so the file rides the
``-m sweep`` lane with the rest of the multi-process harness.
"""

import json
import os
import sys

import pytest

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))
sys.path.insert(0, os.path.join(REPO_ROOT, "tools"))

import bench_kernel  # noqa: E402
import sweep as sweep_cli  # noqa: E402

pytestmark = pytest.mark.sweep


def test_list_prints_public_experiments(capsys):
    from repro.experiments.registry import EXPERIMENTS
    assert sweep_cli.main(["--list"]) == 0
    out = capsys.readouterr().out.split()
    assert {"fig1", "fig4", "fig5", "fig11", "energy"} <= set(out)
    assert "_selftest" not in out
    # Every listed name is a plan in the one registry, in its order.
    assert all(EXPERIMENTS[name].plan is not None for name in out)
    assert out == [name for name in EXPERIMENTS if name in out]


def test_cli_parallel_sweep_with_serial_check_and_json(tmp_path, capsys):
    out_path = str(tmp_path / "report.json")
    status = sweep_cli.main([
        "--experiment", "_selftest", "--seed-list", "1,2",
        "--scale", "smoke", "--workers", "2", "--serial-check", "1",
        "--json", out_path])
    assert status == 0
    out = capsys.readouterr().out
    assert "2/2 cells ok" in out
    assert "merged digest:" in out
    assert "serial-checked 1 cells: ok" in out
    with open(out_path) as fh:
        payload = json.load(fh)
    assert payload["experiment"] == "_selftest"
    assert payload["seeds"] == [1, 2]
    assert len(payload["cells"]) == 2
    assert all(c["digest"] for c in payload["cells"])
    assert len(payload["serial_checked"]) == 1


def test_cli_serial_and_parallel_agree_on_the_merged_digest(tmp_path,
                                                            capsys):
    paths = {}
    for mode, extra in (("serial", ["--serial"]), ("parallel", [])):
        paths[mode] = str(tmp_path / f"{mode}.json")
        assert sweep_cli.main(
            ["--experiment", "_selftest", "--seed-list", "1,2",
             "--scale", "smoke", "--json", paths[mode]] + extra) == 0
    capsys.readouterr()
    reports = {mode: json.load(open(path)) for mode, path in paths.items()}
    assert (reports["serial"]["merged_digest"]
            == reports["parallel"]["merged_digest"])


def test_bench_kernel_fig4_sweep_row():
    row = bench_kernel.run_sweep_bench("smoke", servers=2, clients=2,
                                       ops=5, seeds=2, workers=2)
    assert row["bench"] == "fig4_sweep"
    assert row["seeds"] == 2
    assert row["ops"] == 20  # 2 clients x 5 ops x 2 seeds, none lost
    assert row["events"] > 0
    assert row["events_per_s"] == pytest.approx(
        row["events"] / row["wall_s"], rel=0.01)


def test_bench_kernel_knows_the_sweep_bench():
    # fig4_sweep multiplies the workload by the seed count, so it is
    # opt-in (--bench fig4_sweep / the nightly lane), but it must be a
    # selectable choice and carry a committed full-scale baseline row.
    assert "fig4_sweep" in bench_kernel.BENCHES
    baseline = bench_kernel.load_baseline()
    assert bench_kernel.latest_row(baseline, "fig4_sweep", "full")
