"""Benchmark harness configuration.

Each benchmark reproduces one of the paper's tables or figures and
prints a paper-vs-measured comparison table.  Every experiment runs
once per benchmark invocation (``rounds=1``) — the interesting output
is the comparison, not the harness's own timing statistics.

Scale with ``REPRO_SCALE=smoke|default|full`` (see
:mod:`repro.experiments.scale`).  Set ``REPRO_BENCH_REPORT=<path>`` to
also append every comparison table to a markdown report file.
"""

import os

import pytest

from repro.experiments.registry import EXPERIMENTS, plan_for
from repro.experiments.scale import active_scale
from repro.experiments.sweep import run_sweep


@pytest.fixture(scope="session")
def scale():
    s = active_scale()
    print(f"\n[repro] running benchmarks at scale {s.name!r} "
          f"(REPRO_SCALE to change)")
    return s


@pytest.fixture
def run_once(benchmark):
    """Run the experiment exactly once under pytest-benchmark, print the
    resulting comparison table(s), and return them."""

    def runner(fn, *args, **kwargs):
        tables = benchmark.pedantic(fn, args=args, kwargs=kwargs,
                                    rounds=1, iterations=1)
        _report(tables)
        return tables

    return runner


@pytest.fixture
def run_plan(benchmark):
    """Run a registered experiment's plan exactly once on the serial
    path, print its table(s), and return them with the plan's merged
    aggregates (for the metrics a cell measures but no table shows)."""

    def runner(name, scale, **grid):
        plan = plan_for(name, scale, **grid)
        report = benchmark.pedantic(run_sweep, args=(plan,),
                                    kwargs={"parallel": False},
                                    rounds=1, iterations=1)
        merged = report.checked_aggregates()
        tables = EXPERIMENTS[name].render(plan, merged)
        _report(tables)
        return tables, merged

    return runner


def _report(tables):
    report_path = os.environ.get("REPRO_BENCH_REPORT")
    for table in tables if isinstance(tables, tuple) else (tables,):
        print()
        print(table.render())
        if report_path:
            with open(report_path, "a") as fh:
                fh.write(table.render_markdown())
                fh.write("\n\n")
