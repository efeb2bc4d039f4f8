"""repro.sweep — the multi-seed sweep runner: the one thing that
executes experiment cells, in this process or across workers.

The paper's results come from ≈3000 runs on a 131-node testbed; ours
come from grids of (experiment, config-point, seed) cells.  Determinism
makes those cells embarrassingly parallel: two runs of the same cell
are byte-identical (``tests/analyze/test_determinism.py``), so fanning
cells across worker *processes* must change nothing but wall-clock
time.  This module makes that property load-bearing and keeps it
tested:

* :class:`SweepPlan` names a registered experiment and the grid of
  :class:`SweepPoint` config points × seeds to run;
* :func:`run_sweep` fans one worker process per cell through a
  ``ProcessPoolExecutor`` (``spawn`` context: workers import the tree
  fresh and share no interpreter state with the parent), streams back
  per-cell :class:`CellOutcome` payloads — headline metrics plus the
  cell's **determinism digest** — and merges them into the same
  :class:`~repro.cluster.experiment.Aggregate` statistics the serial
  path produces (bit-identical: same floats, same seed order);
* ``serial_check=k`` re-runs a deterministic sample of ``k`` completed
  cells in-process and asserts digest-for-digest equality, so the
  parallel path can never silently fork behaviour from the serial one;
* a worker killed mid-cell (OOM, SIGKILL) breaks the pool; the runner
  quarantines the affected cells, retries each alone in a fresh pool so
  only the true culprit pays its retry budget, and still produces a
  complete merged report for the surviving cells.

Experiments register a *cell runner* — ``runner(params, seed, scale) ->
CellOutcome`` — in their module-level ``SWEEP_CELLS`` dict (most are one
line over :func:`run_cell`) and name their plan factory and renderer in
:mod:`repro.experiments.registry`, which every entry point reads; see
:mod:`repro.experiments.peak` for the pattern.  Every table — a grid
figure or a single crash run — is its renderer applied to a report of
this module, so nothing else executes cells.  The registry imports
every experiment module and they import this one, so it is resolved
lazily (inside :func:`cell_registry`) — identically in the parent and
in spawn-context workers.

Environment isolation: every cell — serial, parallel, or
serial-check — executes through :func:`_execute_cell`, which pins the
digest-relevant environment (``REPRO_SIM_DEBUG``) from the plan and
restores the whole environment afterwards, so a cell that mutates
global state cannot leak into a sibling scheduled onto the same worker
(``tests/sweep/test_seed_isolation.py``).  Under debug mode the runner
additionally fingerprints every registered module-state watch
(:func:`repro.sim.sanitize.watch_cell_state`) around the cell and
raises :class:`~repro.sim.sanitize.CellStateError` on divergence.
"""

from __future__ import annotations

import hashlib
import json
import os
from concurrent.futures import ProcessPoolExecutor, as_completed
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field, replace
from multiprocessing import get_context
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.cluster import (ClusterSpec, CrashExperimentSpec, ExperimentSpec,
                           run_crash_experiment, run_experiment)
from repro.cluster.experiment import Aggregate
from repro.experiments.scale import DEFAULT, Scale
from repro.ramcloud.config import ServerConfig
from repro.sim.sanitize import (cell_state_fingerprint, check_cell_state,
                                watch_cell_state)
from repro.ycsb.workload import WORKLOAD_C, WorkloadSpec

__all__ = [
    "CellOutcome", "CellResult", "SerialEquivalenceError", "SweepCell",
    "SweepPlan", "SweepPoint", "SweepReport", "cell_registry",
    "crash_experiment_digest", "experiment_digest", "outcome_from_crash",
    "outcome_from_experiment", "outcome_from_metrics", "run_cell",
    "run_sweep", "ycsb_spec",
]

SCHEMA = 1


# -- determinism digests ------------------------------------------------
#
# The canonical byte-exact digests of everything an experiment measures.
# These started life in tests/analyze/test_determinism.py (which now
# imports them from here); the sweep runner computes them per cell so
# serial and parallel execution can be compared digest-for-digest.


def experiment_digest(result) -> str:
    """Byte-exact digest of everything an ``ExperimentResult`` measured."""
    h = hashlib.sha256()

    def feed(label, value):
        h.update(f"{label}={value!r}\n".encode())

    feed("total_ops", result.total_ops)
    feed("makespan", result.makespan)
    feed("throughput", result.throughput)
    feed("avg_power_per_server", result.avg_power_per_server)
    feed("total_energy_joules", result.total_energy_joules)
    feed("energy_efficiency", result.energy_efficiency)
    feed("client_errors", result.client_errors)
    for node in sorted(result.cpu_util_per_node):
        feed(f"cpu[{node}]", result.cpu_util_per_node[node])
    for i, stats in enumerate(result.per_client_stats):
        feed(f"client[{i}].ops", stats.total_ops)
        latencies = stats.all_latencies().latencies
        for latency in latencies:
            feed(f"client[{i}].lat", latency)
    # Per-tenant SLA breakout (multi-tenant runs only; empty otherwise,
    # so single-tenant digests are byte-identical to before it existed).
    for tenant in sorted(result.per_tenant_stats):
        stats = result.per_tenant_stats[tenant]
        for key in sorted(stats):
            feed(f"tenant[{tenant}].{key}", stats[key])
    # Race reports (nonempty only under REPRO_SIM_DEBUG=1) must also be
    # byte-identical across same-seed runs.
    for report in result.race_reports:
        feed("race", report)
    return h.hexdigest()


def crash_experiment_digest(result) -> str:
    """Byte-exact digest of everything a ``CrashExperimentResult`` measured."""
    h = hashlib.sha256()

    def feed(label, value):
        h.update(f"{label}={value!r}\n".encode())

    feed("crashed_server", result.crashed_server)
    for t, description in result.fault_log:
        feed("fault", (t, description))
    stats = result.recovery
    feed("recovery", (stats.crashed_id, stats.detected_at,
                      stats.started_at, stats.finished_at,
                      stats.partitions, stats.segments,
                      stats.bytes_to_recover, stats.lost_segments,
                      tuple(stats.recovery_masters)))
    for i, repair in enumerate(result.repairs):
        feed(f"repair[{i}]", (repair.dead_server, repair.started_at,
                              repair.peak_under_replicated,
                              repair.replicas_lost,
                              repair.segments_repaired,
                              repair.finished_at))
    for series in (result.cluster_cpu, result.disk_read_mbps,
                   result.disk_write_mbps, result.under_replicated):
        feed(f"{series.name}.times", series.times)
        feed(f"{series.name}.values", series.values)
    for name in sorted(result.per_node_power):
        feed(f"power[{name}]", result.per_node_power[name].values)
    for report in result.race_reports:
        feed("race", report)
    return h.hexdigest()


# -- cell payloads ------------------------------------------------------


@dataclass(frozen=True)
class CellOutcome:
    """What one cell sends back across the process boundary: headline
    scalar metrics plus the determinism digest of the full result."""

    metrics: Dict[str, float]
    digest: str
    events: int = 0
    ops: int = 0


def outcome_from_experiment(result) -> CellOutcome:
    """Standard outcome for a YCSB-style ``ExperimentResult`` cell —
    carries exactly the per-seed floats ``repeat_experiment`` aggregates,
    so merged sweep statistics are bit-identical to the serial path."""
    return CellOutcome(metrics=result.headline_metrics(),
                       digest=experiment_digest(result),
                       events=result.sim_events, ops=result.total_ops)


def outcome_from_crash(result) -> CellOutcome:
    """Standard outcome for a ``CrashExperimentResult`` cell."""
    metrics: Dict[str, float] = {
        "finished": 1.0 if (result.recovery is not None
                            and result.recovery.finished_at is not None)
        else 0.0,
    }
    if metrics["finished"]:
        metrics["recovery_time"] = result.recovery_time
        metrics["energy_per_node_joules"] = (
            result.energy_per_node_during_recovery())
        metrics["avg_power_during_recovery"] = (
            result.avg_power_during_recovery())
    return CellOutcome(metrics=metrics,
                       digest=crash_experiment_digest(result))


def outcome_from_metrics(metrics: Dict[str, float]) -> CellOutcome:
    """Outcome for a cell with no result object of its own to digest:
    the digest covers the repr of every metric, in key order."""
    return CellOutcome(metrics=metrics, digest=hashlib.sha256(
        repr(sorted(metrics.items())).encode()).hexdigest())


def ycsb_spec(workload: WorkloadSpec, servers: int, clients: int,
              scale: Scale, **server_config) -> ExperimentSpec:
    """``workload`` sized by ``scale`` on a ``servers``/``clients``
    cluster — the spec behind every YCSB grid cell.  ``server_config``
    are :class:`~repro.ramcloud.config.ServerConfig` fields; replication
    stays off unless they turn it on (the paper's §IV/§V discipline)."""
    server_config.setdefault("replication_factor", 0)
    return ExperimentSpec(
        cluster=ClusterSpec(num_servers=servers, num_clients=clients,
                            server_config=ServerConfig(**server_config)),
        workload=workload.scaled(num_records=scale.num_records,
                                 ops_per_client=scale.ops_per_client))


def run_cell(spec, seed: int) -> CellOutcome:
    """The body every grid cell shares: run ``spec`` (an
    ``ExperimentSpec`` or a ``CrashExperimentSpec``) at ``seed`` and
    package the standard outcome — the exact run ``repeat_experiment``
    performs for that seed."""
    spec = replace(spec, cluster=spec.cluster.with_(seed=seed))
    if isinstance(spec, CrashExperimentSpec):
        return outcome_from_crash(run_crash_experiment(spec))
    return outcome_from_experiment(run_experiment(spec))


# -- plans ---------------------------------------------------------------


@dataclass(frozen=True)
class SweepPoint:
    """One config point of the grid: a label plus the runner params."""

    label: str
    params: Tuple[Tuple[str, Any], ...] = ()

    @classmethod
    def of(cls, label: str, **params: Any) -> "SweepPoint":
        """Build a point from keyword params (canonical key order)."""
        return cls(label=label, params=tuple(sorted(params.items())))

    def as_dict(self) -> Dict[str, Any]:
        """The params as the dict the cell runner receives."""
        return dict(self.params)


@dataclass(frozen=True)
class SweepCell:
    """One (experiment, config-point, seed) unit of work."""

    experiment: str
    point: SweepPoint
    seed: int

    @property
    def key(self) -> Tuple[str, str, int]:
        """The cell's stable identity (experiment, point label, seed)."""
        return (self.experiment, self.point.label, self.seed)


@dataclass(frozen=True)
class SweepPlan:
    """A grid of cells over one registered experiment.

    ``debug=None`` (the default) pins every cell to the parent's
    ``REPRO_SIM_DEBUG`` at :func:`run_sweep` time, so serial and
    parallel executions of the same plan see the same sanitizer mode.
    """

    experiment: str
    points: Tuple[SweepPoint, ...]
    seeds: Tuple[int, ...]
    scale: Scale = DEFAULT
    debug: Optional[bool] = None

    def cells(self) -> Tuple[SweepCell, ...]:
        """Every cell, in canonical (point, seed) order — the order the
        serial path runs them and the merge aggregates them in."""
        return tuple(SweepCell(self.experiment, point, seed)
                     for point in self.points for seed in self.seeds)


@dataclass
class CellResult:
    """One cell's fate: its outcome, or the error that exhausted it."""

    cell: SweepCell
    outcome: Optional[CellOutcome]
    attempts: int = 1
    error: Optional[str] = None
    # The exception itself, for a cell that failed in this process (a
    # spawned worker's traceback dies with it; only ``error`` survives).
    exception: Optional[BaseException] = None

    @property
    def ok(self) -> bool:
        """True when the cell produced an outcome."""
        return self.outcome is not None


class SerialEquivalenceError(AssertionError):
    """A parallel cell's digest differs from its in-process rerun."""


# -- the registry --------------------------------------------------------


def cell_registry() -> Dict[str, Callable]:
    """experiment name → cell runner: every experiment module's
    ``SWEEP_CELLS``, merged by :mod:`repro.experiments.registry`
    (resolved identically in parent and workers, so a spawn-context
    worker sees the same mapping)."""
    from repro.experiments.registry import CELLS
    return CELLS


# -- cell execution (shared by the serial path, the workers, and the
#    serial-equivalence check) -------------------------------------------


def _resolve_debug(debug: Optional[bool]) -> bool:
    if debug is not None:
        return debug
    return os.environ.get("REPRO_SIM_DEBUG", "0") not in ("", "0")


def _execute_cell(experiment: str, params: Dict[str, Any], seed: int,
                  scale: Scale, debug: bool, attempt: int) -> CellOutcome:
    """Run one cell with a pinned environment.

    The environment snapshot/restore is the seed-isolation contract: a
    runner that mutates ``os.environ`` (deliberately or not) cannot
    leak into the next cell scheduled onto the same worker process, and
    the digest-relevant ``REPRO_SIM_DEBUG`` is always set from the plan
    rather than inherited.

    Under debug mode the registered cell-state watches are
    fingerprinted before the cell and re-checked after it succeeds
    (outside the env-restoring ``finally``, so a runner's own exception
    is never masked): a cell that leaves *any* watched module state
    behind fails with :class:`~repro.sim.sanitize.CellStateError`
    instead of silently poisoning the sibling cells this worker runs
    next.
    """
    saved = dict(os.environ)
    state_before = cell_state_fingerprint() if debug else None
    try:
        os.environ["REPRO_SIM_DEBUG"] = "1" if debug else "0"
        os.environ["REPRO_SWEEP_ATTEMPT"] = str(attempt)
        runner = cell_registry()[experiment]
        outcome = runner(dict(params), seed, scale)
    finally:
        os.environ.clear()
        os.environ.update(saved)
    if state_before is not None:
        check_cell_state(state_before,
                         context=f"({experiment!r}, seed={seed}, "
                                 f"attempt={attempt})")
    return outcome


def _worker(payload: Tuple[str, Dict[str, Any], int, Scale, bool, int]
            ) -> CellOutcome:
    """Pool entry point (module-level so spawn can pickle it)."""
    experiment, params, seed, scale, debug, attempt = payload
    return _execute_cell(experiment, params, seed, scale, debug, attempt)


def _payload(plan: SweepPlan, cell: SweepCell, debug: bool, attempt: int):
    return (cell.experiment, cell.point.as_dict(), cell.seed, plan.scale,
            debug, attempt)


# -- the report -----------------------------------------------------------


@dataclass
class SweepReport:
    """The merged result of one sweep, in canonical plan order."""

    plan: SweepPlan
    results: List[CellResult]
    parallel: bool
    workers: int
    serial_checked: List[Tuple[str, str, int]] = field(default_factory=list)

    def digests(self) -> Dict[Tuple[str, int], str]:
        """(point label, seed) → determinism digest, completed cells only."""
        return {(r.cell.point.label, r.cell.seed): r.outcome.digest
                for r in self.results if r.ok}

    def failed(self) -> List[CellResult]:
        """Cells that exhausted their retry budget."""
        return [r for r in self.results if not r.ok]

    def checked_aggregates(self) -> Dict[str, Dict[str, Aggregate]]:
        """:meth:`aggregates`, refusing to render a partial sweep.

        Every rendered table comes through this: a table silently
        missing a failed point (or mislabelling it "did not finish") is
        worse than an error naming the dead cells.
        """
        failed = self.failed()
        if failed:
            cells = ", ".join(f"{r.cell.key!r} ({r.error})" for r in failed)
            raise RuntimeError(
                f"sweep has {len(failed)} failed cell(s): {cells}"
            ) from next((r.exception for r in failed
                         if r.exception is not None), None)
        return self.aggregates()

    def aggregates(self) -> Dict[str, Dict[str, Aggregate]]:
        """point label → metric → :class:`Aggregate` over its seeds.

        Values are fed in plan seed order, so the result is bit-identical
        to what the serial ``repeat_experiment`` path computes for the
        same cells.  Only metrics present in every completed seed of a
        point are aggregated; points with no completed seed are absent.
        """
        merged: Dict[str, Dict[str, Aggregate]] = {}
        for point in self.plan.points:
            rows = [r for r in self.results
                    if r.ok and r.cell.point.label == point.label]
            if not rows:
                continue
            keys = set(rows[0].outcome.metrics)
            for row in rows[1:]:
                keys &= set(row.outcome.metrics)
            merged[point.label] = {
                key: Aggregate.of([row.outcome.metrics[key] for row in rows])
                for key in sorted(keys)}
        return merged

    def merged_digest(self) -> str:
        """One digest over every cell digest (order-independent: keyed
        and sorted by cell identity, so scheduling cannot perturb it)."""
        h = hashlib.sha256()
        for result in sorted(self.results, key=lambda r: r.cell.key):
            if result.ok:
                h.update(f"{result.cell.key}={result.outcome.digest}\n"
                         .encode())
            else:
                h.update(f"{result.cell.key}=FAILED\n".encode())
        return h.hexdigest()

    def to_json(self) -> Dict[str, Any]:
        """A JSON-serializable dump (the ``tools/sweep.py --json`` file)."""
        return {
            "schema": SCHEMA,
            "experiment": self.plan.experiment,
            "scale": self.plan.scale.name,
            "seeds": list(self.plan.seeds),
            "parallel": self.parallel,
            "workers": self.workers,
            "merged_digest": self.merged_digest(),
            "serial_checked": [list(key) for key in self.serial_checked],
            "cells": [{
                "point": r.cell.point.label,
                "params": {k: list(v) if isinstance(v, tuple) else v
                           for k, v in r.cell.point.params},
                "seed": r.cell.seed,
                "attempts": r.attempts,
                "error": r.error,
                "digest": r.outcome.digest if r.ok else None,
                "events": r.outcome.events if r.ok else None,
                "ops": r.outcome.ops if r.ok else None,
                "metrics": dict(r.outcome.metrics) if r.ok else None,
            } for r in self.results],
            "aggregates": {
                label: {metric: {"mean": agg.mean, "stddev": agg.stddev,
                                 "values": list(agg.values)}
                        for metric, agg in metrics.items()}
                for label, metrics in self.aggregates().items()},
        }


# -- the runner -----------------------------------------------------------


def _src_root() -> str:
    return os.path.abspath(os.path.join(os.path.dirname(__file__),
                                        "..", ".."))


def _run_cell_inprocess(plan: SweepPlan, cell: SweepCell,
                        debug: bool) -> CellResult:
    try:
        outcome = _execute_cell(cell.experiment, cell.point.as_dict(),
                                cell.seed, plan.scale, debug, attempt=1)
    except Exception as exc:
        return CellResult(cell, None, attempts=1,
                          error=f"{type(exc).__name__}: {exc}",
                          exception=exc)
    return CellResult(cell, outcome)


def _run_cells_parallel(plan: SweepPlan, cells: Sequence[SweepCell],
                        order: Sequence[int], debug: bool, workers: int,
                        retries: int, results: Dict[int, CellResult],
                        on_cell: Optional[Callable]) -> None:
    ctx = get_context("spawn")
    # Failed executions each cell may still absorb.  A broken pool
    # charges every affected cell one (the culprit is unknowable), but
    # quarantine then reruns each alone, so an innocent cell wins its
    # life back on the very next attempt.
    budget = {i: retries + 1 for i in order}
    attempts = {i: 0 for i in order}

    def finish(i: int, outcome: Optional[CellOutcome], error: Optional[str]):
        results[i] = CellResult(cells[i], outcome, attempts[i], error)
        if on_cell is not None:
            on_cell(results[i])

    pending = list(order)
    while pending:
        batch, pending = pending, []
        quarantine: List[int] = []
        with ProcessPoolExecutor(max_workers=min(workers, len(batch)),
                                 mp_context=ctx) as pool:
            futures = {}
            for i in batch:
                attempts[i] += 1
                futures[pool.submit(
                    _worker, _payload(plan, cells[i], debug,
                                      attempts[i]))] = i
            for future in as_completed(futures):
                i = futures[future]
                try:
                    outcome = future.result()
                except BrokenProcessPool:
                    budget[i] -= 1
                    quarantine.append(i)
                except Exception as exc:
                    budget[i] -= 1
                    error = f"{type(exc).__name__}: {exc}"
                    if budget[i] > 0:
                        pending.append(i)
                    else:
                        finish(i, None, error)
                else:
                    finish(i, outcome, None)
        # Quarantine: a worker died and took the pool with it.  Rerun
        # each affected cell alone in a fresh single-worker pool — a
        # solo crash is definitive blame.  Every quarantined cell gets
        # at least one solo run even with its budget exhausted (the
        # batch break charged innocents it cannot tell from the
        # culprit), so a bystander always wins its result back while
        # the true crasher fails after exactly its retry budget.
        for i in sorted(quarantine):
            solo_ran = False
            while i not in results:
                if budget[i] <= 0 and solo_ran:
                    finish(i, None, "worker crashed mid-cell "
                                    f"(SIGKILL/OOM) after {attempts[i]} "
                                    "attempts")
                    break
                attempts[i] += 1
                solo_ran = True
                with ProcessPoolExecutor(max_workers=1,
                                         mp_context=ctx) as solo:
                    try:
                        outcome = solo.submit(
                            _worker, _payload(plan, cells[i], debug,
                                              attempts[i])).result()
                    except BrokenProcessPool:
                        budget[i] -= 1
                    except Exception as exc:
                        budget[i] -= 1
                        if budget[i] <= 0:
                            finish(i, None, f"{type(exc).__name__}: {exc}")
                    else:
                        finish(i, outcome, None)


def _serial_equivalence_check(report: SweepReport, debug: bool,
                              count: int) -> None:
    """Rerun ``count`` completed cells in-process; digests must match."""
    ok = [r for r in report.results if r.ok]
    # Deterministic, scheduling-independent sample: rank by the hash of
    # the cell identity and take the first ``count``.
    ranked = sorted(ok, key=lambda r: hashlib.sha256(
        repr(r.cell.key).encode()).hexdigest())
    mismatches = []
    for result in ranked[:count]:
        rerun = _run_cell_inprocess(report.plan, result.cell, debug)
        report.serial_checked.append(result.cell.key)
        if not rerun.ok:
            mismatches.append(f"{result.cell.key}: in-process rerun "
                              f"failed: {rerun.error}")
        elif rerun.outcome.digest != result.outcome.digest:
            mismatches.append(
                f"{result.cell.key}: parallel digest "
                f"{result.outcome.digest[:16]}… != serial "
                f"{rerun.outcome.digest[:16]}…")
    if mismatches:
        raise SerialEquivalenceError(
            "parallel sweep diverged from the serial path:\n  "
            + "\n  ".join(mismatches))


def run_sweep(plan: SweepPlan, *, parallel: bool = True,
              workers: Optional[int] = None, retries: int = 1,
              serial_check: int = 0,
              schedule: Optional[Sequence[int]] = None,
              on_cell: Optional[Callable[[CellResult], None]] = None,
              ) -> SweepReport:
    """Run every cell of ``plan`` and merge the results.

    ``parallel=False`` is the serial reference path: the same cells,
    in canonical plan order, in this process.  ``schedule`` (parallel
    only) permutes the submission order — the report is always in plan
    order, and digests must be schedule-independent (tested).
    ``serial_check=k`` reruns ``k`` completed cells in-process and
    raises :class:`SerialEquivalenceError` on any digest mismatch.
    ``on_cell`` streams each :class:`CellResult` as it completes.
    """
    cells = list(plan.cells())
    if not cells:
        raise ValueError("plan has no cells")
    order = list(range(len(cells)))
    if schedule is not None:
        if sorted(schedule) != order:
            raise ValueError(
                f"schedule must be a permutation of 0..{len(cells) - 1}")
        order = list(schedule)
    if retries < 0:
        raise ValueError(f"retries must be >= 0, got {retries}")
    debug = _resolve_debug(plan.debug)
    results: Dict[int, CellResult] = {}

    if not parallel:
        for i in order:
            results[i] = _run_cell_inprocess(plan, cells[i], debug)
            if on_cell is not None:
                on_cell(results[i])
        workers = 0
    else:
        workers = workers or max(1, min(len(cells), os.cpu_count() or 1))
        # Spawned workers import the tree from scratch: make sure they
        # can find it even when the parent runs off PYTHONPATH=src.
        saved_path = os.environ.get("PYTHONPATH")
        entries = (saved_path or "").split(os.pathsep) if saved_path else []
        if _src_root() not in entries:
            os.environ["PYTHONPATH"] = os.pathsep.join(
                [_src_root()] + entries)
        try:
            _run_cells_parallel(plan, cells, order, debug, workers,
                                retries, results, on_cell)
        finally:
            if saved_path is None:
                os.environ.pop("PYTHONPATH", None)
            else:
                os.environ["PYTHONPATH"] = saved_path

    report = SweepReport(plan=plan,
                         results=[results[i] for i in range(len(cells))],
                         parallel=parallel, workers=workers)
    if serial_check and parallel:
        _serial_equivalence_check(report, debug, serial_check)
    return report


def write_report(report: SweepReport, path: str) -> None:
    """Dump a report as JSON (the merged-results artifact CI uploads)."""
    with open(path, "w") as fh:
        json.dump(report.to_json(), fh, indent=1)
        fh.write("\n")


# -- the harness's own test experiment ------------------------------------


_SELFTEST_LEAK: Optional[int] = None  # written by leaky cells, on purpose

# The selftest leak is watched so the debug-mode cell-state check can
# prove it catches a real module-global leak (tests/sweep/
# test_cell_state.py).
watch_cell_state("repro.experiments.sweep._SELFTEST_LEAK",
                 lambda: _SELFTEST_LEAK)


def _selftest_plan(scale: Scale = DEFAULT,
                   seeds: Optional[Sequence[int]] = None,
                   **params) -> "SweepPlan":
    """Plan for the built-in test experiment (hidden from listings)."""
    point = SweepPoint.of("selftest", servers=2, clients=1, **params)
    return SweepPlan("_selftest", (point,), tuple(seeds or (1, 2)), scale)


def _selftest_cell(params: Dict[str, Any], seed: int,
                   scale: Scale) -> CellOutcome:
    """The sweep harness's built-in test experiment (tests/sweep/).

    A tiny read-only run with hooks that emulate misbehaving workers:

    * ``crash_attempts=N`` — SIGKILL the worker process on attempts
      1..N (the worker-crash/retry tests);
    * ``fail=True`` — raise a plain exception instead of crashing;
    * ``leak=True`` — after producing its result, pollute every global
      a sloppy worker could: flip ``REPRO_SIM_DEBUG``, plant an env
      knob a sibling would read, reseed the global ``random`` module
      and write a module global (the seed-isolation tests);
    * ``require_debug="1"`` — assert the pinned sanitizer mode arrived
      intact (fails the cell if a sibling's leak got through);
    * ``pid_salt=True`` — salt the digest with the worker's PID,
      emulating execution-environment-dependent results (the
      serial-equivalence check must catch this).

    The workload length reads ``REPRO_SWEEP_SELFTEST_BUMP`` from the
    environment, so an env leak from a sibling cell would visibly
    change this cell's digest — that is what makes the isolation tests
    meaningful rather than vacuous.
    """
    import random as _random  # simlint: disable=SIM003 deliberate leak under test
    import signal

    attempt = int(os.environ.get("REPRO_SWEEP_ATTEMPT", "1"))
    if attempt <= int(params.get("crash_attempts", 0)):
        os.kill(os.getpid(), signal.SIGKILL)  # a worker dying mid-cell
    if params.get("require_debug") is not None:
        got = os.environ.get("REPRO_SIM_DEBUG")
        if got != params["require_debug"]:
            raise AssertionError(
                f"REPRO_SIM_DEBUG={got!r} leaked into a sibling cell "
                f"(expected {params['require_debug']!r})")
    if params.get("fail"):
        raise RuntimeError("selftest cell asked to fail")

    bump = int(os.environ.get("REPRO_SWEEP_SELFTEST_BUMP", "0"))
    outcome = run_cell(ycsb_spec(
        WORKLOAD_C, int(params.get("servers", 1)),
        int(params.get("clients", 1)),
        scale.with_(ops_per_client=scale.ops_per_client + bump)), seed)
    if params.get("pid_salt"):
        salted = hashlib.sha256(
            f"{outcome.digest}:{os.getpid()}".encode()).hexdigest()
        outcome = CellOutcome(metrics=outcome.metrics, digest=salted,
                              events=outcome.events, ops=outcome.ops)

    if params.get("leak"):
        # Pollute on purpose; _execute_cell must contain all of it.
        os.environ["REPRO_SIM_DEBUG"] = (
            "0" if os.environ.get("REPRO_SIM_DEBUG") == "1" else "1")
        os.environ["REPRO_SWEEP_SELFTEST_BUMP"] = "50"
        _random.seed(0)  # simlint: disable=SIM003 deliberate leak under test
        global _SELFTEST_LEAK
        _SELFTEST_LEAK = seed
    return outcome


SWEEP_CELLS = {"_selftest": _selftest_cell}
