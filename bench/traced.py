"""The traced run: per-layer metrics of one cell.  Never used for
end-to-end numbers.

Three repetitions of the same seed: an untraced reference, a profile
pass (cProfile → host self time per layer) and a span pass
(:class:`bench.spans.Tracer` → sim-time spans and counts).  Both
instrumented passes must reproduce the reference's kernel event count
and digest exactly, which proves the wrappers perturb nothing; their
extra host time over the reference is the tracing overhead.
"""

from __future__ import annotations

import cProfile
import gc
import time
from multiprocessing import resource_tracker
from typing import Dict, List, Optional

from repro.experiments.scale import SMOKE
from repro.experiments.sweep import run_sweep
from repro.experiments.workloads import fig4_sweep_plan

from bench.cells import Cell
from bench.layers import harvest, host_rows
from bench.measure import Report, derived_seeds, median_setup, run_once
from bench.micro import run_ladder
from bench.outcome import Outcome
from bench.spans import Tracer

__all__ = ["run_traced"]

_RECOVERY_COUNTERS = ("recovery_bytes_replayed", "backup_reads_served",
                      "segments_repaired", "replicas_lost")


def sweep_overhead_s_per_cell() -> float:
    """Host seconds the sweep runner adds per cell: a 2-cell smoke plan
    through ``run_sweep(workers=1)`` (spawn, pickle, merge) minus the
    same cells in-process.

    ``run_sweep`` joins its workers, but the spawn context also starts
    multiprocessing's resource tracker, which otherwise outlives this
    process by a moment; it is stopped and waited for here, so the
    benchmark leaves no process behind on any path out."""
    plan = fig4_sweep_plan(SMOKE.with_(ops_per_client=20), seeds=(1, 2),
                           client_counts=(2,), servers=2,
                           workload_names=("C",))
    start = time.perf_counter()
    serial = run_sweep(plan, parallel=False)
    middle = time.perf_counter()
    try:
        spawned = run_sweep(plan, workers=1, retries=0)
    finally:
        resource_tracker._resource_tracker._stop()
    end = time.perf_counter()
    if serial.digests() != spawned.digests() or spawned.failed():
        raise AssertionError("sweep cells differ between serial and spawned")
    return ((end - middle) - (middle - start)) / len(spawned.results)


def _counters(cluster, tracer: Tracer) -> Dict[str, float]:
    rows = harvest(cluster)
    rows.update(tracer.counts)
    return rows


def _layer_rows(cell: Cell, spec, ref: Outcome, ref_wall: float,
                delta: Dict[str, float],
                span_rows: Dict[str, float]) -> Dict[str, float]:
    """Counter- and span-derived rows (everything but host profile,
    micro ladder and set-up timing)."""
    rows = {key: delta.get(key, 0) for key in (
        "sim.resources.requests", "hardware.cpu.executes",
        "hardware.cpu.busy_core_s", "hardware.cpu.wait_s",
        "hardware.disk.ios", "hardware.disk.bytes_read",
        "hardware.disk.bytes_written", "hardware.disk.busy_s",
        "net.fabric.messages", "net.fabric.bytes", "net.fabric.tx_wait_s",
        "net.fabric.transfer_s", "ramcloud.hashtable.lookups",
        "ramcloud.hashtable.inserts", "ramcloud.log.appends",
        "ramcloud.log.appended_bytes", "ramcloud.log.segments_opened",
        "ramcloud.coordinator.rpcs_served")}
    rows.update({key: value for key, value in delta.items()
                 if key.startswith(("ramcloud.server.", "ramcloud.client."))})
    rows.update(span_rows)

    completed = ref.attempted - ref.failed
    rows["sim.kernel.events"] = ref.events
    rows["sim.kernel.events_per_op"] = ref.events / ref.attempted
    rows["sim.kernel.host_us_per_event"] = 1e6 * ref_wall / ref.events
    requests = rows["sim.resources.requests"]
    rows["sim.resources.queued_share"] = (
        delta.get("sim.resources.queued", 0) / requests if requests else 0.0)
    rows["hardware.disk.wait_s"] = (delta.get("hardware.disk.span_s", 0.0)
                                    - rows["hardware.disk.busy_s"])
    done = rows["ramcloud.client.ops_done"]
    retries = rows["ramcloud.client.retries"]
    rows["ramcloud.client.retry_share"] = (
        retries / (done + retries) if done + retries else 0.0)
    record_size = spec.record_size if cell.is_crash else (
        spec.workload.record_size)
    user_bytes = (rows["ramcloud.server.writes_completed"] * record_size
                  + rows["ramcloud.server.recovery_bytes_replayed"])
    rows["ramcloud.log.log_bytes_per_user_byte"] = (
        rows["ramcloud.log.appended_bytes"] / user_bytes
        if user_bytes else 0.0)
    rows["ycsb.stats.records"] = completed
    for name in ("read_mean_us", "read_p99_us", "update_p50_us",
                 "update_p99_us"):
        rows[f"ycsb.{name}"] = ref.detail[name]
    for name in ("util_pct_avg", "util_pct_max"):
        rows[f"hardware.cpu.{name}"] = ref.detail[name]
    for name in ("watts_per_server", "joules_total"):
        rows[f"hardware.power.{name}"] = ref.detail[name]
    # Crash-only rows are 0 on the YCSB cells: nothing to recover.
    for name in ("detect_s", "repair_s", "partitions", "segments",
                 "bytes_to_recover", "recovery_masters"):
        rows[f"ramcloud.coordinator.{name}"] = ref.detail.get(name, 0)
    rows["faults.actions_applied"] = ref.detail.get("actions_applied", 0)
    # Unsigned; 0 on the crash cell, whose scaled dataset the paper has
    # no number for.
    rows["experiments.paper_rel_err_pct"] = (
        100.0 * abs(ref.sim["sim_ops_per_s"] / 1000.0 - cell.paper_kops)
        / cell.paper_kops if cell.paper_kops else 0.0)
    return rows


def _check_predictions(cell: Cell, rows: Dict[str, float],
                       residual_s: float) -> List[str]:
    """The zeros (and non-zeros) ISSUE 11 predicts for each cell."""
    problems = []

    def expect_zero(key):
        if rows[key] != 0:
            problems.append(f"{key} = {rows[key]} on {cell.name}, predicted 0")

    if cell.is_crash:
        for name in ("recovery_bytes_replayed", "segments_repaired",
                     "replicas_lost"):
            if rows[f"ramcloud.server.{name}"] <= 0:
                problems.append(f"ramcloud.server.{name} is 0 on a crash cell")
        if rows["faults.actions_applied"] != 1:
            problems.append("expected exactly one applied fault action")
    else:
        expect_zero("hardware.disk.ios")
        for name in _RECOVERY_COUNTERS:
            expect_zero(f"ramcloud.server.{name}")
    if cell.name in ("read_c", "update_a_rf0"):
        expect_zero("ramcloud.server.replications_handled")
    if cell.name == "read_c":
        expect_zero("ramcloud.log.appends")
    if residual_s > 1e-9:
        problems.append("client + network + server self times miss an op's "
                        f"span by {residual_s:.3e} s")
    return problems


def run_traced(cell: Cell, seed: int, ops_scale: float = 1.0,
               trace_out: Optional[str] = None) -> Report:
    """Reference, profile and span passes plus the micro ladder; the
    report carries every per-layer metric."""
    spec = cell.build(derived_seeds(seed)[0], ops_scale)
    gc.collect()
    ref, ref_wall, _cluster = run_once(cell, spec)
    if ref.problems:
        return Report(cell.name, seed, ref.attempted, ref.failed, {},
                      problems=ref.problems)
    problems: List[str] = []

    def same_run(label: str, outcome: Outcome) -> None:
        if (outcome.digest, outcome.events) != (ref.digest, ref.events):
            problems.append(
                f"{label} pass perturbed the run: events {outcome.events} vs "
                f"{ref.events}, digest {outcome.digest[:12]} vs "
                f"{ref.digest[:12]}")

    _cluster = None
    gc.collect()
    profiler = cProfile.Profile()
    profiled, profile_wall, _cluster = run_once(cell, spec, profiler=profiler)
    same_run("profile", profiled)
    host, host_table = host_rows(profiler)

    _cluster = None
    gc.collect()
    tracer = Tracer()
    at_preload: Dict[str, float] = {}
    with tracer.installed():
        spanned, span_wall, cluster = run_once(
            cell, spec,
            after_preload=lambda c: at_preload.update(_counters(c, tracer)))
    same_run("span", spanned)
    at_end = _counters(cluster, tracer)
    delta = {key: value - at_preload.get(key, 0)
             for key, value in at_end.items()}
    if trace_out:
        tracer.write_chrome_trace(trace_out)

    cluster = None
    breakdown = tracer.op_breakdown()
    rows = _layer_rows(cell, spec, ref, ref_wall, delta,
                       tracer.span_metrics(breakdown))
    problems.extend(_check_predictions(cell, rows,
                                       breakdown["worst_residual_s"]))
    rows.update(host)
    rows["trace.profile_overhead_ratio"] = profile_wall / ref_wall
    rows["trace.span_overhead_ratio"] = span_wall / ref_wall

    rows["cluster.build_s"], rows["cluster.preload_s"] = median_setup(
        cell, spec)
    micro = run_ladder()
    rows.update({name: row.ns_per_op / (1e6 if name.endswith("_ms") else 1.0)
                 for name, row in micro.items()})
    rows["net.rpc.events_per_call"] = (
        micro["net.rpc.roundtrip_host_ns"].events_per_op)
    rows["experiments.sweep.overhead_s_per_cell"] = sweep_overhead_s_per_cell()

    notes = [
        f"reference {ref_wall:.3f} s, profile pass {profile_wall:.3f} s, "
        f"span pass {span_wall:.3f} s; {len(tracer.spans)} spans; "
        f"digest {ref.digest[:16]}  events {ref.events}",
        f"op sim latency {breakdown['op_us']:.2f} us over "
        f"{breakdown['ops']:.0f} ops = client {breakdown['client_us']:.2f} "
        f"+ network {breakdown['network_us']:.2f} + server "
        f"{breakdown['server_us']:.2f}",
        "host self time by layer (profile pass):",
        *host_table,
    ]
    notes.append("micro ladder (events/op): " + "  ".join(
        f"{name.rsplit('.', 1)[-1]}={row.events_per_op:g}"
        for name, row in micro.items() if row.events_per_op))
    return Report(cell.name, seed, spanned.attempted, spanned.failed, rows,
                  problems=problems, notes=notes)
