"""Layers (= module names) and what can be read about them from outside:
host self time from a cProfile pass, and the counters the public
objects of a finished cluster carry.
"""

from __future__ import annotations

import pstats
from collections import Counter
from typing import Dict, List, Tuple

__all__ = ["LAYERS", "HOST_CALLS_LAYERS", "host_rows", "harvest"]

# repro/<pkg>/<mod>.py -> layer.  A package name alone maps every
# module in it.  Anything unlisted (errors, racecheck stubs, the
# stdlib, the benchmark's own capture code) is "other", so the rows
# always sum to the profiled total.
_LAYER_OF = {
    "sim/kernel.py": "sim.kernel",
    "sim/resources.py": "sim.resources",
    "sim/monitor.py": "sim.monitor",
    "sim/distributions.py": "sim.distributions",
    "hardware/cpu.py": "hardware.cpu",
    "hardware/disk.py": "hardware.disk",
    "hardware/power.py": "hardware.power",
    "hardware/node.py": "hardware.power",
    "hardware/specs.py": "hardware.power",
    "net/fabric.py": "net.fabric",
    "net/rpc.py": "net.rpc",
    "ramcloud/client.py": "ramcloud.client",
    "ramcloud/server.py": "ramcloud.server",
    "ramcloud/config.py": "ramcloud.server",  # the cost model it charges
    "ramcloud/hashtable.py": "ramcloud.hashtable",
    "ramcloud/log.py": "ramcloud.log",
    "ramcloud/segment.py": "ramcloud.log",
    "ramcloud/tablets.py": "ramcloud.tablets",
    "ramcloud/coordinator.py": "ramcloud.coordinator",
    "ycsb/client.py": "ycsb.client",
    "ycsb/keyspace.py": "ycsb.keyspace",
    "ycsb/stats.py": "ycsb.stats",
    "cluster": "cluster",
    "faults": "faults",
}
LAYERS = tuple(dict.fromkeys(_LAYER_OF.values())) + ("other",)

# Layers whose call count is declared in BENCHMARK.json (the contract
# caps per-layer metrics at 128; the printed table shows every layer).
HOST_CALLS_LAYERS = ("sim.kernel", "sim.resources", "hardware.cpu",
                     "net.fabric", "net.rpc", "ramcloud.client",
                     "ramcloud.server", "ycsb.client")

_ENTRY_POINTS = {("cluster/experiment.py", "run_experiment"),
                 ("cluster/crash.py", "run_crash_experiment")}


def _layer_of(filename: str) -> Tuple[str, str]:
    """(layer, module path under repro/) of one profiled function."""
    marker = "/repro/"
    at = filename.rfind(marker)
    if at < 0:
        return "other", ""
    module = filename[at + len(marker):]
    layer = (_LAYER_OF.get(module)
             or _LAYER_OF.get(module.split("/", 1)[0]) or "other")
    return layer, module


def host_rows(profiler) -> Tuple[Dict[str, float], List[str]]:
    """Per-layer ``host_self_s`` / ``host_calls`` from a finished
    cProfile pass (``tottime`` summed per module), plus the profiled
    total they sum to and the entry point's own self time; and the same
    as printable lines for every layer, largest first.  A builtin
    (heappush, list.append, generator.send...) has no module of its
    own, so its time goes to the layers that called it."""
    self_s: Counter = Counter()
    calls: Counter = Counter()
    entry_self = 0.0
    for (filename, _line, function), row in pstats.Stats(
            profiler).stats.items():
        _primitive, ncalls, tottime, _cumulative, callers = row
        if filename == "~" and callers:
            for (caller_file, _l, _f), (count, _p, caller_tt, _c) in (
                    callers.items()):
                layer, _module = _layer_of(caller_file)
                self_s[layer] += caller_tt
                calls[layer] += count
            continue
        layer, module = _layer_of(filename)
        self_s[layer] += tottime
        calls[layer] += ncalls
        if (module, function) in _ENTRY_POINTS:
            entry_self += tottime
    total = sum(self_s.values())
    rows = {"trace.profile_total_s": total,
            "cluster.experiment.host_self_s": entry_self}
    for layer in LAYERS:
        rows[f"{layer}.host_self_s"] = self_s[layer]
    for layer in HOST_CALLS_LAYERS:
        rows[f"{layer}.host_calls"] = calls[layer]
    table = [f"  {layer:<22}{self_s[layer]:>9.4f} s "
             f"{100 * self_s[layer] / total:>6.1f} %{calls[layer]:>12,} calls"
             for layer in sorted(LAYERS, key=lambda name: -self_s[name])]
    return rows, table


def harvest(cluster) -> Dict[str, float]:
    """Cumulative counters read off a cluster's public objects."""
    servers = cluster.servers
    nodes = cluster.server_nodes
    clients = cluster.clients
    rows: Dict[str, float] = {}
    for name in ("reads_completed", "writes_completed",
                 "replications_handled", "requests_dropped",
                 "requests_throttled", "recovery_bytes_replayed",
                 "backup_reads_served", "segments_repaired", "replicas_lost"):
        rows[f"ramcloud.server.{name}"] = sum(
            getattr(s, name) for s in servers)
    for name in ("ops_done", "retries", "timeouts", "redirects"):
        rows[f"ramcloud.client.{name}"] = sum(
            getattr(c, name) for c in clients)
    rows["ramcloud.log.appended_bytes"] = sum(
        s.log.appended_bytes for s in servers)
    rows["ramcloud.log.segments_opened"] = sum(
        s.log.head.segment_id + 1 for s in servers)
    rows["net.fabric.messages"] = cluster.fabric.messages_delivered
    rows["net.fabric.bytes"] = cluster.fabric.bytes_delivered
    rows["hardware.disk.bytes_read"] = sum(n.disk.bytes_read for n in nodes)
    rows["hardware.disk.bytes_written"] = sum(
        n.disk.bytes_written for n in nodes)
    rows["hardware.disk.busy_s"] = sum(n.disk.busy_seconds for n in nodes)
    rows["hardware.cpu.busy_core_s"] = sum(
        n.cpu.busy_core_seconds() for n in nodes)
    rows["ramcloud.coordinator.rpcs_served"] = (
        cluster.coordinator.requests_received)
    return rows
