"""Sim-time spans and counts recorded from outside the layers.

:class:`Tracer` wraps the layers' public functions at class level (no
edit under ``src/``), keeps spans in memory and reduces them when the
run ends.  The wrappers add generator frames and bookkeeping but
schedule nothing, so a traced run must reproduce the untraced run's
event count and digest exactly — :mod:`bench.traced` checks that.

Parentage is what is visible from outside: a client op → its RPCs
(keyed by client node: a closed-loop client has one op outstanding) →
the server residence of each request (keyed by the ``RpcRequest``).
Server-internal spans (cpu, disk, log lock) carry their layer and node
but no request id; request-scoped context inside the server is
ROADMAP item 3.
"""

from __future__ import annotations

import json
from collections import Counter, defaultdict
from contextlib import contextmanager
from typing import Dict, Iterator, List, NamedTuple, Optional

from repro.hardware.cpu import Cpu
from repro.hardware.disk import Disk
from repro.net.fabric import Fabric
from repro.net.rpc import RpcRequest, RpcService
from repro.ramcloud.client import RamCloudClient
from repro.ramcloud.coordinator import Coordinator
from repro.ramcloud.hashtable import HashTable
from repro.ramcloud.log import Log
from repro.sim.resources import Mutex, Resource

from bench.outcome import percentile

__all__ = ["Span", "Tracer"]


class Span(NamedTuple):
    """One interval of simulated time at a layer boundary."""

    span_id: int
    layer: str
    name: str
    start: float
    end: float
    request_id: Optional[int]  # the client op this belongs to, if known
    parent: Optional[int]
    where: str  # node or "src->service"
    ok: bool


class Tracer:
    """Records spans and counts while :meth:`installed` is active."""

    def __init__(self):
        self.spans: List[Span] = []
        self.counts: Counter = Counter()
        self.lock_waits: Dict[str, List[float]] = defaultdict(list)
        self._next_id = 0
        self._open_ops: Dict[str, int] = {}  # client node -> op span id
        self._open_rpcs: Dict[str, int] = {}  # client node -> rpc span id
        # id(request) -> (request, span id, start, parent, layer, service);
        # the request is held so its id cannot be reused while open.
        self._open_residence: Dict[int, tuple] = {}

    def _new_id(self) -> int:
        self._next_id += 1
        return self._next_id

    # -- generator wrappers -------------------------------------------------

    def _client_op(self, inner, client, name):
        node = client.node.name
        sim = client.sim
        span_id = self._new_id()
        start = sim.now
        self._open_ops[node] = span_id
        ok = False
        try:
            result = yield from inner
            ok = True
            return result
        finally:
            self._open_ops.pop(node, None)
            self.spans.append(Span(span_id, "ramcloud.client", name, start,
                                   sim.now, span_id, None, node, ok))

    def _rpc_call(self, original, service, src, op, *args, **kwargs):
        sim = service.sim
        span_id = self._new_id()
        start = sim.now
        parent = self._open_ops.get(src.name)
        if parent is not None:
            self._open_rpcs[src.name] = span_id
        ok = False
        try:
            result = yield from original(service, src, op, *args, **kwargs)
            ok = True
            return result
        finally:
            if parent is not None:
                self._open_rpcs.pop(src.name, None)
            self.spans.append(Span(span_id, "net.rpc", op, start, sim.now,
                                   parent, parent,
                                   f"{src.name}->{service.name}", ok))

    def _transfer(self, original, fabric, src, dst, nbytes):
        sim = fabric.sim
        start = sim.now
        rpc = self._open_rpcs.get(src.name)
        ok = False
        try:
            yield from original(fabric, src, dst, nbytes)
            ok = True
        finally:
            took = sim.now - start
            if ok:
                nic = src.spec.nic
                self.counts["net.fabric.tx_wait_s"] += took - (
                    nbytes / nic.bandwidth + nic.one_way_latency)
            self.counts["net.fabric.transfer_s"] += took
            self.spans.append(Span(
                self._new_id(), "net.fabric", "transfer", start, sim.now,
                self._open_ops.get(src.name) if rpc is not None else None,
                rpc, f"{src.name}->{dst.name}", ok))

    def _execute(self, original, cpu, seconds):
        sim = cpu.sim
        start = sim.now
        ok = False
        try:
            yield from original(cpu, seconds)
            ok = True
        finally:
            took = sim.now - start
            self.counts["hardware.cpu.executes"] += 1
            if ok:
                self.counts["hardware.cpu.wait_s"] += (
                    took - seconds / cpu.frequency_ratio)
            self.spans.append(Span(self._new_id(), "hardware.cpu", "execute",
                                   start, sim.now, None, None, cpu.name, ok))

    def _disk_io(self, inner, disk, name):
        sim = disk.sim
        start = sim.now
        ok = False
        try:
            yield from inner
            ok = True
        finally:
            self.counts["hardware.disk.ios"] += 1
            self.counts["hardware.disk.span_s"] += sim.now - start
            self.spans.append(Span(self._new_id(), "hardware.disk", name,
                                   start, sim.now, None, None, disk.name, ok))

    # -- plain wrappers -------------------------------------------------------

    def _deliver(self, original, service, request):
        layer = ("ramcloud.coordinator" if isinstance(service, Coordinator)
                 else "ramcloud.server")
        self._open_residence[id(request)] = (
            request, self._new_id(), service.sim.now,
            self._open_rpcs.get(request.src.name), layer, service.name)
        return original(service, request)

    def _close_residence(self, request, ok: bool) -> None:
        entry = self._open_residence.pop(id(request), None)
        if entry is None or request.reply.triggered:
            return  # never delivered (_rx), or a late answer to a closed reply
        _request, span_id, start, rpc, layer, where = entry
        op = self._open_ops.get(request.src.name) if rpc is not None else None
        self.spans.append(Span(span_id, layer, request.op, start,
                               request.reply.sim.now, op, rpc, where, ok))

    def _acquire(self, original, mutex):
        token = original(mutex)
        name = mutex._resource.name  # the lock's only name; Mutex hides it
        sim = token.sim

        def granted(_event, token=token, name=name):
            self.lock_waits[name].append(sim.now - token.enqueued_at)

        token.add_callback(granted)
        return token

    def _request(self, original, resource, *args, **kwargs):
        token = original(resource, *args, **kwargs)
        self.counts["sim.resources.requests"] += 1
        if not token.triggered:
            self.counts["sim.resources.queued"] += 1
        return token

    def _counted(self, original, key):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[key] += 1
            return original(*args, **kwargs)
        return wrapper

    # -- installation ---------------------------------------------------------

    @contextmanager
    def installed(self) -> Iterator["Tracer"]:
        """Patch the layers' public functions for the duration of the
        block; every original is restored on exit."""
        tracer = self
        originals = []

        def patch(cls, attr, make):
            original = getattr(cls, attr)
            originals.append((cls, attr, original))
            setattr(cls, attr, make(original))

        def around(method, name):
            """For a function that returns the generator to drive."""
            def make(original):
                def traced(obj, *args, **kwargs):
                    return method(original(obj, *args, **kwargs), obj, name)
                return traced
            return make

        def close(ok):
            def make(original):
                def traced(request, *args, **kwargs):
                    tracer._close_residence(request, ok)
                    return original(request, *args, **kwargs)
                return traced
            return make

        def bound(method):
            def make(original):
                def traced(obj, *args, **kwargs):
                    return method(original, obj, *args, **kwargs)
                return traced
            return make

        patch(RamCloudClient, "read", around(tracer._client_op, "read"))
        patch(RamCloudClient, "write", around(tracer._client_op, "write"))
        patch(RpcService, "call", bound(tracer._rpc_call))
        patch(RpcService, "deliver", bound(tracer._deliver))
        patch(RpcRequest, "respond", close(True))
        patch(RpcRequest, "fail", close(False))
        patch(Fabric, "transfer", bound(tracer._transfer))
        patch(Cpu, "execute", bound(tracer._execute))
        patch(Disk, "read", around(tracer._disk_io, "read"))
        patch(Disk, "write", around(tracer._disk_io, "write"))
        patch(Mutex, "acquire", bound(tracer._acquire))
        patch(Resource, "request", bound(tracer._request))
        for cls, attr, key in (
                (HashTable, "lookup", "ramcloud.hashtable.lookups"),
                (HashTable, "insert", "ramcloud.hashtable.inserts"),
                (Log, "append", "ramcloud.log.appends")):
            patch(cls, attr, lambda original, key=key: tracer._counted(
                original, key))
        try:
            yield self
        finally:
            for cls, attr, original in reversed(originals):
                setattr(cls, attr, original)

    # -- reduction ------------------------------------------------------------

    def op_breakdown(self) -> Dict[str, float]:
        """Split each completed client op's sim latency into client,
        network and server self times (self = span − children):

        * server = the residence spans of its requests,
        * network = its RPC spans minus those residences (request
          transfer on the fabric plus the response time ``call`` charges),
        * client = the op span minus its RPC spans (routing, backoff).

        Returns means in µs over ops whose spans all completed, the
        number of such ops, and the largest |op − (client + network +
        server)| seen, which must be float noise.
        """
        rpcs_of: Dict[int, List[Span]] = defaultdict(list)
        residence_of: Dict[int, float] = defaultdict(float)
        broken = set()
        for span in self.spans:
            if span.parent is None:
                continue
            if span.layer == "net.rpc":
                rpcs_of[span.parent].append(span)
                if not span.ok:
                    broken.add(span.parent)
            elif span.layer in ("ramcloud.server", "ramcloud.coordinator"):
                residence_of[span.parent] += span.end - span.start
        totals = Counter()
        worst = 0.0
        for op in self.spans:
            if (op.layer != "ramcloud.client" or not op.ok
                    or op.span_id in broken):
                continue
            latency = op.end - op.start
            rpc_time = sum(r.end - r.start for r in rpcs_of[op.span_id])
            server = sum(residence_of[r.span_id] for r in rpcs_of[op.span_id])
            client = latency - rpc_time
            network = rpc_time - server
            worst = max(worst, abs(latency - (client + network + server)))
            totals["ops"] += 1
            totals["op"] += latency
            totals["client"] += client
            totals["network"] += network
            totals["server"] += server
        ops = totals["ops"]
        scale = 1e6 / ops if ops else 0.0
        return {"ops": ops, "op_us": totals["op"] * scale,
                "client_us": totals["client"] * scale,
                "network_us": totals["network"] * scale,
                "server_us": totals["server"] * scale,
                "worst_residual_s": worst}

    def log_lock_waits_us(self) -> List[float]:
        """Ascending waits (µs) for the masters' ``*:log`` locks."""
        return sorted(1e6 * wait for name, waits in self.lock_waits.items()
                      if name.endswith(":log") for wait in waits)

    def span_metrics(self, breakdown: Dict[str, float]) -> Dict[str, float]:
        """The per-layer rows only spans can provide (``breakdown`` is
        :meth:`op_breakdown`'s result)."""
        # (layer, name) -> ascending durations (µs) of completed spans
        durations: Dict[tuple, List[float]] = defaultdict(list)
        rpcs = failed_rpcs = ops = 0
        for span in self.spans:
            if span.layer == "net.rpc":
                rpcs += 1
                failed_rpcs += not span.ok
            elif span.layer == "ramcloud.client":
                ops += 1
            if span.ok:
                durations[span.layer, span.name].append(
                    1e6 * (span.end - span.start))
        for values in durations.values():
            values.sort()

        rows: Dict[str, float] = {}
        for op in ("read", "write", "replicate_append"):
            residence = durations["ramcloud.server", op]
            rows[f"ramcloud.server.residence_us_p50.{op}"] = percentile(
                residence, 50)
            rows[f"ramcloud.server.residence_us_p99.{op}"] = percentile(
                residence, 99)
        waits = self.log_lock_waits_us()
        rows["ramcloud.server.log_lock_acquires"] = len(waits)
        rows["ramcloud.server.log_lock_wait_us_p50"] = percentile(waits, 50)
        rows["ramcloud.server.log_lock_wait_us_p99"] = percentile(waits, 99)
        replicate = durations["net.rpc", "replicate_append"]
        writes = durations["ramcloud.server", "write"]
        rows["ramcloud.server.replicate_fanout"] = (
            len(replicate) / len(writes) if writes else 0.0)
        rows["ramcloud.server.replicate_wait_us_p50"] = percentile(
            replicate, 50)
        rows["net.rpc.calls"] = rpcs
        rows["net.rpc.calls_per_op"] = rpcs / ops if ops else 0.0
        rows["net.rpc.failed"] = failed_rpcs
        rows["net.rpc.roundtrip_us_p50"] = percentile(
            sorted(d for (layer, _name), values in durations.items()
                   if layer == "net.rpc" for d in values), 50)
        rows["trace.op_client_self_us"] = breakdown["client_us"]
        rows["trace.op_network_self_us"] = breakdown["network_us"]
        rows["trace.op_server_self_us"] = breakdown["server_us"]
        return rows

    def write_chrome_trace(self, path: str) -> None:
        """Dump every span as Chrome-trace JSON (load in
        ``chrome://tracing`` or Perfetto): one process per node, one
        thread per layer, timestamps in simulated µs."""
        pids: Dict[str, int] = {}
        tids: Dict[str, int] = {}
        events = []
        for span in self.spans:
            node = span.where.split("->")[-1]
            pid = pids.setdefault(node, len(pids) + 1)
            tid = tids.setdefault(span.layer, len(tids) + 1)
            events.append({
                "name": f"{span.layer}:{span.name}", "ph": "X",
                "ts": span.start * 1e6, "dur": (span.end - span.start) * 1e6,
                "pid": pid, "tid": tid,
                "args": {"span": span.span_id, "request": span.request_id,
                         "parent": span.parent, "where": span.where,
                         "ok": span.ok}})
        for node, pid in pids.items():
            events.append({"name": "process_name", "ph": "M", "pid": pid,
                           "args": {"name": node}})
            for layer, tid in tids.items():
                events.append({"name": "thread_name", "ph": "M", "pid": pid,
                               "tid": tid, "args": {"name": layer}})
        with open(path, "w") as out:
            json.dump({"traceEvents": events, "displayTimeUnit": "ns"}, out)
