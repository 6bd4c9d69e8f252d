"""Per-layer tracing, installed from outside the program.

`LAYERS` is the one declarative table: per-layer self-time metric ->
dotted names of the callables whose time it sums.  `install` resolves each
name when a traced pass starts and wraps what it finds; a name that a
later refactor removed is reported on stderr and contributes nothing (a
row with no callable left reads 0), it never crashes the benchmark.
Nothing under ``src/`` knows about these spans, and an untraced round runs
with no wrapper installed.

A span has a name, a start, an end, the span that caused it and a request
id, lives in memory, and is written as Chrome-trace JSON when the run
ends.  A layer's self time is its spans' busy time minus the busy time of
the spans they caused.  A coroutine is stepped by hand, so only the time
it actually runs is busy; the rest of its life is `wait`.  The root span
of a round belongs to whoever runs the round: the load generator's loop
in the single-caller workloads, and in the wire workloads the asyncio
loop, whose self time is the selector, the transports and task switching
that stand in for the network.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
from collections import defaultdict

__all__ = ["LAYERS", "Tracer", "install", "uninstall", "wrapped"]

# A trailing "+" on a class means "and every subclass that defines the
# attribute".  Module-level functions are named where their callers look
# them up (the importing module), because that is the binding a call uses.
LAYERS: dict[str, list[str]] = {
    # -- write path --------------------------------------------------------
    "core.partitioning.self_s": [
        "repro.core.partitioning.HashPartitioner.split",
        "repro.core.partitioning.HashPartitioner.partition_of",
        "repro.core.partitioning.HashPartitioner.partition_of_one",
    ],
    "core.pipeline.self_s": [
        "repro.core.pipeline.WriterState.put_batch",
        "repro.core.pipeline.WriterState.flush",
        "repro.core.pipeline.WriterState.finish",
        "repro.core.pipeline.ReceiverState.deliver",
        "repro.core.pipeline.ReceiverState.finish",
    ],
    "storage.memtable.self_s": [
        "repro.storage.memtable.MemTable.add",
        "repro.storage.memtable.MemTable.add_many",
        "repro.storage.memtable.RunWriter.spill",
        "repro.core.pipeline.flatten_runs",
    ],
    "storage.sstable.write_self_s": [
        "repro.storage.sstable.SSTableWriter.add",
        "repro.storage.sstable.SSTableWriter.add_many",
        "repro.storage.sstable.SSTableWriter.finish",
    ],
    "storage.log.append_self_s": [
        "repro.storage.log.ValueLog.append",
        "repro.storage.log.ValueLog.append_many",
    ],
    "core.auxtable.build_self_s": [
        "repro.core.auxtable.AuxTable+.insert_many",
        "repro.core.auxtable.AuxTable+.finalize",
        "repro.core.pipeline.make_aux_table",
        "repro.core.pipeline.build_sealed_aux",
        "repro.core.pipeline.aux_to_blob",
        "repro.core.compact.build_sealed_aux",
        "repro.core.compact.aux_to_blob",
        "repro.core.multiepoch.aux_from_blob",
        "repro.fleet.router.aux_from_blob",
    ],
    "storage.manifest.self_s": [
        "repro.storage.manifest.Manifest.add_epoch",
        "repro.storage.manifest.Manifest.save",
        "repro.storage.manifest.Manifest.commit",
        "repro.storage.manifest.Manifest.load",
    ],
    # -- background --------------------------------------------------------
    "core.compact.self_s": [
        "repro.core.compact.CompactionPolicy.select",
        "repro.core.compact.Compactor.run",
        "repro.core.compact.produce_merged_epoch",
        "repro.core.compact.read_table_arrays",
        "repro.core.compact.concat_values",
        "repro.core.compact.first_occurrence",
        "repro.core.compact.take_values",
        "repro.core.compact.write_merged_table",
    ],
    # -- read path ---------------------------------------------------------
    "core.multiepoch.self_s": [
        "repro.core.multiepoch.MultiEpochStore.write_epoch",
        "repro.core.multiepoch.MultiEpochStore.compact",
        "repro.core.multiepoch.MultiEpochStore.attach",
        "repro.core.multiepoch.MultiEpochStore.get",
        "repro.core.multiepoch.MultiEpochStore.get_many",
        "repro.core.multiepoch.MultiEpochStore.cached_engine",
        "repro.core.multiepoch.MultiEpochStore.aux_blobs",
    ],
    "core.auxtable.probe_self_s": [
        "repro.core.auxtable.AuxTable.candidate_ranks",
        "repro.core.auxtable.AuxTable.candidates_many",
        "repro.core.auxtable.AuxTable.candidate_counts",
    ],
    "core.reader.self_s": [
        "repro.core.reader.QueryEngine.get",
        "repro.core.reader.QueryEngine.get_many",
        "repro.core.reader.CachedQueryEngine.close",
    ],
    "storage.sstable.read_self_s": [
        "repro.storage.sstable.SSTableReader.__init__",
        "repro.storage.sstable.SSTableReader.get",
        "repro.storage.sstable.SSTableReader.get_many",
        "repro.storage.sstable.SSTableReader.scan_arrays",
        "repro.storage.sstable.SSTableReader.close",
    ],
    "storage.log.read_self_s": [
        "repro.storage.log.ValueLog.open",
        "repro.storage.log.ValueLog.read",
        "repro.storage.log.ValueLog.read_many",
    ],
    # -- serving -----------------------------------------------------------
    "serve.service.self_s": [
        "repro.serve.service.QueryService.get",
        "repro.serve.service.QueryService.invalidate",
        "repro.serve.service.QueryService.aux_state",
        # Private, but the dispatcher task is the only place a served miss
        # is executed; without it that work would read as load generator.
        "repro.serve.service.QueryService._dispatch_loop",
    ],
    "serve.proto.encode_self_s": ["repro.serve.proto.encode_frame"],
    "serve.proto.decode_self_s": ["repro.serve.proto.read_frame"],
    "serve.proto.conn_self_s": [
        "repro.serve.proto.TCPClient.get",
        "repro.serve.proto.TCPClient.aux_state",
        # Private task bodies of a connection's two ends.
        "repro.serve.proto.ServeServer._handle",
        "repro.serve.proto.TCPClient._pump_responses",
    ],
    # -- fleet -------------------------------------------------------------
    "fleet.router.plan_self_s": [
        "repro.fleet.router.FleetRouter.plan",
        "repro.fleet.router.ShardAuxView.claim",
    ],
    "fleet.router.get_self_s": [
        "repro.fleet.router.FleetRouter.get",
        "repro.fleet.router.FleetRouter.refresh",
    ],
    "fleet.ring.self_s": [
        "repro.fleet.ring.HashRing.owners",
        "repro.fleet.ring.HashRing.owners_many",
        "repro.fleet.ring.HashRing.primary_of",
    ],
    # -- the benchmark itself ----------------------------------------------
    "loadgen.self_s": ["workloads.WireWorkload._caller"],
    "eventloop.self_s": [],  # only ever a round's root span
    # -- program code no named layer claims --------------------------------
    "other.self_s": [
        "repro.cluster.simcluster.SimCluster.__init__",
        "repro.cluster.simcluster.SimCluster.put",
        "repro.cluster.simcluster.SimCluster.finish_epoch",
        "repro.cluster.simcluster.SimCluster.query_engine",
        "repro.core.routing.DirectRouter.send",
        "repro.core.routing.DirectRouter.flush",
    ],
}

# Callables whose span durations (or waits, for coroutines) feed a
# percentile, a maximum or a sum instead of only a self-time total.
KEEP = {
    "repro.core.multiepoch.MultiEpochStore.compact",
    "repro.serve.service.QueryService.get",
    "repro.fleet.router.FleetRouter.get",
}

# Counts taken at the span boundary: (positional args, result) -> increments.
MEASURES = {
    "repro.core.auxtable.AuxTable.candidate_ranks": lambda a, r: {
        "probe_keys": 1, "candidates": len(r)
    },
    "repro.core.auxtable.AuxTable.candidates_many": lambda a, r: {
        "probe_keys": len(a[1]), "candidates": int(r[0].sum())
    },
    "repro.serve.proto.encode_frame": lambda a, r: {"proto_bytes": len(r)},
}

MAX_SPANS_WRITTEN = 20_000


class Span:
    __slots__ = (
        "id", "parent", "rid", "metric", "name", "start", "end",
        "busy", "child", "seg", "steps",
    )


class Tracer:
    """In-memory span store with running per-layer aggregates."""

    def __init__(self):
        self.stack: list[Span] = []
        self.self_s = defaultdict(float)  # metric -> seconds
        self.calls = defaultdict(int)  # callable -> finished spans
        self.durations = defaultdict(list)  # KEEP callable -> span seconds
        self.waits = defaultdict(list)  # KEEP coroutine -> seconds not running
        self.measured = defaultdict(float)
        self.spans: list[Span] = []
        self.wall_s = 0.0
        self.opened = 0

    def open(self, metric: str, name: str, key=None) -> Span:
        span = Span()
        self.opened += 1
        span.id = self.opened
        parent = self.stack[-1] if self.stack else None
        span.parent = parent.id if parent is not None else 0
        # Spans of one request share the id of the outermost one: its key
        # argument when it has one, else a sequence number.
        if parent is not None and parent.rid is not None:
            span.rid = parent.rid
        elif parent is None:
            span.rid = None
        else:
            span.rid = key if isinstance(key, int) else f"op{span.id}"
        span.metric = metric
        span.name = name
        span.start = time.perf_counter()
        span.end = span.busy = span.child = 0.0
        span.steps = 0
        return span

    def resume(self, span: Span) -> None:
        self.stack.append(span)
        span.steps += 1
        span.seg = time.perf_counter()

    def suspend(self, span: Span) -> None:
        seg = time.perf_counter() - span.seg
        top = self.stack.pop()
        assert top is span, "span stack out of order"
        span.busy += seg
        if self.stack:
            self.stack[-1].child += seg

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self.self_s[span.metric] += span.busy - span.child
        self.calls[span.name] += 1
        if span.name in KEEP:
            self.durations[span.name].append(span.end - span.start)
            if span.steps > 1:
                self.waits[span.name].append(span.end - span.start - span.busy)
        if len(self.spans) < MAX_SPANS_WRITTEN:
            self.spans.append(span)

    # -- the root span of one timed round ----------------------------------

    def begin_round(self, metric: str) -> Span:
        root = self.open(metric, "round")
        self.resume(root)
        return root

    def end_round(self, root: Span) -> None:
        self.suspend(root)
        self.close(root)
        self.wall_s += root.end - root.start

    # -- output ------------------------------------------------------------

    def write_chrome_trace(self, path) -> None:
        """Spans as Chrome trace events (chrome://tracing, Perfetto).
        Synchronous spans are complete events on one track; a coroutine's
        life is an async begin/end pair, with its busy time in ``args``."""
        events = []
        for s in self.spans:
            args = {
                "rid": s.rid, "parent": s.parent,
                "self_us": round((s.busy - s.child) * 1e6, 1),
            }
            base = {"name": s.name, "cat": s.metric, "pid": 1, "tid": 1}
            if s.steps <= 1:
                events.append(
                    {**base, "ph": "X", "ts": round(s.start * 1e6, 1),
                     "dur": round((s.end - s.start) * 1e6, 1), "args": args}
                )
            else:
                args["busy_us"] = round(s.busy * 1e6, 1)
                ts, te = round(s.start * 1e6, 1), round(s.end * 1e6, 1)
                events.append({**base, "ph": "b", "id": s.id, "ts": ts, "args": args})
                events.append({**base, "ph": "e", "id": s.id, "ts": te})
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"traceEvents": events, "displayTimeUnit": "ms"}))


class _Stepper:
    """Awaitable that drives a coroutine step by step, so a span is busy
    only while the coroutine runs and idle while it is suspended."""

    __slots__ = ("coro", "tracer", "span")

    def __init__(self, coro, tracer: Tracer, span: Span):
        self.coro, self.tracer, self.span = coro, tracer, span

    def __await__(self):
        tracer, span = self.tracer, self.span
        inner = self.coro.__await__()
        step, arg = inner.send, None
        try:
            while True:
                tracer.resume(span)
                try:
                    waited_on = step(arg)
                except StopIteration as stop:
                    return stop.value
                finally:
                    tracer.suspend(span)
                try:
                    arg = yield waited_on
                    step = inner.send
                except GeneratorExit:
                    inner.close()
                    raise
                except BaseException as exc:  # cancellation included: hand it in
                    step, arg = inner.throw, exc
        finally:
            tracer.close(span)


def _traced(fn, metric: str, name: str, tracer: Tracer):
    measure = MEASURES.get(name)
    if inspect.iscoroutinefunction(fn):

        @functools.wraps(fn)
        async def traced_coroutine(*a, **k):
            span = tracer.open(metric, name, a[1] if len(a) > 1 else None)
            return await _Stepper(fn(*a, **k), tracer, span)

        traced_coroutine.e2e_span = True
        return traced_coroutine

    @functools.wraps(fn)
    def traced(*a, **k):
        span = tracer.open(metric, name, a[1] if len(a) > 1 else None)
        tracer.resume(span)
        try:
            result = fn(*a, **k)
        finally:
            tracer.suspend(span)
            tracer.close(span)
        if measure is not None:
            for what, n in measure(a, result).items():
                tracer.measured[what] += n
        return result

    traced.e2e_span = True
    return traced


def _subclasses(cls) -> list:
    out = []
    for sub in cls.__subclasses__():
        out.append(sub)
        out.extend(_subclasses(sub))
    return out


def _owners(dotted: str) -> tuple[list, str]:
    """Objects that hold the named attribute (none if the name is gone)."""
    parts = dotted.split(".")
    for cut in range(len(parts) - 1, 0, -1):
        try:
            owners = [importlib.import_module(".".join(parts[:cut]))]
        except ImportError:
            continue
        break
    else:
        return [], parts[-1]
    *path, attr = parts[cut:]
    expanded = False
    for part in path:
        with_subclasses = part.endswith("+")
        found = [getattr(o, part.rstrip("+"), None) for o in owners]
        owners = [o for o in found if o is not None]
        if with_subclasses:
            expanded = True
            owners += [sub for o in owners for sub in _subclasses(o)]
    if expanded:  # only where it is defined, or inherited code is wrapped twice
        owners = [
            o for o in owners
            if attr in vars(o) and not getattr(vars(o)[attr], "__isabstractmethod__", False)
        ]
    return [o for o in owners if hasattr(o, attr)], attr


def install(tracer: Tracer) -> list:
    """Wrap every callable in `LAYERS`; returns what `uninstall` needs."""
    undo = []
    for metric, names in LAYERS.items():
        for dotted in names:
            owners, attr = _owners(dotted)
            if not owners:
                print(f"warning: {dotted} is gone; {metric} no longer counts it", file=sys.stderr)
            for owner in owners:
                had = vars(owner).get(attr)
                raw = had if had is not None else getattr(owner, attr)
                kind = type(raw) if isinstance(raw, (staticmethod, classmethod)) else None
                fn = raw.__func__ if kind else raw
                if not callable(fn):
                    print(f"warning: {dotted} is not callable; skipped", file=sys.stderr)
                    continue
                # A "+" name is reported under its base spelling, so KEEP,
                # MEASURES and call counts do not depend on the backend.
                wrapped = _traced(fn, metric, dotted.replace("+", ""), tracer)
                setattr(owner, attr, kind(wrapped) if kind else wrapped)
                undo.append((owner, attr, had))
    return undo


def wrapped() -> list[str]:
    """Names in `LAYERS` that currently resolve to a span wrapper."""
    out = []
    for names in LAYERS.values():
        for dotted in names:
            owners, attr = _owners(dotted)
            if any(getattr(getattr(o, attr), "e2e_span", False) for o in owners):
                out.append(dotted)
    return out


def uninstall(undo: list) -> None:
    for owner, attr, had in reversed(undo):
        if had is None:
            delattr(owner, attr)
        else:
            setattr(owner, attr, had)
