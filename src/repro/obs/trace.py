"""Request-scoped tracing: sampled span trees with counter attribution.

Where `repro.obs.metrics` answers "how much, in total?", this module
answers "where did *this* request spend its time?".  A `TraceCollector`
records **spans** — named intervals with a trace id, a span id, and a
parent link — into a bounded ring, so a sampled request comes back with a
tree: ``serve.get`` → ``serve.batch`` → ``engine.get_many`` →
``sstable.get_many``.

Three ideas carry the design:

* **Trace-context propagation.**  A `TraceContext` is the portable
  (trace_id, span_id, sampled) triple.  It crosses process boundaries as
  a plain dict (`to_wire` / `from_wire` — the serve protocol puts it in
  frame headers) and crosses *layer* boundaries in-process through a
  `contextvars.ContextVar`: code deep in the storage stack calls
  `child_span("sstable.get_many")` without ever being handed a tracer,
  and the span attaches under whatever span is current in this task.

* **Counter deltas per span.**  A span opened with ``counters=registry``
  snapshots the registry's counter values on entry and records the
  *delta* on exit — and the delta is **exclusive**: whatever a child span
  already attributed is subtracted from its parent, so summing any
  counter over a whole span tree reproduces the aggregate exactly (the
  same "charge once" discipline the bulk read path uses for I/O).

* **Zero-cost default.**  An unsampled request creates no spans:
  `child_span` costs one ContextVar read when no trace is active.
  Tracing off is the service's default (a collector with
  ``sample_rate=0``), so every untraced benchmark run times it.

Sampling is seeded and deterministic, like every other source of
randomness in the reproduction.
"""

from __future__ import annotations

import random
import time
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, field

from .metrics import Counter, MetricsRegistry

__all__ = [
    "SpanRecord",
    "TraceContext",
    "ActiveSpan",
    "TraceCollector",
    "current_span",
    "child_span",
    "snapshot_counters",
    "counter_key",
]


def counter_key(name: str, labels) -> str:
    """Stable string key for one labeled counter series: ``name{k=v,...}``."""
    if not labels:
        return name
    inner = ",".join(f"{k}={v}" for k, v in labels)
    return f"{name}{{{inner}}}"


def snapshot_counters(registry: MetricsRegistry, prefixes: tuple[str, ...] | None = None) -> dict:
    """Current value of every counter series (optionally prefix-filtered)."""
    out: dict[str, float] = {}
    for (name, labels), inst in registry._series.items():
        if not isinstance(inst, Counter):
            continue
        if prefixes is not None and not name.startswith(prefixes):
            continue
        out[counter_key(name, labels)] = inst.value
    return out


@dataclass(frozen=True)
class TraceContext:
    """The portable trace coordinates one hop hands the next."""

    trace_id: str
    span_id: str
    sampled: bool = True

    def to_wire(self) -> dict:
        return {"trace_id": self.trace_id, "span_id": self.span_id, "sampled": self.sampled}

    @classmethod
    def from_wire(cls, fields) -> "TraceContext | None":
        """Parse a wire dict; returns None for anything malformed (a bad
        trace header must never fail the request that carries it)."""
        if not isinstance(fields, dict):
            return None
        trace_id = fields.get("trace_id")
        span_id = fields.get("span_id")
        if not isinstance(trace_id, str) or not isinstance(span_id, str):
            return None
        return cls(trace_id, span_id, bool(fields.get("sampled", True)))


@dataclass
class SpanRecord:
    """One finished span, as stored in the collector's ring."""

    trace_id: str
    span_id: str
    parent_id: str | None
    name: str
    start: float
    end: float
    status: str = "ok"
    attrs: dict = field(default_factory=dict)
    counters: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


_CURRENT: ContextVar["ActiveSpan | None"] = ContextVar("repro_trace_current", default=None)


class ActiveSpan:
    """An open span.  Created by `TraceCollector.start`; finish it (or use
    the `TraceCollector.span` context manager) to land a `SpanRecord`."""

    __slots__ = (
        "collector",
        "trace_id",
        "span_id",
        "parent_id",
        "name",
        "start_time",
        "attrs",
        "_registry",
        "_prefixes",
        "_base",
        "_child_counters",
        "_extra_counters",
        "_parent_span",
        "_finished",
    )

    def __init__(
        self,
        collector: "TraceCollector",
        trace_id: str,
        span_id: str,
        parent_id: str | None,
        name: str,
        attrs: dict,
        registry: MetricsRegistry | None,
        prefixes: tuple[str, ...] | None,
        parent_span: "ActiveSpan | None",
    ):
        self.collector = collector
        self.trace_id = trace_id
        self.span_id = span_id
        self.parent_id = parent_id
        self.name = name
        self.start_time = collector.clock()
        self.attrs = attrs
        self._registry = registry
        self._prefixes = prefixes
        self._base = snapshot_counters(registry, prefixes) if registry is not None else None
        self._child_counters: dict[str, float] = {}
        self._extra_counters: dict[str, float] = {}
        self._parent_span = parent_span
        self._finished = False

    @property
    def ctx(self) -> TraceContext:
        """Context for propagating this span as a parent."""
        return TraceContext(self.trace_id, self.span_id, sampled=True)

    def annotate(self, **attrs) -> None:
        self.attrs.update(attrs)

    def charge(self, key: str, n: float = 1) -> None:
        """Explicitly attribute ``n`` increments of one counter series.

        The registry-snapshot path is only exact for spans whose open
        interval is synchronous; a span that stays open across an await
        (a request's root while it waits on the dispatcher) overlaps its
        siblings and would claim their work.  Such spans skip the
        snapshot and charge their own, enumerable increments here — the
        finished record merges both.  ``key`` is a `counter_key` string.
        """
        self._extra_counters[key] = self._extra_counters.get(key, 0) + n

    def finish(self, status: str = "ok") -> SpanRecord | None:
        """Close the span and land it in the collector (idempotent)."""
        if self._finished:
            return None
        self._finished = True
        counters: dict[str, float] = {}
        if self._base is not None:
            now = snapshot_counters(self._registry, self._prefixes)
            for key, value in now.items():
                delta = value - self._base.get(key, 0)
                if delta == 0:
                    continue
                # Inclusive delta flows up so the parent can exclude it...
                if self._parent_span is not None and not self._parent_span._finished:
                    acc = self._parent_span._child_counters
                    acc[key] = acc.get(key, 0) + delta
                # ...and this span keeps only what its children did not claim.
                own = delta - self._child_counters.get(key, 0)
                if own > 0:
                    counters[key] = own
        for key, n in self._extra_counters.items():
            counters[key] = counters.get(key, 0) + n
        record = SpanRecord(
            trace_id=self.trace_id,
            span_id=self.span_id,
            parent_id=self.parent_id,
            name=self.name,
            start=self.start_time,
            end=self.collector.clock(),
            status=status,
            attrs=self.attrs,
            counters=counters,
        )
        self.collector._append(record)
        return record


class TraceCollector:
    """Samples, assembles, and retains span trees.

    Parameters
    ----------
    sample_rate:
        Probability (0..1) that `should_sample` elects a new request.
        0 keeps the collector usable for *propagated* traces (a client
        that sampled upstream) while originating none locally.
    seed:
        Seeds both the sampling decisions and the id generator.
    clock:
        Timestamp source; spans from one collector share it.
    """

    MAX_SPANS = 4096  # ring bound on retained finished spans (oldest evicted first)

    def __init__(
        self,
        sample_rate: float = 0.0,
        seed: int = 0,
        clock=time.perf_counter,
    ):
        if not 0.0 <= sample_rate <= 1.0:
            raise ValueError(f"sample_rate must be in [0, 1], got {sample_rate}")
        self.sample_rate = sample_rate
        self.clock = clock
        self._rng = random.Random(seed)
        self._spans: list[SpanRecord] = []

    # -- ids and sampling ---------------------------------------------------

    def new_id(self) -> str:
        return f"{self._rng.getrandbits(64):016x}"

    def should_sample(self) -> bool:
        if not self.sample_rate:
            return False
        return self._rng.random() < self.sample_rate

    # -- span lifecycle -----------------------------------------------------

    def start(
        self,
        name: str,
        parent: "ActiveSpan | TraceContext | None" = None,
        counters: MetricsRegistry | None = None,
        prefixes: tuple[str, ...] | None = None,
        **attrs,
    ) -> ActiveSpan:
        """Open a span.  ``parent`` may be a local `ActiveSpan` (counter
        exclusion applies), a propagated `TraceContext`, or None (a new
        root in a fresh trace)."""
        parent_span = parent if isinstance(parent, ActiveSpan) else None
        if parent is None:
            trace_id, parent_id = self.new_id(), None
        else:
            trace_id, parent_id = parent.trace_id, parent.span_id
        return ActiveSpan(
            self, trace_id, self.new_id(), parent_id, name, attrs, counters, prefixes, parent_span
        )

    @contextmanager
    def span(
        self,
        name: str,
        parent: "ActiveSpan | TraceContext | None" = None,
        counters: MetricsRegistry | None = None,
        prefixes: tuple[str, ...] | None = None,
        **attrs,
    ):
        """Context manager: open a span, make it *current* for the
        enclosed block (so `child_span` calls nest under it), and finish
        it on exit — tagged ``error`` when the body raises."""
        active = self.start(name, parent=parent, counters=counters, prefixes=prefixes, **attrs)
        token = _CURRENT.set(active)
        try:
            yield active
        except BaseException:
            active.finish(status="error")
            raise
        finally:
            _CURRENT.reset(token)
            active.finish()

    def record(
        self,
        name: str,
        start: float,
        end: float,
        *,
        trace_id: str,
        parent_id: str | None = None,
        status: str = "ok",
        attrs: dict | None = None,
        counters: dict | None = None,
    ) -> SpanRecord:
        """Directly land an already-timed span (queue waits, mirrors)."""
        record = SpanRecord(
            trace_id=trace_id,
            span_id=self.new_id(),
            parent_id=parent_id,
            name=name,
            start=start,
            end=end,
            status=status,
            attrs=dict(attrs or {}),
            counters=dict(counters or {}),
        )
        self._append(record)
        return record

    def _append(self, record: SpanRecord) -> None:
        self._spans.append(record)
        if len(self._spans) > self.MAX_SPANS:
            del self._spans[: len(self._spans) - self.MAX_SPANS]

    # -- retrieval ----------------------------------------------------------

    @property
    def spans(self) -> list[SpanRecord]:
        return list(self._spans)

    def __len__(self) -> int:
        return len(self._spans)

    def trace(self, trace_id: str) -> list[SpanRecord]:
        """Every retained span of one trace, in finish order."""
        return [s for s in self._spans if s.trace_id == trace_id]

    def subtree(self, span_id: str) -> list[SpanRecord]:
        """A span and every retained descendant of it."""
        want = {span_id}
        out: list[SpanRecord] = []
        # Spans finish children-first, so sweep until closure.
        changed = True
        members: list[SpanRecord] = []
        while changed:
            changed = False
            for s in self._spans:
                if s in members:
                    continue
                if s.span_id in want or (s.parent_id in want):
                    members.append(s)
                    if s.span_id not in want:
                        want.add(s.span_id)
                    changed = True
        out = [s for s in self._spans if s in members]
        return out

    def recent_traces(self, n: int = 8) -> list[list[SpanRecord]]:
        """The last ``n`` distinct traces (newest first), spans grouped."""
        seen: list[str] = []
        for s in reversed(self._spans):
            if len(seen) >= n:
                break
            if s.trace_id not in seen:
                seen.append(s.trace_id)
        return [self.trace(t) for t in seen]


def current_span() -> ActiveSpan | None:
    """The span the running task is inside, if any."""
    return _CURRENT.get()


class _NullSpanCM:
    """Shared no-op context manager for the untraced fast path."""

    __slots__ = ()

    def __enter__(self):
        return None

    def __exit__(self, *exc):
        return False


_NULL_SPAN = _NullSpanCM()


def child_span(
    name: str,
    counters: MetricsRegistry | None = None,
    prefixes: tuple[str, ...] | None = None,
    **attrs,
):
    """Span under the *current* span, or a no-op when nothing is traced.

    This is how instrumented layers (query engine, SSTable reader, value
    log) participate in tracing without taking a tracer argument: one
    ContextVar read decides, and only sampled requests pay for spans.
    """
    parent = _CURRENT.get()
    if parent is None:
        return _NULL_SPAN
    return parent.collector.span(
        name,
        parent=parent,
        counters=counters,
        prefixes=prefixes,
        **attrs,
    )
