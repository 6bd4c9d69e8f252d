"""Unified telemetry: metrics registry, instruments, and exporters.

The observability layer the evaluation is built on (paper §V): every
layer of the system — pipelines, auxiliary tables, filters, storage,
the read path, the DES tracer — reports into one `MetricsRegistry`, and
one export path (`registry_to_json` / `dump_jsonl`) turns a run into a
machine-readable document.

Telemetry is opt-in.  Components take ``metrics=None`` and normalize it
with `active`, which substitutes the shared `NULL_REGISTRY` — a no-op
registry whose instruments discard everything — so the uninstrumented
path stays effectively free.

There is also a process-wide default registry for code with no
constructor to thread a registry through (e.g. the compression codec):
`get_default_registry` returns the null registry unless a run installed
a real one with `set_default_registry`.
"""

from __future__ import annotations

from .export import (
    SCHEMA,
    dump_jsonl,
    registry_to_dict,
    registry_to_json,
    series_to_dict,
)
from .metrics import (
    NULL_REGISTRY,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    NullRegistry,
    active,
)
from .timeseries import TimeseriesHub
from .trace import (
    ActiveSpan,
    SpanRecord,
    TraceCollector,
    TraceContext,
    child_span,
    counter_key,
    current_span,
    snapshot_counters,
)
from .traceio import (
    TRACE_SCHEMA,
    build_trees,
    chrome_trace,
    dump_trace_jsonl,
    render_tree,
    span_from_dict,
    span_to_dict,
)

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NullRegistry",
    "NULL_REGISTRY",
    "active",
    "SCHEMA",
    "registry_to_dict",
    "registry_to_json",
    "dump_jsonl",
    "series_to_dict",
    "get_default_registry",
    "set_default_registry",
    # tracing
    "SpanRecord",
    "TraceContext",
    "ActiveSpan",
    "TraceCollector",
    "current_span",
    "child_span",
    "counter_key",
    "snapshot_counters",
    "TRACE_SCHEMA",
    "span_to_dict",
    "span_from_dict",
    "dump_trace_jsonl",
    "chrome_trace",
    "build_trees",
    "render_tree",
    # live windows
    "TimeseriesHub",
]

_default: MetricsRegistry = NULL_REGISTRY


def get_default_registry() -> MetricsRegistry:
    """The process-wide registry (null unless one was installed)."""
    return _default


def set_default_registry(registry: MetricsRegistry | None) -> MetricsRegistry:
    """Install (or, with ``None``, clear) the process-wide registry.

    Returns the previous registry so callers can restore it::

        prev = set_default_registry(reg)
        try: ...
        finally: set_default_registry(prev)
    """
    global _default
    prev = _default
    _default = active(registry)
    return prev
