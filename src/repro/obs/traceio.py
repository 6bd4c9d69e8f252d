"""Machine-readable views of traces: JSONL, Chrome ``trace_event``, trees.

Mirrors `repro.obs.export` for spans instead of metric series:

* **JSONL** (schema ``repro.trace/v1``) — a header line followed by one
  span per line.
* **Chrome trace_event** — the ``{"traceEvents": [...]}`` document
  ``about://tracing`` and Perfetto load directly: each span becomes a
  complete ("ph": "X") event, traces map to thread lanes, and the span's
  attrs/counters land in ``args``.
* **Trees** — `build_trees` reassembles parent links into nested nodes
  and `render_tree` draws the ASCII view the CLI prints for a sampled
  slow request.
"""

from __future__ import annotations

import json

from .trace import SpanRecord

__all__ = [
    "TRACE_SCHEMA",
    "span_to_dict",
    "span_from_dict",
    "dump_trace_jsonl",
    "chrome_trace",
    "build_trees",
    "render_tree",
]

TRACE_SCHEMA = "repro.trace/v1"


def span_to_dict(span: SpanRecord) -> dict:
    out = {
        "trace_id": span.trace_id,
        "span_id": span.span_id,
        "parent_id": span.parent_id,
        "name": span.name,
        "start": span.start,
        "end": span.end,
        "status": span.status,
    }
    if span.attrs:
        out["attrs"] = dict(span.attrs)
    if span.counters:
        out["counters"] = dict(span.counters)
    return out


def span_from_dict(fields: dict) -> SpanRecord:
    return SpanRecord(
        trace_id=fields["trace_id"],
        span_id=fields["span_id"],
        parent_id=fields.get("parent_id"),
        name=fields["name"],
        start=float(fields["start"]),
        end=float(fields["end"]),
        status=fields.get("status", "ok"),
        attrs=dict(fields.get("attrs", {})),
        counters=dict(fields.get("counters", {})),
    )


def dump_trace_jsonl(spans) -> str:
    """Header line + one span per line (ends with a newline when any)."""
    lines = [json.dumps({"schema": TRACE_SCHEMA}, sort_keys=True)]
    lines += [json.dumps(span_to_dict(s), sort_keys=True) for s in spans]
    return "\n".join(lines) + "\n"


def chrome_trace(spans) -> dict:
    """Spans as a Chrome/Perfetto ``trace_event`` document.

    Timestamps are microseconds relative to the earliest span, one
    ``tid`` lane per trace id, duration ("X") events throughout — load
    the JSON straight into ``about://tracing``.
    """
    spans = list(spans)
    origin = min((s.start for s in spans), default=0.0)
    lanes: dict[str, int] = {}
    events = []
    for s in spans:
        tid = lanes.setdefault(s.trace_id, len(lanes) + 1)
        args: dict = {"trace_id": s.trace_id, "span_id": s.span_id, "status": s.status}
        if s.attrs:
            args.update({f"attr.{k}": v for k, v in s.attrs.items()})
        if s.counters:
            args.update({f"counter.{k}": v for k, v in s.counters.items()})
        events.append(
            {
                "name": s.name,
                "cat": s.name.split(".", 1)[0],
                "ph": "X",
                "ts": round((s.start - origin) * 1e6, 3),
                "dur": round(s.duration * 1e6, 3),
                "pid": 1,
                "tid": tid,
                "args": args,
            }
        )
    return {
        "displayTimeUnit": "ms",
        "metadata": {"schema": TRACE_SCHEMA},
        "traceEvents": events,
    }


def build_trees(spans) -> list[dict]:
    """Nest spans by parent link: ``{"span": SpanRecord, "children": [...]}``.

    Roots are spans whose parent is absent from the set (either a true
    root or a span whose remote parent lives in another process — the
    client side of a propagated trace).  Children sort by start time.
    """
    spans = list(spans)
    by_id = {s.span_id: s for s in spans}
    nodes = {s.span_id: {"span": s, "children": []} for s in spans}
    roots = []
    for s in sorted(spans, key=lambda s: s.start):
        if s.parent_id is not None and s.parent_id in by_id:
            nodes[s.parent_id]["children"].append(nodes[s.span_id])
        else:
            roots.append(nodes[s.span_id])
    return roots


def _render_node(node: dict, lines: list[str], depth: int, show_counters: bool) -> None:
    s: SpanRecord = node["span"]
    pad = "  " * depth
    dur_ms = s.duration * 1e3
    extras = ""
    if s.status != "ok":
        extras += f" !{s.status}"
    interesting = {k: v for k, v in s.attrs.items() if k not in ("key", "epoch")}
    if interesting:
        extras += " " + " ".join(f"{k}={v}" for k, v in sorted(interesting.items()))
    lines.append(f"{pad}{s.name:<{max(1, 28 - len(pad))}} {dur_ms:9.3f} ms{extras}")
    if show_counters and s.counters:
        for key in sorted(s.counters):
            lines.append(f"{pad}  · {key} +{s.counters[key]:g}")
    for child in node["children"]:
        _render_node(child, lines, depth + 1, show_counters)


def render_tree(spans, show_counters: bool = True) -> str:
    """ASCII span tree (per trace) with durations and counter deltas."""
    roots = build_trees(spans)
    if not roots:
        return "(no spans)"
    lines: list[str] = []
    for root in roots:
        _render_node(root, lines, 0, show_counters)
    return "\n".join(lines)
