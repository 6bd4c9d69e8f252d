"""Fixed-width table/series renderers for the benchmark harness.

Every ``benchmarks/bench_*.py`` prints the rows/series the corresponding
paper table or figure reports; these helpers keep that output uniform and
diff-friendly (EXPERIMENTS.md embeds it verbatim).

Besides the human-readable rendering there is a machine-readable twin:
`table_data` turns the same (headers, rows) into a JSON-safe dict, and
`table_artifact` returns both forms at once so a benchmark can hand the
``report`` fixture its text *and* the structured payload that
``pytest benchmarks/ --json`` serializes to ``results/<name>.json``
(schema `BENCH_SCHEMA`).
"""

from __future__ import annotations

from typing import Any, Sequence

__all__ = [
    "render_table",
    "format_value",
    "percent",
    "banner",
    "table_data",
    "table_artifact",
    "bench_document",
    "BENCH_SCHEMA",
]

BENCH_SCHEMA = "repro.bench/v1"


def format_value(v: Any) -> str:
    if isinstance(v, float):
        if v == 0:
            return "0"  # covers -0.0: a signed zero is still zero
        if abs(v) >= 1000 or abs(v) < 0.01:
            return f"{v:.3g}"
        s = f"{v:.2f}"
        # Values like 999.996 round across the threshold under %.2f and
        # would print "1000.00" next to "1e+03" peers; keep the thousands
        # scale consistent by re-rendering them the way >=1000 goes.
        if abs(float(s)) >= 1000:
            return f"{v:.3g}"
        return s
    return str(v)


def percent(x: float) -> str:
    """Render a fractional slowdown the way the paper does (x1.0 = 100 %)."""
    return f"{x * 100:.0f}%"


def render_table(headers: Sequence[str], rows: Sequence[Sequence[Any]], title: str = "") -> str:
    """Monospace table with right-aligned numeric columns."""
    cells = [[format_value(v) for v in row] for row in rows]
    widths = [
        max(len(h), *(len(r[i]) for r in cells)) if cells else len(h)
        for i, h in enumerate(headers)
    ]
    lines = []
    if title:
        lines.append(title)
    lines.append("  ".join(h.rjust(w) for h, w in zip(headers, widths)))
    lines.append("  ".join("-" * w for w in widths))
    for row in cells:
        lines.append("  ".join(c.rjust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)


def banner(text: str) -> str:
    bar = "=" * max(40, len(text) + 4)
    return f"{bar}\n  {text}\n{bar}"


def _native(v: Any) -> Any:
    """JSON-safe scalar: unwrap numpy types, stringify anything exotic."""
    if hasattr(v, "item"):
        try:
            v = v.item()
        except (TypeError, ValueError):
            pass
    if v is None or isinstance(v, (bool, int, float, str)):
        return v
    return str(v)


def table_data(
    headers: Sequence[str], rows: Sequence[Sequence[Any]], title: str = ""
) -> dict:
    """Machine-readable twin of `render_table`'s output."""
    return {
        "title": title,
        "columns": [str(h) for h in headers],
        "rows": [[_native(v) for v in row] for row in rows],
    }


def table_artifact(
    headers: Sequence[str], rows: Sequence[Sequence[Any]], title: str = ""
) -> tuple[str, dict]:
    """(rendered text, JSON payload) for one benchmark table."""
    return render_table(headers, rows, title), table_data(headers, rows, title)


def bench_document(name: str, data: dict) -> dict:
    """Wrap one benchmark's structured payload in the versioned envelope
    that ``results/<name>.json`` files carry."""
    return {"schema": BENCH_SCHEMA, "bench": name, **data}
