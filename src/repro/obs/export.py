"""Machine-readable views of a `MetricsRegistry`: JSON and JSONL.

One schema everywhere — the ``repro metrics`` CLI and the benchmark
``--json`` mode both serialize through these helpers, so downstream
tooling parses a single shape:

* **JSON document** — ``{"schema": "repro.metrics/v1", "name": ...,
  "metrics": [<series>, ...]}`` with one entry per labeled series.
* **JSONL** — the same series dicts, one per line, for appending runs to a
  trajectory file.

Histograms serialize their summary statistics *and* (optionally) raw
observations.
"""

from __future__ import annotations

import json

from .metrics import MetricsRegistry

__all__ = [
    "SCHEMA",
    "registry_to_dict",
    "registry_to_json",
    "dump_jsonl",
    "series_to_dict",
]

SCHEMA = "repro.metrics/v1"


def series_to_dict(name: str, labels, inst, include_samples: bool = True) -> dict:
    """One labeled series as a plain dict."""
    out = {"name": name, "kind": inst.kind, "labels": dict(labels)}
    state = inst._state()
    if not include_samples:
        state.pop("values", None)
    out.update(state)
    return out


def registry_to_dict(registry: MetricsRegistry, include_samples: bool = True) -> dict:
    return {
        "schema": SCHEMA,
        "name": registry.name,
        "metrics": [
            series_to_dict(name, labels, inst, include_samples)
            for name, labels, inst in registry.series()
        ],
    }


def registry_to_json(
    registry: MetricsRegistry, include_samples: bool = True, indent: int | None = 2
) -> str:
    return json.dumps(registry_to_dict(registry, include_samples), indent=indent, sort_keys=True)


def dump_jsonl(registry: MetricsRegistry) -> str:
    """One series per line (ends with a newline when non-empty)."""
    lines = [
        json.dumps(series_to_dict(name, labels, inst), sort_keys=True)
        for name, labels, inst in registry.series()
    ]
    return "\n".join(lines) + ("\n" if lines else "")
