"""Machine-readable views of a `MetricsRegistry`: JSON and JSONL.

One schema everywhere — the ``repro metrics`` CLI, ``compare
--metrics-out``, and the benchmark ``--json`` mode all serialize through
these helpers, so downstream tooling parses a single shape:

* **JSON document** — ``{"schema": "repro.metrics/v1", "name": ...,
  "metrics": [<series>, ...]}`` with one entry per labeled series.
* **JSONL** — the same series dicts, one per line, for appending runs to a
  trajectory file.

Histograms serialize their summary statistics *and* (optionally) raw
observations, so ``load_jsonl(dump_jsonl(r))`` round-trips exactly.
"""

from __future__ import annotations

import json
import re

from .metrics import Counter, Gauge, Histogram, MetricsRegistry

__all__ = [
    "SCHEMA",
    "registry_to_dict",
    "registry_to_json",
    "registry_to_prometheus",
    "dump_jsonl",
    "load_jsonl",
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


_PROM_NAME_BAD = re.compile(r"[^a-zA-Z0-9_:]")
_PROM_LABEL_BAD = re.compile(r"[^a-zA-Z0-9_]")
_PROM_QUANTILES = (0.5, 0.9, 0.95, 0.99)


def _prom_name(name: str) -> str:
    """Sanitize a dotted series name to Prometheus metric-name charset."""
    out = _PROM_NAME_BAD.sub("_", name)
    if not out or out[0].isdigit():
        out = "_" + out
    return out


def _prom_label_name(name: str) -> str:
    out = _PROM_LABEL_BAD.sub("_", name)
    if not out or out[0].isdigit():
        out = "_" + out
    return out


def _prom_label_value(value: str) -> str:
    return value.replace("\\", r"\\").replace('"', r"\"").replace("\n", r"\n")


def _prom_labels(labels, extra: dict | None = None) -> str:
    pairs = [(_prom_label_name(k), _prom_label_value(str(v))) for k, v in labels]
    if extra:
        pairs += [(_prom_label_name(k), _prom_label_value(str(v))) for k, v in extra.items()]
    if not pairs:
        return ""
    return "{" + ",".join(f'{k}="{v}"' for k, v in sorted(pairs)) + "}"


def _prom_value(v: float) -> str:
    f = float(v)
    return str(int(f)) if f.is_integer() else repr(f)


def registry_to_prometheus(registry: MetricsRegistry) -> str:
    """The registry in Prometheus text exposition format (version 0.0.4).

    Counters gain the conventional ``_total`` suffix; histograms export
    as summaries (``{quantile="..."}`` series plus ``_sum``/``_count``);
    names and label names are sanitized to the Prometheus charset and
    label values are escaped.  One ``# TYPE`` line precedes each metric
    family, families sorted by name for diff-stable output.
    """
    families: dict[tuple[str, str], list[str]] = {}
    for name, labels, inst in registry.series():
        if isinstance(inst, Histogram):
            base = _prom_name(name)
            lines = families.setdefault((base, "summary"), [])
            for q in _PROM_QUANTILES:
                lines.append(
                    f"{base}{_prom_labels(labels, {'quantile': q})} "
                    f"{_prom_value(inst.quantile(q))}"
                )
            lines.append(f"{base}_sum{_prom_labels(labels)} {_prom_value(inst.total)}")
            lines.append(f"{base}_count{_prom_labels(labels)} {inst.count}")
        elif isinstance(inst, Counter):
            base = _prom_name(name) + "_total"
            families.setdefault((base, "counter"), []).append(
                f"{base}{_prom_labels(labels)} {_prom_value(inst.value)}"
            )
        elif isinstance(inst, Gauge):
            base = _prom_name(name)
            families.setdefault((base, "gauge"), []).append(
                f"{base}{_prom_labels(labels)} {_prom_value(inst.value)}"
            )
    out: list[str] = []
    for (base, kind), lines in sorted(families.items()):
        out.append(f"# TYPE {base} {kind}")
        out.extend(lines)
    return "\n".join(out) + ("\n" if out else "")


def load_jsonl(text: str, name: str = "") -> MetricsRegistry:
    """Rebuild a registry from `dump_jsonl` output (inverse operation)."""
    registry = MetricsRegistry(name)
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        entry = json.loads(line)
        inst = registry._instrument(entry["kind"], entry["name"], entry.get("labels", {}))
        inst._load(entry)
    return registry
