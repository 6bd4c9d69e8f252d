"""Tests for JSON/JSONL export of a metrics registry."""

import json

from repro.obs import (
    SCHEMA,
    MetricsRegistry,
    dump_jsonl,
    registry_to_dict,
    registry_to_json,
)


def _sample_registry():
    reg = MetricsRegistry("run")
    reg.counter("pipeline.wire_bytes", format="filterkv").inc(800)
    reg.counter("pipeline.wire_bytes", format="dataptr").inc(1600)
    reg.gauge("aux.utilization", backend="cuckoo").set(0.84)
    h = reg.histogram("reader.read_amplification", format="filterkv")
    for v in (1, 1, 2, 3):
        h.observe(v)
    return reg


def test_registry_to_dict_shape():
    doc = registry_to_dict(_sample_registry())
    assert doc["schema"] == SCHEMA
    assert doc["name"] == "run"
    assert len(doc["metrics"]) == 4
    by_kind = {m["kind"] for m in doc["metrics"]}
    assert by_kind == {"counter", "gauge", "histogram"}
    hist = next(m for m in doc["metrics"] if m["kind"] == "histogram")
    assert hist["count"] == 4 and hist["p50"] == 1.5 and hist["values"] == [1, 1, 2, 3]


def test_registry_to_json_is_valid_and_sorted():
    text = registry_to_json(_sample_registry())
    doc = json.loads(text)
    names = [m["name"] for m in doc["metrics"]]
    assert names == sorted(names)


def test_samples_can_be_elided():
    doc = registry_to_dict(_sample_registry(), include_samples=False)
    hist = next(m for m in doc["metrics"] if m["kind"] == "histogram")
    assert "values" not in hist
    assert hist["p99"] > 0  # summary stats survive


def test_jsonl_round_trip_exact():
    reg = _sample_registry()
    text = dump_jsonl(reg)
    assert text.endswith("\n")
    # Parsed back line by line, the text is exactly the document's series.
    lines = [json.loads(line) for line in text.splitlines()]
    assert lines == registry_to_dict(reg)["metrics"]


def test_jsonl_empty_registry():
    assert dump_jsonl(MetricsRegistry()) == ""
