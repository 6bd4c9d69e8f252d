"""Request tracing: contexts, span trees, counter attribution, IO."""

import json

import pytest

from repro.obs import (
    MetricsRegistry,
    SpanRecord,
    TraceCollector,
    TraceContext,
    build_trees,
    child_span,
    chrome_trace,
    counter_key,
    current_span,
    dump_trace_jsonl,
    render_tree,
    snapshot_counters,
    span_from_dict,
    span_to_dict,
)


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


# -- context propagation ------------------------------------------------------


def test_trace_context_wire_round_trip():
    ctx = TraceContext("t" * 16, "s" * 16, sampled=True)
    assert TraceContext.from_wire(ctx.to_wire()) == ctx


@pytest.mark.parametrize(
    "bad",
    [None, 42, "str", [], {}, {"trace_id": "x"}, {"trace_id": 1, "span_id": 2}],
)
def test_malformed_wire_context_is_dropped_not_raised(bad):
    assert TraceContext.from_wire(bad) is None


def test_from_wire_defaults_sampled_true():
    ctx = TraceContext.from_wire({"trace_id": "t", "span_id": "s"})
    assert ctx.sampled is True


# -- collector basics ---------------------------------------------------------


def test_sampling_is_seeded_and_deterministic():
    picks = [TraceCollector(sample_rate=0.5, seed=7).should_sample() for _ in range(3)]
    assert picks[0] == picks[1] == picks[2]
    a = TraceCollector(sample_rate=0.5, seed=7)
    b = TraceCollector(sample_rate=0.5, seed=7)
    assert [a.should_sample() for _ in range(64)] == [b.should_sample() for _ in range(64)]


def test_zero_rate_never_samples_but_still_records():
    c = TraceCollector(sample_rate=0.0)
    assert not any(c.should_sample() for _ in range(64))
    root = c.start("propagated")  # a client-sampled trace still lands
    root.finish()
    assert len(c) == 1


def test_invalid_parameters_rejected():
    with pytest.raises(ValueError):
        TraceCollector(sample_rate=1.5)


def test_span_ring_is_bounded(monkeypatch):
    monkeypatch.setattr(TraceCollector, "MAX_SPANS", 4)
    c = TraceCollector()
    for i in range(10):
        c.start(f"s{i}").finish()
    assert len(c) == 4
    assert [s.name for s in c.spans] == ["s6", "s7", "s8", "s9"]


def test_parent_links_and_trace_grouping():
    c = TraceCollector()
    root = c.start("root")
    with c.span("child", parent=root) as child:
        with c.span("grandchild", parent=child) as g:
            pass
    root.finish()
    spans = c.trace(root.trace_id)
    assert {s.name for s in spans} == {"root", "child", "grandchild"}
    by_name = {s.name: s for s in spans}
    assert by_name["child"].parent_id == root.span_id
    assert by_name["grandchild"].parent_id == by_name["child"].span_id
    assert by_name["grandchild"].trace_id == root.trace_id
    # children finished inside the CMs, before the root
    assert [s.name for s in spans] == ["grandchild", "child", "root"]


def test_remote_parent_context_extends_the_trace():
    c = TraceCollector()
    ctx = TraceContext("remote-trace", "remote-span")
    with c.span("local", parent=ctx):
        pass
    (s,) = c.spans
    assert s.trace_id == "remote-trace"
    assert s.parent_id == "remote-span"


def test_span_records_error_status_and_reraises():
    c = TraceCollector()
    with pytest.raises(RuntimeError):
        with c.span("boom"):
            raise RuntimeError("x")
    assert c.spans[0].status == "error"


def test_finish_is_idempotent():
    c = TraceCollector()
    span = c.start("once")
    assert span.finish() is not None
    assert span.finish() is None
    assert len(c) == 1


def test_recent_traces_are_newest_first():
    c = TraceCollector()
    r1 = c.start("r1")
    with c.span("a", parent=r1) as a:
        with c.span("b", parent=a):
            pass
    r1.finish()
    r2 = c.start("r2")
    r2.finish()
    recent = c.recent_traces(2)
    assert [t[0].trace_id for t in recent] == [r2.trace_id, r1.trace_id]


# -- counter attribution ------------------------------------------------------


def test_counter_key_formatting():
    assert counter_key("reads", ()) == "reads"
    assert counter_key("reads", (("dev", "ssd"), ("rank", 3))) == "reads{dev=ssd,rank=3}"


def test_snapshot_counters_prefix_filter():
    m = MetricsRegistry()
    m.counter("serve.requests").inc(2)
    m.counter("other.thing").inc(5)
    m.histogram("serve.lat").observe(1.0)  # histograms are not counters
    snap = snapshot_counters(m, prefixes=("serve.",))
    assert snap == {"serve.requests": 2}


def test_exclusive_counter_deltas_sum_to_aggregate():
    m = MetricsRegistry()
    c = TraceCollector()
    with c.span("parent", counters=m) as p:
        m.counter("work").inc(1)  # parent's own work
        with c.span("child", parent=p, counters=m):
            m.counter("work").inc(3)
        m.counter("work").inc(2)  # more parent work after the child
    by_name = {s.name: s for s in c.spans}
    assert by_name["child"].counters == {"work": 3}
    assert by_name["parent"].counters == {"work": 3}  # 6 inclusive - 3 claimed
    total = sum(s.counters.get("work", 0) for s in c.spans)
    assert total == m.counter("work").value == 6


def test_zero_delta_series_omitted():
    m = MetricsRegistry()
    m.counter("quiet").inc(5)
    c = TraceCollector()
    with c.span("s", counters=m):
        pass
    assert c.spans[0].counters == {}


def test_explicit_charge_merges_with_snapshot_deltas():
    m = MetricsRegistry()
    c = TraceCollector()
    with c.span("s", counters=m) as s:
        m.counter("snap").inc(2)
        s.charge("manual", 1)
        s.charge("manual", 1)
    assert c.spans[0].counters == {"snap": 2, "manual": 2}


# -- contextvar propagation ---------------------------------------------------


def test_child_span_is_noop_without_active_trace():
    assert current_span() is None
    with child_span("sstable.get") as span:
        assert span is None  # shared null CM: nothing created


def test_child_span_nests_under_current():
    c = TraceCollector()
    with c.span("outer") as outer:
        assert current_span() is outer
        with child_span("inner", flag=True) as inner:
            assert inner is not None
            assert current_span() is inner
        assert current_span() is outer
    assert current_span() is None
    by_name = {s.name: s for s in c.spans}
    assert by_name["inner"].parent_id == outer.span_id
    assert by_name["inner"].attrs["flag"] is True


# -- trace IO -----------------------------------------------------------------


def _sample_spans():
    clock = FakeClock()
    c = TraceCollector(clock=clock)
    root = c.start("serve.get", key=9)
    clock.now = 0.001
    with c.span("engine.get_many", parent=root) as e:
        e.charge("reader.queries", 1)
        clock.now = 0.004
    clock.now = 0.005
    root.finish()
    return c.spans


def test_jsonl_round_trip():
    spans = _sample_spans()
    text = dump_trace_jsonl(spans)
    first = json.loads(text.splitlines()[0])
    assert first == {"schema": "repro.trace/v1"}
    back = [span_from_dict(json.loads(line)) for line in text.splitlines()[1:]]
    assert [span_to_dict(s) for s in back] == [span_to_dict(s) for s in spans]


def test_span_dict_round_trip_defaults():
    s = SpanRecord("t", "s", None, "n", 0.0, 1.0)
    assert span_from_dict(span_to_dict(s)) == s


def test_chrome_trace_document_shape():
    spans = _sample_spans()
    doc = chrome_trace(spans)
    assert doc["metadata"]["schema"] == "repro.trace/v1"
    events = doc["traceEvents"]
    assert len(events) == len(spans)
    assert all(e["ph"] == "X" for e in events)
    # all spans of one trace share a lane; timestamps are relative µs
    assert len({e["tid"] for e in events}) == 1
    engine = next(e for e in events if e["name"] == "engine.get_many")
    assert engine["ts"] == pytest.approx(1000.0)
    assert engine["dur"] == pytest.approx(3000.0)
    assert engine["args"]["counter.reader.queries"] == 1


def test_build_trees_nests_by_parent():
    spans = _sample_spans()
    (tree,) = build_trees(spans)
    assert tree["span"].name == "serve.get"
    assert [c["span"].name for c in tree["children"]] == ["engine.get_many"]


def test_render_tree_shows_durations_and_counters():
    out = render_tree(_sample_spans())
    assert "serve.get" in out
    assert "engine.get_many" in out
    assert "· reader.queries +1" in out
    assert render_tree([]) == "(no spans)"
