"""End-to-end request tracing through the serving stack.

The contracts under test:

* a sampled `TraceContext` rides the wire and comes back with the full
  server-side span tree (service → engine → storage) stitched under it;
* a dispatch window's work is recorded once: one ``serve.batch`` subtree
  under the window's first sampled request, and every other sampled
  request's root links to it (``batch`` / ``batch_trace``) instead of
  copying it, so summing counters across *all* traces still matches the
  registry aggregates exactly;
* a shed request's root span ends with the refusal as its status;
* untraced requests pay nothing and return no trace.
"""

import asyncio

from repro.core.formats import FMT_FILTERKV
from repro.obs import TraceCollector, TraceContext, counter_key, snapshot_counters
from repro.serve import (
    DEADLINE_EXCEEDED,
    NOT_FOUND,
    OK,
    QueryService,
    ServeServer,
    TCPClient,
)

from .conftest import GatedService, run, shared_store, until

# The batch counter ticks once per dispatch *window*, not per request:
# windows exist independently of any single trace, so it is the one
# serve.* counter deliberately left out of span attribution.
UNATTRIBUTED = ("serve.batches",)


def _ctx(tracer: TraceCollector) -> TraceContext:
    return TraceContext(tracer.new_id(), tracer.new_id(), sampled=True)


def _names(tree: list[dict]) -> set[str]:
    return {s["name"] for s in tree}


def test_trace_round_trip_over_tcp(fmt):
    store, truth = shared_store(fmt)
    key = next(iter(truth[0]))
    client_tracer = TraceCollector(seed=3)

    async def main():
        service = QueryService(store)
        async with ServeServer(service) as server:
            async with TCPClient(server.host, server.port) as client:
                ctx = _ctx(client_tracer)
                r = await client.get(key, trace=ctx)
                assert r.status == OK and r.value == truth[0][key]
                assert r.trace, "sampled request returned no span tree"
                # Every span extends the client's trace.
                assert {s["trace_id"] for s in r.trace} == {ctx.trace_id}
                names = _names(r.trace)
                # The tree crosses service -> engine/aux -> storage (the
                # filterkv probe path routes through the aux table rather
                # than a full engine batch).
                assert {"serve.get", "serve.queue", "serve.batch"} <= names
                assert names & {"engine.get_many", "engine.get", "aux.fetch"}
                assert any(n.startswith(("sstable.", "vlog.")) for n in names)
                root = next(s for s in r.trace if s["name"] == "serve.get")
                assert root["parent_id"] == ctx.span_id
                assert root["attrs"]["status"] == OK
                # An untraced request carries no tree and records nothing new.
                before = len(service.tracer)
                r2 = await client.get(key)
                assert r2.trace is None
                assert len(service.tracer) == before

    run(main())


def test_unsampled_context_is_ignored(fmt):
    store, truth = shared_store(fmt)
    key = next(iter(truth[0]))

    async def main():
        async with QueryService(store) as svc:
            r = await svc.get(key, trace={"trace_id": "t", "span_id": "s", "sampled": False})
            assert r.trace is None
            assert len(svc.tracer) == 0

    run(main())


def test_malformed_wire_context_never_fails_the_request(fmt):
    store, truth = shared_store(fmt)
    key = next(iter(truth[0]))

    async def main():
        async with QueryService(store) as svc:
            r = await svc.get(key, trace={"trace_id": 7})
            assert r.status == OK and r.trace is None

    run(main())


def test_server_side_sampling_originates_traces(fmt):
    store, truth = shared_store(fmt)
    key = next(iter(truth[0]))

    async def main():
        async with QueryService(store, tracer=TraceCollector(sample_rate=1.0)) as svc:
            r = await svc.get(key)
            assert r.trace and "serve.get" in _names(r.trace)
            root = next(s for s in r.trace if s["name"] == "serve.get")
            assert root["parent_id"] is None  # a locally originated root

    run(main())


def test_cache_hit_trace_is_terminal(fmt):
    store, truth = shared_store(fmt)
    key = next(iter(truth[0]))

    async def main():
        async with QueryService(store, tracer=TraceCollector(sample_rate=1.0)) as svc:
            await svc.get(key)
            r = await svc.get(key)
            assert r.cached
            tree = r.trace
            (root,) = [s for s in tree if s["name"] == "serve.get"]
            assert root["counters"].get("serve.result_cache.hits") == 1
            assert "serve.batch" not in _names(tree)  # never reached the engine

    run(main())


def test_coalesced_members_link_to_the_one_batch_span(fmt):
    store, truth = shared_store(fmt)
    key = next(iter(truth[0]))

    async def main():
        svc = QueryService(store, tracer=TraceCollector(sample_rate=1.0))
        async with svc:
            # Same key, issued together: admitted before the dispatcher
            # runs, so all three coalesce onto one probe.
            rs = await asyncio.gather(svc.get(key), svc.get(key), svc.get(key))
            assert all(r.status == OK for r in rs)
            assert svc.metrics.total("serve.coalesced") == 2
            lead, *others = [r.trace for r in rs]
            # The lead's tree holds the one batch subtree; the others hold
            # their own wait and a link to it, never a copy.
            (batch,) = [s for s in lead if s["name"] == "serve.batch"]
            assert _names(lead) & {"engine.get_many", "engine.get", "aux.fetch"}
            for tree in others:
                assert _names(tree) == {"serve.get", "serve.queue"}
                (root,) = [s for s in tree if s["name"] == "serve.get"]
                assert root["attrs"]["batch"] == batch["span_id"]
                assert root["attrs"]["batch_trace"] == batch["trace_id"]
            flat = [s for tree in (lead, *others) for s in tree]
            assert not any("shared" in s.get("attrs", {}) for s in flat)
            # The engine ran once in total, and the traces agree.
            assert svc.metrics.total("reader.queries") == 1
            claimed = sum(
                v
                for s in flat
                for k, v in s.get("counters", {}).items()
                if k.startswith("reader.queries")
            )
            assert claimed == 1

    run(main())


def test_a_window_of_sampled_requests_records_one_batch_subtree(fmt):
    """k sampled requests dispatched in one window add one ``serve.batch``
    subtree to the collector, not k: the window's work ran once."""
    store, truth = shared_store(fmt)
    keys = list(truth[0])[:4]

    async def main():
        async with GatedService(store, tracer=TraceCollector(sample_rate=1.0)) as svc:
            window = asyncio.gather(*(svc.get(k) for k in keys))
            await until(lambda: svc._inflight == len(keys))
            svc.gate.set()
            rs = await window
            assert all(r.status == OK for r in rs)
            assert svc.metrics.total("serve.batches") == 1
            spans = svc.tracer.spans
            (batch,) = [s for s in spans if s.name == "serve.batch"]
            assert batch.attrs["traced"] == len(keys)
            # Every span below the requests' own belongs to the lead's trace.
            work = [s for s in spans if s.name not in ("serve.get", "serve.queue")]
            assert {s.trace_id for s in work} == {batch.trace_id}
            roots = [s for s in spans if s.name == "serve.get"]
            assert len(roots) == len(keys)
            (lead,) = [r for r in roots if r.span_id == batch.parent_id]
            assert "batch" not in lead.attrs
            for root in roots:
                if root is not lead:
                    assert root.attrs["batch"] == batch.span_id
                    assert root.attrs["batch_trace"] == batch.trace_id

    run(main())


def test_deadline_shed_trace_has_terminal_shed_span(fmt):
    store, truth = shared_store(fmt)
    key = next(iter(truth[0]))

    async def main():
        async with QueryService(store, tracer=TraceCollector(sample_rate=1.0)) as svc:
            r = await svc.get(key, deadline_s=0.0)
            assert r.status == DEADLINE_EXCEEDED
            tree = r.trace
            # The root is the whole trace, and its status says why.
            (root,) = tree
            assert root["name"] == "serve.get"
            assert root["status"] == DEADLINE_EXCEEDED
            assert root["attrs"]["status"] == DEADLINE_EXCEEDED

    run(main())


def test_overload_shed_trace(fmt):
    store, truth = shared_store(fmt)
    keys = list(truth[0])

    async def main():
        svc = QueryService(
            store,
            tracer=TraceCollector(sample_rate=1.0),
            max_inflight=2,
            queue_high_watermark=1,
        )
        async with svc:
            rs = await asyncio.gather(*(svc.get(k) for k in keys[:30]))
            shed = [r for r in rs if r.status == "overloaded"]
            assert shed, "overload never triggered"
            (root,) = shed[0].trace
            assert root["name"] == "serve.get"
            assert root["status"] == "overloaded"
            assert root["attrs"]["status"] == "overloaded"
            assert root["counters"].get("serve.sheds") == 1

    run(main())


def test_span_counter_deltas_sum_exactly_to_aggregates(fmt):
    """The charge-once discipline, end to end: summing any counter over
    every retained span reproduces the registry aggregate exactly —
    across cache hits, misses, absent keys, and coalesced duplicates."""
    store, truth = shared_store(fmt)
    keys = list(truth[0])[:12]

    async def main():
        svc = QueryService(store, tracer=TraceCollector(sample_rate=1.0))
        async with svc:
            # misses, repeats (cache hits), coalesced duplicates, absent keys
            await asyncio.gather(*(svc.get(k) for k in keys))
            await asyncio.gather(*(svc.get(k) for k in keys[:4]))
            await asyncio.gather(svc.get(keys[0], epoch=0), svc.get(keys[0], epoch=0))
            await svc.get(1)  # absent
        return svc

    svc = run(main())
    claimed: dict[str, float] = {}
    for s in svc.tracer.spans:
        for k, v in s.counters.items():
            claimed[k] = claimed.get(k, 0) + v
    service_agg = snapshot_counters(svc.metrics, prefixes=("serve.", "reader.", "aux."))
    device_agg = snapshot_counters(store.device.metrics, prefixes=("sstable.",))
    for key, total in {**service_agg, **device_agg}.items():
        if key.startswith(UNATTRIBUTED):
            continue
        assert claimed.get(key, 0) == total, (
            f"{key}: spans claim {claimed.get(key, 0)}, registry has {total}"
        )
    # And nothing was invented: every claimed series exists in a registry.
    for key in claimed:
        assert key in service_agg or key in device_agg, f"unknown series {key}"


def test_stats_live_and_trace_verbs_over_tcp(fmt):
    store, truth = shared_store(fmt)
    keys = list(truth[0])[:8]
    client_tracer = TraceCollector(seed=5)

    async def main():
        service = QueryService(store)
        async with ServeServer(service) as server:
            async with TCPClient(server.host, server.port) as client:
                for k in keys:
                    await client.get(k, trace=_ctx(client_tracer))
                await client.get(1)
                live = await client.stats_live()
                assert live["requests"] == len(keys) + 1
                assert live["counts"][OK] + live["counts"][NOT_FOUND] == len(keys) + 1
                assert live["qps"] > 0
                assert live["latency_ms"]["count"] == len(keys) + 1
                assert live["format"] == store.fmt.name
                assert live["traces_retained"] > 0
                narrow = await client.stats_live(window_s=1e-9)
                assert narrow["requests"] == 0
                traces = await client.traces(3)
                assert 1 <= len(traces) <= 3
                assert all(
                    any(s["name"] == "serve.get" for s in tree) for tree in traces
                )

    run(main())


def test_tracing_disabled_by_default_retains_nothing(fmt):
    store, truth = shared_store(fmt)
    keys = list(truth[0])[:8]

    async def main():
        async with QueryService(store) as svc:
            await asyncio.gather(*(svc.get(k) for k in keys))
            assert len(svc.tracer) == 0
            for k in keys[:2]:
                assert (await svc.get(k)).trace is None

    run(main())
