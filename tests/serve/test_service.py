"""`QueryService` behavior: correctness, batching, caching, admission."""

import asyncio

import numpy as np
import pytest

from repro.core.formats import FMT_FILTERKV
from repro.serve import (
    DEADLINE_EXCEEDED,
    ERROR,
    NOT_FOUND,
    OK,
    OVERLOADED,
    QueryService,
)

from .conftest import GatedService, build_store, run, shared_store, until


def test_serves_every_key_byte_correct(fmt):
    store, truth = shared_store(fmt)
    expected = truth[0]

    async def main():
        # Limits sized above the key count: this test is about correctness,
        # not admission control (which has its own tests below).
        svc = QueryService(store, max_inflight=4096, queue_high_watermark=4096)
        async with svc:
            keys = list(expected)
            responses = await asyncio.gather(*(svc.get(k) for k in keys))
            for key, r in zip(keys, responses):
                assert r.status == OK
                assert r.value == expected[key]
                assert r.epoch == 0
            miss = await svc.get(1)  # random 63-bit keys: 1 is absent
            assert miss.status == NOT_FOUND and miss.value is None

    run(main())


def test_result_cache_serves_repeats(fmt):
    store, truth = shared_store(fmt)
    key = next(iter(truth[0]))

    async def main():
        async with QueryService(store) as svc:
            first = await svc.get(key)
            second = await svc.get(key)
            assert not first.cached and second.cached
            assert first.value == second.value == truth[0][key]
            # The repeat never reached the engine.
            assert svc.metrics.total("reader.queries") == 1
            assert svc.metrics.total("serve.result_cache.hits") == 1
            # Negative outcomes are cached too.
            await svc.get(1)
            miss = await svc.get(1)
            assert miss.status == NOT_FOUND and miss.cached

    run(main())


def test_concurrent_same_key_lookups_coalesce(fmt):
    store, truth = shared_store(fmt)
    key = next(iter(truth[0]))

    async def main():
        async with QueryService(store) as svc:
            responses = await asyncio.gather(*(svc.get(key) for _ in range(10)))
            assert all(r.status == OK and r.value == truth[0][key] for r in responses)
            # Ten waiters, one probe.
            assert svc.metrics.total("serve.coalesced") == 9
            assert svc.metrics.total("reader.queries") == 1

    run(main())


def test_concurrent_distinct_keys_share_one_batch(fmt):
    store, truth = shared_store(fmt)
    keys = list(truth[0])[:32]

    async def main():
        async with QueryService(store, max_batch=64) as svc:
            responses = await asyncio.gather(*(svc.get(k) for k in keys))
            assert all(r.status == OK for r in responses)
            assert svc.metrics.total("serve.batches") == 1
            assert svc.metrics.histogram("serve.batch_occupancy").mean == len(keys)

    run(main())


def test_queue_watermark_sheds_with_explicit_status():
    store, truth = shared_store(FMT_FILTERKV)
    expected = truth[0]
    keys = list(expected)[:100]

    async def main():
        svc = QueryService(store, queue_high_watermark=8)
        async with svc:
            responses = await asyncio.gather(*(svc.get(k) for k in keys))
            statuses = {r.status for r in responses}
            shed = [r for r in responses if r.status == OVERLOADED]
            answered = [r for r in responses if r.status == OK]
            assert shed, "watermark at 8 must shed some of 100 concurrent arrivals"
            assert statuses <= {OK, OVERLOADED}
            # Every non-shed answer is byte-correct: overload never corrupts.
            for r in answered:
                assert r.value == expected[r.key]
            assert len(shed) + len(answered) == len(keys)
            assert svc.metrics.total("serve.sheds") == len(shed)
            # Hysteresis: once drained, service admits again.
            again = await svc.get(keys[0])
            assert again.status == OK

    run(main())


def test_inflight_budget_sheds():
    store, truth = shared_store(FMT_FILTERKV)
    keys = list(truth[0])[:20]

    async def main():
        async with QueryService(store, max_inflight=5, queue_high_watermark=512) as svc:
            responses = await asyncio.gather(*(svc.get(k) for k in keys))
            shed = sum(r.status == OVERLOADED for r in responses)
            assert shed == len(keys) - 5

    run(main())


def test_deadline_expires_waiter_and_drops_dead_probe(fmt):
    store, truth = shared_store(fmt)
    key = next(iter(truth[0]))

    async def main():
        # A shut gate holds dispatch until the zero deadline has expired —
        # the straggler-drop path, made deterministic.
        async with GatedService(store) as svc:
            r = await svc.get(key, deadline_s=0)
            assert r.status == DEADLINE_EXCEEDED
            # Sole waiter expired before dispatch: the probe never ran.
            svc.gate.set()
            await until(lambda: svc.metrics.total("serve.batches") == 1)
            assert svc.metrics.total("serve.deadline_dropped") == 1
            assert svc.metrics.total("reader.queries") == 0

    run(main())


def test_deadline_on_one_waiter_leaves_coalesced_peer_live(fmt):
    store, truth = shared_store(fmt)
    key = next(iter(truth[0]))

    async def main():
        async with QueryService(store) as svc:
            impatient, patient = await asyncio.gather(
                svc.get(key, deadline_s=0), svc.get(key)
            )
            assert impatient.status == DEADLINE_EXCEEDED
            assert patient.status == OK and patient.value == truth[0][key]

    run(main())


def test_burst_members_expire_on_their_own_deadlines():
    store, truth = shared_store(FMT_FILTERKV)
    a, b, c = list(truth[0])[:3]

    async def main():
        async with GatedService(store) as svc:
            burst = asyncio.ensure_future(
                svc.get_burst([(a, None, 0.02, None), (b, None, 5.0, None), (c, None, 0, None),
                               (a, None, None, None)])
            )
            # c expires on arrival, a at its own deadline, both while the
            # window that answers their burst-mates is held.
            expired = svc.metrics.histogram("serve.latency_seconds", status=DEADLINE_EXCEEDED)
            await until(lambda: expired.count == 2)
            assert not burst.done()
            svc.gate.set()
            responses = await asyncio.wait_for(burst, 5)
            assert [r.status for r in responses] == [DEADLINE_EXCEEDED, OK, DEADLINE_EXCEEDED, OK]
            assert responses[1].value == truth[0][b] and responses[3].value == truth[0][a]
            assert expired.quantile(0.0) < 0.02 <= expired.quantile(1.0)
            # Its coalesced burst-mate kept a's probe alive; c had nobody.
            assert svc.metrics.total("serve.deadline_dropped") == 1
            assert svc.metrics.total("serve.coalesced") == 1
            assert svc._index == {} and svc.stats()["inflight"] == 0

    run(main())


def test_cancelled_burst_leaves_no_waiter_behind():
    store, truth = shared_store(FMT_FILTERKV)
    a, b = list(truth[0])[:2]

    async def main():
        async with GatedService(store) as svc:
            burst = asyncio.ensure_future(svc.get_burst([(a, None, None, None), (b, None, 1.0, None)]))
            await until(lambda: svc._inflight == 2)
            burst.cancel()
            await asyncio.gather(burst, return_exceptions=True)
            assert svc._inflight == 0
            # The window still runs: nobody waits, so both probes are dropped.
            svc.gate.set()
            await until(lambda: svc.metrics.total("serve.batches") == 1)
            assert svc.metrics.total("serve.deadline_dropped") == 2
            r = await svc.get(a)
            assert r.status == OK and r.value == truth[0][a]
            assert svc.metrics.total("serve.requests", status=OK) == 1

    run(main())


def test_unknown_epoch_and_empty_store():
    store, truth = shared_store(FMT_FILTERKV)
    key = next(iter(truth[0]))

    async def main():
        async with QueryService(store) as svc:
            r = await svc.get(key, epoch=99)
            assert r.status == ERROR and "99" in r.detail
        from repro.core.multiepoch import MultiEpochStore

        empty = MultiEpochStore(nranks=2, fmt=FMT_FILTERKV, value_bytes=8)
        async with QueryService(empty) as svc:
            r = await svc.get(123)
            assert r.status == NOT_FOUND

    run(main())


@pytest.mark.parametrize(
    "key, epoch",
    [(-1, None), (1 << 64, None), ("7", None), (7.0, None), (7, 0.5), (7, "0")],
    ids=["negative", "past-u64", "str-key", "float-key", "float-epoch", "str-epoch"],
)
def test_malformed_request_is_refused_alone(key, epoch):
    """One key that is not an int in [0, 2^64), or an epoch that is not an
    int, is answered ``bad_request`` inline; the good keys of its burst
    share a dispatch window and are answered as if it were not there."""
    store, truth = shared_store(FMT_FILTERKV)
    good = sorted(truth[0])[:5]

    async def main():
        async with QueryService(store) as svc:
            requests = [(k, None, None, None) for k in good]
            requests.insert(2, (key, epoch, None, None))
            responses = await svc.get_burst(requests)
            bad = responses.pop(2)
            assert (bad.status, bad.code) == (ERROR, "bad_request"), bad
            assert [(r.status, r.value) for r in responses] == [(OK, truth[0][k]) for k in good]
            assert svc.metrics.total("serve.batches") == 1

    run(main())


@pytest.mark.parametrize("deadline", ["x", float("nan"), True], ids=["str", "nan", "bool"])
def test_malformed_deadline_is_refused_and_leaks_no_budget(deadline):
    """A deadline that is no number of seconds is answered ``bad_request``
    inline and counts nothing.  A str once raised TypeError after the
    burst's earlier member was queued, leaking its inflight slot for good,
    and a NaN armed a timer at NaN."""
    store, truth = shared_store(FMT_FILTERKV)
    keys = sorted(truth[0])

    async def main():
        async with QueryService(store, max_inflight=8) as svc:
            for k in keys[:7]:
                responses = await svc.get_burst([(k, None, None, None), (k + 1, None, deadline, None)])
                assert (responses[0].status, responses[0].value) == (OK, truth[0][k])
                assert (responses[1].status, responses[1].code) == (ERROR, "bad_request")
            assert svc.stats()["inflight"] == 0
            fresh = keys[7:15]
            responses = await svc.get_burst([(k, None, None, None) for k in fresh])
            assert [(r.status, r.value) for r in responses] == [(OK, truth[0][k]) for k in fresh]

    run(main())


def test_closed_service_refuses():
    store, truth = shared_store(FMT_FILTERKV)
    key = next(iter(truth[0]))

    async def main():
        svc = QueryService(store)
        ok = await svc.get(key)
        assert ok.status == OK
        await svc.close()
        r = await svc.get(key)
        assert r.status == ERROR and "closed" in r.detail

    run(main())


def test_close_answers_every_admitted_request_window_by_window():
    """Ten misses admitted behind a shut gate, four to a window: `close`
    answers all ten byte-correct in three windows, none ``closed``."""
    store, truth = shared_store(FMT_FILTERKV)
    keys = list(truth[0])[:10]

    async def main():
        svc = GatedService(store, max_batch=4)
        calls = asyncio.gather(*(svc.get(k) for k in keys))
        await until(lambda: len(svc._queue) == 10)
        await svc.close()
        responses = await asyncio.wait_for(calls, 5)
        assert [(r.status, r.value) for r in responses] == [(OK, truth[0][k]) for k in keys]
        assert not any(r.code == "closed" for r in responses)
        assert svc.metrics.total("serve.batches") == 3

    run(main())


def test_stats_snapshot_is_consistent(fmt):
    store, truth = shared_store(fmt)
    keys = list(truth[0])[:40]

    async def main():
        async with QueryService(store) as svc:
            await asyncio.gather(*(svc.get(k) for k in keys))
            await svc.get(keys[0])  # one cache hit
            s = svc.stats()
            assert s["format"] == fmt.name
            assert s["requests"][OK] == len(keys) + 1
            assert s["result_cache"]["hits"] == 1
            assert s["result_cache"]["misses"] == len(keys)
            assert s["latency_ms"]["count"] == len(keys) + 1
            assert s["latency_ms"]["p99"] >= s["latency_ms"]["p50"] >= 0
            assert sum(s["requests"].values()) == len(keys) + 1

    run(main())


def test_constructor_validation():
    store, _ = shared_store(FMT_FILTERKV)
    with pytest.raises(ValueError):
        QueryService(store, max_batch=0)
    with pytest.raises(ValueError):
        QueryService(store, max_inflight=0)
    # Used to construct, then fail every request with an empty error code,
    # which a fleet router counts as a shard fault.
    with pytest.raises(ValueError, match="table_cache_entries"):
        QueryService(store, table_cache_entries=0)
    with pytest.raises(ValueError, match="queue_high_watermark"):
        QueryService(store, queue_high_watermark=0)
    # The window rule of the wire's ``stats_live`` verb.
    for window in (0, -1.0, float("inf"), float("nan"), True, "10"):
        with pytest.raises(ValueError, match="window_s"):
            QueryService(store, stats_window_s=window)
