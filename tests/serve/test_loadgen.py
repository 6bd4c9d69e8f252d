"""Load generator: sampling distributions, loop disciplines, reporting."""

import collections

import numpy as np
import pytest

from repro.core.formats import FMT_FILTERKV
from repro.serve import InprocClient, KeySampler, QueryService, run_load

from .conftest import run, shared_store


def test_sampler_is_deterministic_and_closed_over_universe():
    keys = np.arange(100, 200)
    a = KeySampler(keys, "zipfian", seed=5).sample(500)
    b = KeySampler(keys, "zipfian", seed=5).sample(500)
    assert np.array_equal(a, b)
    assert set(a) <= set(range(100, 200))


def test_zipfian_is_skewed_uniform_is_not():
    keys = np.arange(1000)
    zipf = collections.Counter(KeySampler(keys, "zipfian", theta=1.0, seed=1).sample(5000))
    unif = collections.Counter(KeySampler(keys, "uniform", seed=1).sample(5000))
    # Hot-key mass: the top key dominates under Zipf, not under uniform.
    assert zipf.most_common(1)[0][1] > 250
    assert unif.most_common(1)[0][1] < 50
    # Zipf at theta=1 still touches a long tail.
    assert len(zipf) > 100


def test_zipfian_hot_set_is_shuffled():
    # The hottest key must not systematically be the smallest key.
    tops = set()
    for seed in range(5):
        counts = collections.Counter(
            KeySampler(np.arange(1000), "zipfian", seed=seed).sample(2000)
        )
        tops.add(counts.most_common(1)[0][0])
    assert tops != {0}


def test_sampler_validation():
    with pytest.raises(ValueError):
        KeySampler(np.array([]), "zipfian")
    with pytest.raises(ValueError):
        KeySampler(np.arange(4), "pareto")
    with pytest.raises(ValueError):
        KeySampler(np.arange(4)).interarrival_s(10, 0)


def test_interarrival_matches_rate():
    gaps = KeySampler(np.arange(8), seed=2).interarrival_s(20_000, rate_qps=1000.0)
    assert gaps.shape == (20_000,)
    assert abs(gaps.mean() - 1e-3) < 1e-4  # Poisson at 1000 qps


def test_closed_loop_reports_correctness(fmt):
    store, truth = shared_store(fmt)
    expected = truth[0]
    sampler = KeySampler(np.fromiter(expected, dtype=np.int64), "zipfian", seed=4)

    async def main():
        async with QueryService(store) as svc:
            report = await run_load(
                InprocClient(svc),
                sampler,
                400,
                mode="closed",
                concurrency=8,
                expected=expected,
            )
            assert report.requests == 400
            assert report.checked == 400 and report.incorrect == 0
            assert report.statuses.get("ok", 0) + report.statuses.get("not_found", 0) == 400
            assert report.shed == 0
            assert report.qps > 0
            d = report.to_dict()
            assert d["latency_ms"]["p99"] >= d["latency_ms"]["p50"]
            assert "qps" in d and "statuses" in d
            assert (d["mode"], d["distribution"]) == ("closed", "zipfian")

    run(main())


def test_open_loop_poisson_arrivals():
    store, truth = shared_store(FMT_FILTERKV)
    expected = truth[0]
    sampler = KeySampler(np.fromiter(expected, dtype=np.int64), "uniform", seed=4)

    async def main():
        async with QueryService(store) as svc:
            report = await run_load(
                InprocClient(svc),
                sampler,
                200,
                mode="open",
                rate_qps=20_000.0,
                expected=expected,
            )
            assert report.requests == 200
            assert report.incorrect == 0
            assert report.mode == "open"

    run(main())


def test_correctness_checker_actually_checks():
    """Feed the checker a wrong ground truth: it must flag mismatches —
    otherwise 'zero incorrect' claims elsewhere are vacuous."""
    store, truth = shared_store(FMT_FILTERKV)
    wrong = {k: b"\x00" * 24 for k in truth[0]}
    sampler = KeySampler(np.fromiter(wrong, dtype=np.int64), "uniform", seed=4)

    async def main():
        async with QueryService(store) as svc:
            report = await run_load(
                InprocClient(svc), sampler, 100, concurrency=4, expected=wrong
            )
            assert report.incorrect == report.checked == 100

    run(main())


def test_run_load_validation():
    store, _ = shared_store(FMT_FILTERKV)
    sampler = KeySampler(np.arange(8), seed=0)

    async def main():
        async with QueryService(store) as svc:
            client = InprocClient(svc)
            with pytest.raises(ValueError):
                await run_load(client, sampler, 0)
            with pytest.raises(ValueError):
                await run_load(client, sampler, 10, mode="laps")
            with pytest.raises(ValueError):
                await run_load(client, sampler, 10, mode="open")  # no rate

    run(main())


def test_latency_excludes_client_queueing():
    """Latency is measured from send time; the arrival->send gap lands in
    queue_ms.  A client that stalls before sending must not inflate the
    latency quantiles."""

    class InstantClient:
        async def get(self, key, epoch=None, deadline_s=None):
            from repro.serve.service import ServeResponse

            return ServeResponse("ok", key, 0, value=b"x")

    async def main():
        sampler = KeySampler(np.arange(16), seed=0)
        return await run_load(InstantClient(), sampler, 50, concurrency=4)

    rep = run(main())
    assert rep.requests == 50
    # Instant service: send-time latency is tiny even though 4 workers
    # share one loop (arrival->send waits would be much larger).
    assert rep.latency_ms["p99"] < 5.0
    assert set(rep.queue_ms) == {"mean", "p50", "p90", "p95", "p99", "max"}
    assert rep.latency_ms["p95"] <= rep.latency_ms["p99"]


def test_open_loop_queue_wait_reflects_schedule_lag():
    """Generator drift must land in queue_ms, not vanish.  The enqueue
    stamp is anchored to the Poisson schedule: when the event loop stalls
    and the generator falls behind, later requests are stamped at their
    *scheduled* arrival, so the drift shows up as queue wait.  (Stamping
    "now" instead would silently report near-zero queue time here.)"""
    import time as _time

    from repro.serve.service import ServeResponse

    class StallOnceClient:
        def __init__(self):
            self.calls = 0

        async def get(self, key, epoch=None, deadline_s=None):
            self.calls += 1
            if self.calls == 1:
                _time.sleep(0.08)  # block the loop: schedule slips ~80ms
            return ServeResponse("ok", key, 0, value=b"x")

    async def main():
        sampler = KeySampler(np.arange(16), seed=0)
        return await run_load(
            StallOnceClient(), sampler, 20, mode="open", rate_qps=1000.0
        )

    rep = run(main())
    assert rep.requests == 20
    # All requests after the stall are >=30ms behind schedule.
    assert rep.queue_ms["p50"] > 30.0
    # The service itself is instant; the lag is queueing, not latency.
    assert rep.latency_ms["p95"] < 30.0


def test_report_carries_queue_and_p95_fields(fmt):
    store, truth = shared_store(fmt)
    keys = np.fromiter(truth[0], dtype=np.int64)

    async def main():
        async with QueryService(store) as svc:
            return await run_load(
                InprocClient(svc), KeySampler(keys, seed=2), 60, concurrency=8
            )

    rep = run(main())
    d = rep.to_dict()
    assert "p95" in d["latency_ms"] and "queue_ms" in d
    assert "p95" in d["queue_ms"]
    assert d["traced"] == 0 and d["slow_traces"] == []


def test_trace_sampling_stitches_server_tree(fmt):
    store, truth = shared_store(fmt)
    keys = np.fromiter(truth[0], dtype=np.int64)

    async def main():
        async with QueryService(store) as svc:
            return await run_load(
                InprocClient(svc),
                KeySampler(keys, seed=2),
                120,
                concurrency=8,
                expected=truth[0],
                trace_rate=1.0,
                keep_traces=3,
            )

    rep = run(main())
    assert rep.incorrect == 0
    assert rep.traced == 120
    assert len(rep.slow_traces) == 3
    lats = [lat for lat, _ in rep.slow_traces]
    assert lats == sorted(lats, reverse=True)  # slowest first
    for _lat, tree in rep.slow_traces:
        names = {s["name"] for s in tree}
        assert "client.get" in names  # the client root...
        assert "serve.get" in names  # ...with the server tree stitched under it
        client_root = next(s for s in tree if s["name"] == "client.get")
        serve_root = next(s for s in tree if s["name"] == "serve.get")
        assert serve_root["parent_id"] == client_root["span_id"]
        assert serve_root["trace_id"] == client_root["trace_id"]


def test_trace_rate_zero_works_with_clients_lacking_trace_support():
    """trace_rate=0 must never pass a trace kwarg, so pre-tracing clients
    (or stubs) keep working unchanged."""

    class LegacyClient:
        async def get(self, key, epoch=None, deadline_s=None):  # no trace kwarg
            from repro.serve.service import ServeResponse

            return ServeResponse("not_found", key, 0)

    async def main():
        return await run_load(LegacyClient(), KeySampler(np.arange(8), seed=0), 20)

    rep = run(main())
    assert rep.requests == 20 and rep.traced == 0


def test_trace_sampling_is_seeded(fmt):
    store, truth = shared_store(fmt)
    keys = np.fromiter(truth[0], dtype=np.int64)

    async def one():
        async with QueryService(store) as svc:
            rep = await run_load(
                InprocClient(svc),
                KeySampler(keys, seed=2),
                80,
                trace_rate=0.25,
                trace_seed=9,
            )
            return rep.traced

    assert run(one()) == run(one())
