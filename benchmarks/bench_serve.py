"""Online serving throughput: `repro.serve` vs the naive query loop.

The paper's readers are one-shot: open the partition, probe, exit
(§III-C).  A serving tier in front of the same persisted data can do far
better on a skewed online workload, and this bench quantifies how much:

* **naive** — the baseline a script would write: one uncached
  `QueryEngine`, one query at a time, every query re-paying the
  footer/index open of each table it touches.
* **served** — `QueryService` with request batching/coalescing, the
  bounded result cache, the negative cache over FilterKV's false
  candidates, and the per-epoch warm reader cache.

Workload: Zipfian(θ=1.0) popularity over every stored key at 64 ranks —
the acceptance configuration.  The served arm is measured in *steady
state*: a warmup pass populates the caches first (a serving tier runs
warm by definition; the naive loop has no state to warm, so warmup
changes nothing for it).  The result cache is bounded well below the key
universe at full scale, so the steady state still mixes cache hits with
real probes.  The served arm must clear **3×** the naive QPS for every
format.  Two supporting gates ride along:

* under deliberate overload (open-loop arrivals into tight admission
  limits) the service sheds with explicit ``overloaded`` responses and
  every *answered* response is still byte-correct — zero incorrect;
* the negative cache measurably cuts FilterKV false-candidate probes: a
  dedicated cold-vs-warm run (result cache pinned to one entry so every
  query re-probes) over a store sealed with the paper's cuckoo tables
  (the default csf seal gives a present key no false candidate) shows
  warm probe amplification dropping to exactly 1.0 — every repeat
  false-candidate probe eliminated, asserted via the
  ``serve.negative_cache.*`` and ``reader.partitions_probed`` counters.

``REPRO_SERVE_SMOKE=1`` shrinks the dataset and request counts for CI.
"""

import asyncio
import gc
import os
import statistics
import time

import numpy as np

from repro.analysis.reporting import table_artifact
from repro.core.formats import FMT_BASE, FMT_DATAPTR, FMT_FILTERKV
from repro.core.kv import random_kv_batch
from repro.core.multiepoch import MultiEpochStore
from repro.serve import InprocClient, KeySampler, QueryService, run_load

SMOKE = os.environ.get("REPRO_SERVE_SMOKE", "0") == "1"

NRANKS = 64
VALUE_BYTES = 24
RECORDS_PER_RANK = 40 if SMOKE else 150
SERVED_REQUESTS = 2_000 if SMOKE else 8_000
NAIVE_REQUESTS = 200 if SMOKE else 600
OVERLOAD_REQUESTS = 400 if SMOKE else 1_500
# Gate on CPU throughput, not wall qps: wall-clock jitters ±10-20 % run
# to run under asyncio, but added tracer work shows up directly in CPU
# time.  CPU time itself still wobbles ±2-3 % (GC timing), so the gate
# sits where it cleanly separates noise from real unconditional tracing
# work on the hot path (the unguarded span plumbing this gate exists to
# keep out cost 7-15 %).
TRACE_OVERHEAD_GATE = 0.90 if SMOKE else 0.95
TRACE_REPEATS = 9  # odd: the gate reads the median pair
SEED = 17
THETA = 1.0


def _build(fmt, aux_backends=None):
    store = MultiEpochStore(
        nranks=NRANKS, fmt=fmt, value_bytes=VALUE_BYTES, seed=SEED, aux_backends=aux_backends
    )
    rng = np.random.default_rng(SEED)
    batches = [random_kv_batch(RECORDS_PER_RANK, VALUE_BYTES, rng) for _ in range(NRANKS)]
    store.write_epoch(batches)
    expected = {int(k): b.value_of(i) for b in batches for i, k in enumerate(b.keys)}
    return store, expected


def _naive_qps(store, expected, sample_keys):
    """One-query-at-a-time over a cold `QueryEngine` — the baseline loop."""
    engine = store.engine(store.epochs[-1])
    t0 = time.perf_counter()
    for key in sample_keys:
        value, _ = engine.get(int(key))
        assert value == expected[int(key)]
    return len(sample_keys) / (time.perf_counter() - t0)


def _served(store, expected, keys):
    """Steady-state closed-loop Zipfian load through the full serving stack.

    Warmup pass first: the measured numbers describe a *warm* serving tier,
    which is what a long-running service is.  The result cache is bounded
    to half the key universe (capped at 2048 entries), so steady state
    still mixes hot-key cache hits with real probes for the Zipfian tail,
    which keeps the batch path exercised.  The naive arm has no state to
    warm, so warmup changes nothing for it.
    """
    warm_sampler = KeySampler(keys, "zipfian", theta=THETA, seed=SEED)
    sampler = KeySampler(keys, "zipfian", theta=THETA, seed=SEED)  # same hot set

    async def main():
        svc = QueryService(
            store,
            max_inflight=4096,
            queue_high_watermark=4096,
            result_cache_entries=min(2048, len(keys) // 2),
        )
        async with svc:
            client = InprocClient(svc)
            await run_load(
                client, warm_sampler, SERVED_REQUESTS // 2, mode="closed", concurrency=64
            )
            load = await run_load(
                client,
                sampler,
                SERVED_REQUESTS,
                mode="closed",
                concurrency=64,
                expected=expected,
            )
            return load, svc.stats()

    return asyncio.run(main())


def _negcache_effect(store, keys):
    """Cold-vs-warm FilterKV probe amplification with the result cache
    pinned to one entry, so every query actually probes.  Cold pass
    discovers false candidates (aux-table collisions); warm pass must
    skip every one of them via the negative cache."""
    sample = [int(k) for k in keys[: min(400, len(keys))]]

    async def main():
        svc = QueryService(
            store, max_inflight=4096, queue_high_watermark=4096, result_cache_entries=1
        )
        async with svc:
            for k in sample:
                await svc.get(k)
            probed_cold = svc.metrics.total("reader.partitions_probed")
            for k in sample:
                await svc.get(k)
            probed_warm = svc.metrics.total("reader.partitions_probed") - probed_cold
            return probed_cold, probed_warm, len(sample), svc.stats()

    return asyncio.run(main())


def _traced(store, expected, keys, sample_rate):
    """The served arm with request tracing at ``sample_rate``.

    Same store, sampler seed, warmup, and cache sizing as `_served`, so
    the only variable is the tracer (``sample_rate=None`` means the
    service default, i.e. tracing fully off) — this is the overhead
    measurement behind the "tracing off is free" gate and the 1 %/100 %
    rows reported for EXPERIMENTS.md.  Returns ``(load, cpu_s)`` where
    ``cpu_s`` is process CPU time over the measured (post-warmup) run:
    the gate compares requests per CPU second, which isolates the
    tracer's added *work* from wall-clock scheduler noise.
    """
    from repro.obs import TraceCollector

    warm_sampler = KeySampler(keys, "zipfian", theta=THETA, seed=SEED)
    sampler = KeySampler(keys, "zipfian", theta=THETA, seed=SEED)
    tracer = (
        None if sample_rate is None else TraceCollector(sample_rate=sample_rate, seed=SEED)
    )

    async def main():
        svc = QueryService(
            store,
            max_inflight=4096,
            queue_high_watermark=4096,
            result_cache_entries=min(2048, len(keys) // 2),
            tracer=tracer,
        )
        async with svc:
            client = InprocClient(svc)
            await run_load(
                client, warm_sampler, SERVED_REQUESTS // 2, mode="closed", concurrency=64
            )
            # A gen-2 collection over the store's heap is ~20 % of this
            # short measured section; keep it out of both arms alike.
            gc.collect()
            gc.disable()
            try:
                cpu0 = time.process_time()
                load = await run_load(
                    client,
                    sampler,
                    SERVED_REQUESTS,
                    mode="closed",
                    concurrency=64,
                    expected=expected,
                )
                return load, time.process_time() - cpu0
            finally:
                gc.enable()

    return asyncio.run(main())


def _overloaded(store, expected, keys):
    """Open-loop arrivals into deliberately tight admission limits."""
    sampler = KeySampler(keys, "zipfian", theta=THETA, seed=SEED + 1)

    async def main():
        svc = QueryService(
            store,
            max_inflight=32,
            queue_high_watermark=16,
            queue_low_watermark=4,
            result_cache_entries=64,
        )
        async with svc:
            load = await run_load(
                InprocClient(svc),
                sampler,
                OVERLOAD_REQUESTS,
                mode="open",
                rate_qps=200_000.0,
                expected=expected,
            )
            return load, svc.stats()

    return asyncio.run(main())


def test_bench_serve(report, benchmark):
    rows, data_rows = [], []
    ratios = {}

    for fmt in (FMT_BASE, FMT_DATAPTR, FMT_FILTERKV):
        store, expected = _build(fmt)
        keys = np.fromiter(expected, dtype=np.int64)
        naive_sample = KeySampler(keys, "zipfian", theta=THETA, seed=SEED).sample(
            NAIVE_REQUESTS
        )
        naive = _naive_qps(store, expected, naive_sample)
        load, stats = _served(store, expected, keys)
        assert load.incorrect == 0 and load.checked == SERVED_REQUESTS
        ratios[fmt.name] = load.qps / naive
        for arm, qps, lat in (
            ("naive", naive, None),
            ("served", load.qps, load.latency_ms),
        ):
            p50, p95, p99 = (
                (lat["p50"], lat["p95"], lat["p99"]) if lat else ("-", "-", "-")
            )
            rows.append(
                [
                    fmt.name,
                    arm,
                    f"{qps:,.0f}",
                    p50,
                    p95,
                    p99,
                    round(ratios[fmt.name], 1) if arm == "served" else "",
                ]
            )
            data_rows.append(
                {
                    "format": fmt.name,
                    "arm": arm,
                    "qps": round(qps, 1),
                    "p50_ms": None if lat is None else p50,
                    "p95_ms": None if lat is None else p95,
                    "p99_ms": None if lat is None else p99,
                    "speedup": round(ratios[fmt.name], 2) if arm == "served" else None,
                    "result_cache_hits": stats["result_cache"]["hits"]
                    if arm == "served"
                    else None,
                }
            )

    # Gate 1: batched+cached serving clears 3x the naive loop's QPS.
    for name, ratio in ratios.items():
        assert ratio >= 3.0, f"served/{name} only {ratio:.1f}x naive (need 3x)"

    # Gate 2: the negative cache measurably cuts false-candidate probes.
    # A present key draws false candidates from the paper's cuckoo table,
    # never from the stores' default csf seal, so this arm seals cuckoo.
    store, expected = _build(FMT_FILTERKV, aux_backends=("cuckoo",))
    keys = np.fromiter(expected, dtype=np.int64)
    probed_cold, probed_warm, nkeys, neg_stats = _negcache_effect(store, keys)
    skipped = neg_stats["negative_cache"]["skipped_probes"]
    inserted = neg_stats["negative_cache"]["inserts"]
    assert inserted > 0, "no false candidates refuted — workload is degenerate"
    assert skipped == inserted, "warm pass must skip every refuted candidate"
    assert probed_cold > nkeys, "cold pass saw no false-candidate amplification"
    assert probed_warm == nkeys, (
        f"warm amplification {probed_warm / nkeys:.2f} != 1.0 — "
        "negative cache failed to cut repeat probes"
    )
    rows.append(
        [
            "filterkv",
            "negcache",
            "-",
            "-",
            "-",
            "-",
            f"amp {probed_cold / nkeys:.2f} -> {probed_warm / nkeys:.2f}",
        ]
    )

    # Gate 3: overload sheds explicitly and never corrupts an answer.
    store, expected = _build(FMT_FILTERKV)
    keys = np.fromiter(expected, dtype=np.int64)
    over, over_stats = _overloaded(store, expected, keys)
    assert over.shed > 0, "overload run never shed — admission limits not exercised"
    assert over.incorrect == 0, f"{over.incorrect} incorrect responses under shedding"
    assert over.answered + over.shed == OVERLOAD_REQUESTS
    data_rows.append(
        {
            "format": "filterkv",
            "arm": "overloaded",
            "qps": round(over.qps, 1),
            "p50_ms": over.latency_ms["p50"],
            "p95_ms": over.latency_ms["p95"],
            "p99_ms": over.latency_ms["p99"],
            "shed": over.shed,
            "answered": over.answered,
            "incorrect": over.incorrect,
        }
    )
    rows.append(
        [
            "filterkv",
            "overloaded",
            f"{over.qps:,.0f}",
            over.latency_ms["p50"],
            over.latency_ms["p95"],
            over.latency_ms["p99"],
            f"shed {over.shed}/{OVERLOAD_REQUESTS}",
        ]
    )

    # Gate 4: tracing disabled costs nothing measurable.  The gate
    # compares requests per *CPU second* — tracer overhead is added work,
    # and CPU throughput sees it without the ±20 % wall-clock scheduler
    # noise that makes a tight qps gate unenforceable.  The two arms are
    # the same code (an A/A comparison), yet a single pair of runs differs
    # by up to 10 % on a shared box whose load comes and goes in phases
    # longer than one run.  So the gate reads the median of TRACE_REPEATS
    # back-to-back untraced/traced@0 pair ratios: a phase moves both
    # halves of a pair together, the median drops the pairs it splits.
    # 1 %/100 % sampling are one run each against the median untraced
    # run; their wall qps and CPU ratio are reported for EXPERIMENTS.md.
    store, expected = _build(FMT_FILTERKV)
    keys = np.fromiter(expected, dtype=np.int64)
    ref_runs, pairs = [], []
    for _ in range(TRACE_REPEATS):
        rload, rcpu = _traced(store, expected, keys, None)
        ref_runs.append(rload.requests / rcpu)
        tload, tcpu = _traced(store, expected, keys, 0.0)
        pairs.append(((tload.requests / tcpu) / ref_runs[-1], tload))
    ref_cps = statistics.median(ref_runs)
    overhead_ok, traced0 = sorted(pairs, key=lambda p: p[0])[TRACE_REPEATS // 2]
    trace_arms = [(0.0, "traced@0%", traced0, overhead_ok)]
    for rate, label in ((0.01, "traced@1%"), (1.0, "traced@100%")):
        tload, tcpu = _traced(store, expected, keys, rate)
        trace_arms.append((rate, label, tload, tload.requests / tcpu / ref_cps))
    for rate, label, tload, rel in trace_arms:
        assert tload.incorrect == 0
        rows.append(
            [
                "filterkv",
                label,
                f"{tload.qps:,.0f}",
                tload.latency_ms["p50"],
                tload.latency_ms["p95"],
                tload.latency_ms["p99"],
                f"{rel:.2f}x cpu",
            ]
        )
        data_rows.append(
            {
                "format": "filterkv",
                "arm": label,
                "qps": round(tload.qps, 1),
                "p50_ms": tload.latency_ms["p50"],
                "p95_ms": tload.latency_ms["p95"],
                "p99_ms": tload.latency_ms["p99"],
                "cpu_throughput_vs_untraced": round(rel, 4),
                "sample_rate": rate,
            }
        )
    assert overhead_ok >= TRACE_OVERHEAD_GATE, (
        f"tracing-disabled serving at {overhead_ok:.3f}x the untraced arm's CPU "
        f"throughput (must be >= {TRACE_OVERHEAD_GATE} — the disabled path is "
        "supposed to be free)"
    )

    text, data = table_artifact(
        ["format", "arm", "qps", "p50 ms", "p95 ms", "p99 ms", "speedup"],
        rows,
        title=(
            f"Online serving — Zipfian({THETA}) over {NRANKS} ranks x "
            f"{RECORDS_PER_RANK} records{' [smoke]' if SMOKE else ''}"
        ),
    )
    data["rows_detailed"] = data_rows
    data["negative_cache"] = {
        **neg_stats["negative_cache"],
        "keys": nkeys,
        "amplification_cold": round(probed_cold / nkeys, 3),
        "amplification_warm": round(probed_warm / nkeys, 3),
    }
    data["overload"] = over.to_dict()
    report(text, name="serve", data=data)

    # Representative kernel: one served hot-key lookup (result-cache hit).
    store, expected = _build(FMT_BASE)
    hot = next(iter(expected))
    loop = asyncio.new_event_loop()
    try:
        svc = QueryService(store)
        loop.run_until_complete(svc.get(hot))  # warm the cache
        benchmark(lambda: loop.run_until_complete(svc.get(hot)))
        loop.run_until_complete(svc.close())
    finally:
        loop.close()
