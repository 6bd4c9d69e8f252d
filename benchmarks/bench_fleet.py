"""Fleet serving: shard scaling, router memory, and crash correctness.

Three gates over `repro.fleet` — the sharded serving tier that holds the
paper's aux tables one tier up (the router routes on rebuilt sealed aux
blobs; shards hold the data):

* **Shard scaling** — fleet QPS must scale **>= 2.5x** from 1 to 4
  shards on identical data.  Every shard runs on the one event-loop
  thread, so the scaling mechanism is *aggregate cache capacity*.
  Every node runs the same bounded per-node caches (a result cache sized
  to ~30 % of the key universe, a one-entry reader cache), so a single
  node thrashes on a uniform workload while each of four shards serves a
  keyspace slice that fits its cache — the classic reason caching tiers
  shard at all.  A miss pays the real multi-epoch read amplification
  (cross-epoch probes newest-first over six epochs, reader reopens,
  aux-table candidates, value-log reads); a hit comes from the result
  cache.  Both arms get a deterministic full-coverage warmup (every key
  touched once) so the measured phase is steady state, byte-checked
  against ground truth, best-of-two runs per arm to damp scheduler
  noise.
* **Router memory** — the router's data-plane footprint is the rebuilt
  aux tables, nowhere near the data: resident aux bytes must stay within
  **2x** the summed sealed-blob bytes it pulled from the shards.
* **Failover correctness** — a seeded crash of one shard under live
  load, replica promotion, recovery, more live load: **zero wrong
  bytes** end to end, with failovers actually observed (shard caches are
  pinned tiny so cold reads must touch the downed device — epochs are
  immutable, so generous caches would hide the crash entirely).

``REPRO_FLEET_SMOKE=1`` shrinks the dataset and request counts for CI.
"""

import asyncio
import os

import numpy as np

from repro.analysis.reporting import table_artifact
from repro.core.kv import random_kv_batch
from repro.fleet import Fleet, FleetSpec
from repro.serve import ANY_EPOCH, KeySampler, run_load

SMOKE = os.environ.get("REPRO_FLEET_SMOKE", "0") == "1"

EPOCHS = 6
RECORDS = 1_000 if SMOKE else 2_500  # per epoch, fleet-wide
VALUE_BYTES = 64
NRANKS = 2
SEED = 3
# Per-node result cache as a fraction of the key universe: small enough
# that one node thrashes, large enough that a 1/4 keyspace slice fits.
CACHE_FRAC = 0.45
SCALE_REQUESTS = 2_000 if SMOKE else 4_000
FAILOVER_REQUESTS = 600 if SMOKE else 1_500
CONCURRENCY = 8

SCALING_GATE = 2.5
MEMORY_GATE = 2.0


def _build(nshards, rf, service_kwargs, router_kwargs=None, seed=SEED):
    spec = FleetSpec(
        nshards=nshards,
        rf=rf,
        nranks=NRANKS,
        value_bytes=VALUE_BYTES,
        seed=seed,
        service_kwargs=dict(service_kwargs),
        router_kwargs=dict(router_kwargs or {}),
    )
    fleet = Fleet(spec)
    rng = np.random.default_rng(seed)
    truth = {}
    for _ in range(EPOCHS):
        batch = random_kv_batch(RECORDS, VALUE_BYTES, rng)
        fleet.ingest(batch)
        truth.update((int(k), batch.value_of(i)) for i, k in enumerate(batch.keys))
    return fleet, truth


async def _warm_all(router, keys, concurrency=16):
    """Touch every key exactly once — deterministic full cache coverage,
    so a shard whose slice fits its cache is *fully* warm and a node
    whose universe doesn't fit reaches its honest LRU steady state."""
    cursor = iter(keys)

    async def worker():
        for k in cursor:
            await router.get(int(k), epoch=ANY_EPOCH)

    await asyncio.gather(*(worker() for _ in range(concurrency)))


def _scaling_arm(nshards):
    """Steady-state uniform closed-loop QPS through the router.

    rf=1 so per-shard data is exactly 1/N of the fleet's; every node gets
    the identical bounded caches, so what scales from 1 to 4 shards is
    aggregate cache capacity — per-node resources are held fixed.
    """
    nkeys = EPOCHS * RECORDS
    fleet, truth = _build(
        nshards,
        rf=1,
        service_kwargs=dict(
            result_cache_entries=max(1, int(CACHE_FRAC * nkeys)),
            table_cache_entries=1,
        ),
    )
    keys = np.fromiter(truth, dtype=np.int64)

    async def main():
        async with fleet:
            router = fleet.router
            await _warm_all(router, keys)
            best = None
            for rep in range(2):  # best-of-two: damp scheduler noise
                load = await run_load(
                    router,
                    KeySampler(keys, "uniform", seed=SEED + 2 + rep),
                    SCALE_REQUESTS,
                    mode="closed",
                    concurrency=CONCURRENCY,
                    epoch=ANY_EPOCH,
                    expected=truth,
                )
                assert load.incorrect == 0 and load.checked == SCALE_REQUESTS
                if best is None or load.qps > best.qps:
                    best = load
            stats = router.stats()
            mem = dict(
                blob_bytes=router.aux_blob_bytes,
                resident_bytes=router.aux_resident_bytes,
            )
            return best, stats, mem

    load, stats, mem = asyncio.run(main())
    data_bytes = nkeys * (8 + VALUE_BYTES)
    return load, stats, mem, data_bytes


def _failover_trial():
    """Crash -> promote -> recover under live load, byte-checked throughout.

    Per-phase sampler seeds: replaying one phase's hot keys into the next
    would let result caches absorb the crash.  Caches are pinned tiny for
    the same reason (see module docstring).
    """
    fleet, truth = _build(
        nshards=3,
        rf=2,
        service_kwargs=dict(result_cache_entries=16, table_cache_entries=1),
        router_kwargs=dict(backoff_s=0.0005, breaker_cooldown_s=30.0),
        seed=SEED + 9,
    )
    keys = np.fromiter(truth, dtype=np.int64)
    victim = 0

    def sampler(phase):
        return KeySampler(keys, "uniform", seed=SEED + 7919 * phase)

    async def phase_load(router, phase):
        return await run_load(
            router,
            sampler(phase),
            FAILOVER_REQUESTS,
            mode="closed",
            concurrency=CONCURRENCY,
            epoch=ANY_EPOCH,
            expected=truth,
        )

    async def main():
        async with fleet:
            router = fleet.router
            healthy = await phase_load(router, 0)
            fleet.crash_shard(victim)
            degraded = await phase_load(router, 1)
            mid = router.stats()
            await fleet.recover_shard(victim)
            recovered = await phase_load(router, 2)
            return healthy, degraded, recovered, mid, router.stats()

    return asyncio.run(main())


def test_bench_fleet(report, benchmark):
    rows, data = [], {}

    # Gate 1: QPS scales >= 2.5x from 1 to 4 shards.
    arm_data = []
    arms = {}
    for nshards in (1, 4):
        load, stats, mem, data_bytes = _scaling_arm(nshards)
        assert load.incorrect == 0 and load.checked == SCALE_REQUESTS
        assert stats["scatter"] == 0, "fresh views never scatter"
        arms[nshards] = (load, stats, mem, data_bytes)
        lat = load.latency_ms
        rows.append(
            [
                f"scale/{nshards}-shard",
                f"{load.qps:,.0f}",
                lat["p50"],
                lat["p95"],
                lat["p99"],
                "",
            ]
        )
        arm_data.append(
            {
                "arm": f"{nshards}-shard",
                "qps": round(load.qps, 1),
                "p50_ms": lat["p50"],
                "p95_ms": lat["p95"],
                "p99_ms": lat["p99"],
                "aux_routed": stats["aux_routed"],
            }
        )
    speedup = arms[4][0].qps / arms[1][0].qps
    assert speedup >= SCALING_GATE, (
        f"1->4 shard qps speedup only {speedup:.2f}x (need {SCALING_GATE}x): "
        f"{arms[1][0].qps:,.0f} -> {arms[4][0].qps:,.0f}"
    )
    rows.append(["scale/speedup", "", "", "", "", f"{speedup:.2f}x (gate {SCALING_GATE}x)"])

    # Gate 2: router memory is aux-sized — resident <= 2x sealed blobs.
    _, _, mem, data_bytes = arms[4]
    ratio = mem["resident_bytes"] / mem["blob_bytes"]
    assert ratio <= MEMORY_GATE, (
        f"router resident aux {mem['resident_bytes']} vs blobs "
        f"{mem['blob_bytes']}: {ratio:.2f}x (gate {MEMORY_GATE}x)"
    )
    assert mem["resident_bytes"] < data_bytes / 4, "router is hoarding data, not aux"
    rows.append(
        [
            "router/memory",
            "",
            "",
            "",
            "",
            f"{mem['resident_bytes']:,}B resident / {mem['blob_bytes']:,}B blobs "
            f"= {ratio:.2f}x (data {data_bytes:,}B)",
        ]
    )

    # Gate 3: zero wrong bytes through crash + promotion + recovery.
    healthy, degraded, recovered, mid_stats, end_stats = _failover_trial()
    for name, load in (("healthy", healthy), ("degraded", degraded), ("recovered", recovered)):
        assert load.incorrect == 0, f"{name}: {load.incorrect} wrong answers"
        assert load.checked == FAILOVER_REQUESTS
        rows.append(
            [
                f"failover/{name}",
                f"{load.qps:,.0f}",
                load.latency_ms["p50"],
                load.latency_ms["p95"],
                load.latency_ms["p99"],
                "0 incorrect",
            ]
        )
    assert mid_stats["failovers"] > 0, "crash drew no failovers — trial is degenerate"
    assert mid_stats["breakers"]["0"] == "open"
    assert end_stats["breakers"]["0"] == "closed"
    rows.append(
        [
            "failover/summary",
            "",
            "",
            "",
            "",
            f"{mid_stats['failovers']} failovers, breaker open->closed",
        ]
    )

    text, table_data = table_artifact(
        ["trial", "qps", "p50 ms", "p95 ms", "p99 ms", "note"],
        rows,
        title=(
            f"Fleet serving — {EPOCHS}x{RECORDS} records, uniform load"
            f"{' [smoke]' if SMOKE else ''}"
        ),
    )
    data.update(table_data)
    data["qps_speedup_1_to_4"] = round(speedup, 2)
    data["router_aux_bytes_ratio"] = round(ratio, 3)
    data["scaling_arms"] = arm_data
    data["router_memory"] = {**mem, "data_bytes": data_bytes}
    data["failover"] = {
        "failovers": mid_stats["failovers"],
        "retries": mid_stats["retries"],
        "breaker_skips": mid_stats["breaker_skips"],
        "incorrect": healthy.incorrect + degraded.incorrect + recovered.incorrect,
        "phase_qps": {
            "healthy": round(healthy.qps, 1),
            "degraded": round(degraded.qps, 1),
            "recovered": round(recovered.qps, 1),
        },
    }
    report(text, name="fleet", data=data)

    # Representative kernel: one routed hot-key lookup (result-cache hit
    # behind an aux-directed single-shard plan).
    fleet, truth = _build(
        nshards=2, rf=1, service_kwargs=dict(result_cache_entries=64)
    )
    hot = next(iter(truth))
    loop = asyncio.new_event_loop()
    try:
        loop.run_until_complete(fleet.start())
        loop.run_until_complete(fleet.router.get(hot, epoch=ANY_EPOCH))  # warm
        benchmark(
            lambda: loop.run_until_complete(fleet.router.get(hot, epoch=ANY_EPOCH))
        )
        loop.run_until_complete(fleet.close())
    finally:
        loop.close()
