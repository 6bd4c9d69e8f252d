"""Serving through online compaction: the epoch set changes, answers don't.

A warm `QueryService` holds engines and result-cache entries that name
epochs by id.  Compaction retires ids and deletes extents under the
service; these tests pin the contract that every response after the swap
is byte-identical to the response before it, that a request naming a
retired id is refused ``epoch_retired`` (never answered from the merged
epoch, whose newest-wins view is not that timestep), and that epoch ids
are never recycled into the cache's key space.
"""

import asyncio

import numpy as np

from repro.core.compact import CompactionPolicy
from repro.core.kv import random_kv_batch
from repro.core.multiepoch import MultiEpochStore
from repro.serve import ANY_EPOCH, ERR_EPOCH_RETIRED, ERROR, NOT_FOUND, OK, QueryService

from .conftest import ALL_FORMATS, GatedService, run, until  # noqa: F401 (fmt fixture import chain)

VB = 24
NRANKS = 4


def _grow(store, rng, n=120):
    """One dump; returns {key: value} for it."""
    batches = [random_kv_batch(n, VB, rng) for _ in range(NRANKS)]
    store.write_epoch(batches)
    return {int(k): b.value_of(i) for b in batches for i, k in enumerate(b.keys)}


def _multi_epoch_store(fmt, nepochs=3, seed=21):
    store = MultiEpochStore(nranks=NRANKS, fmt=fmt, value_bytes=VB, seed=seed)
    rng = np.random.default_rng(seed)
    truth = {}
    for _ in range(nepochs):
        truth.update(_grow(store, rng))
    return store, truth, rng


def _svc(store):
    return QueryService(store, max_inflight=4096, queue_high_watermark=4096)


def test_warm_service_survives_the_swap(fmt):
    """The compaction sweep deletes extents the mounted engines hold
    handles on; the service must notice the swap and keep answering."""
    store, truth, _ = _multi_epoch_store(fmt)

    async def main():
        async with _svc(store) as svc:
            keys = list(truth)[:64] + [1]  # plus a guaranteed miss
            before = {k: await svc.get(k, epoch=ANY_EPOCH) for k in keys}
            report = store.compact()
            for k in keys:
                r = await svc.get(k, epoch=ANY_EPOCH)
                assert r.status == before[k].status
                assert r.value == before[k].value, f"key {k} changed across the swap"
                if r.status == OK and not r.cached:
                    assert r.epoch == report.merged_epoch
            assert svc.stats()["compactions"] == 1
    run(main())
    store.close()


def test_retired_epoch_ids_keep_answering(fmt):
    """A retired id answers, and its answer is the typed refusal naming
    the merged epoch; an id never committed stays ``unknown_epoch``."""
    store, truth, _ = _multi_epoch_store(fmt)

    async def main():
        async with _svc(store) as svc:
            key = next(iter(truth))
            report = store.compact()
            for retired in report.source_epochs:
                r = await svc.get(key, epoch=retired)
                assert (r.status, r.code, r.value) == (ERROR, ERR_EPOCH_RETIRED, None)
                assert f"merged epoch {report.merged_epoch}" in r.detail
            r = await svc.get(key, epoch=report.merged_epoch)
            assert r.status == OK and r.value == truth[key]
            bogus = await svc.get(key, epoch=999)
            assert (bogus.status, bogus.code) == (ERROR, "unknown_epoch")
    run(main())
    store.close()


def test_a_read_queued_across_the_merge_is_refused(fmt):
    """A read admitted while its epoch was live, whose window runs after a
    merge retired that epoch, is refused ``epoch_retired`` as well."""
    store, truth, _ = _multi_epoch_store(fmt)

    async def main():
        async with GatedService(store) as svc:
            queued = asyncio.ensure_future(svc.get(next(iter(truth)), epoch=0))
            await until(lambda: len(svc._queue) == 1)
            store.compact()
            svc.gate.set()
            r = await queued
            assert (r.status, r.code) == (ERROR, ERR_EPOCH_RETIRED), r
    run(main())
    store.close()


def test_any_epoch_reports_found_epoch(fmt):
    store, truth, rng = _multi_epoch_store(fmt, nepochs=2)
    newest = _grow(store, rng)

    async def main():
        async with _svc(store) as svc:
            k_new = next(iter(newest))
            k_old = next(k for k in truth if k not in newest)
            r = await svc.get(k_new, epoch=ANY_EPOCH)
            assert r.status == OK and r.epoch == store.epochs[-1]
            r = await svc.get(k_old, epoch=ANY_EPOCH)
            assert r.status == OK and r.epoch < store.epochs[-1]
            assert r.value == truth[k_old]
            miss = await svc.get(1, epoch=ANY_EPOCH)
            assert miss.status == NOT_FOUND
    run(main())
    store.close()


def test_serve_through_compact_then_ingest(fmt):
    """Satellite regression: ids advance monotonically across the
    compact-then-ingest sequence, so a fresh epoch can never collide
    with a retired id still present in the service's cache keys."""
    store, truth, rng = _multi_epoch_store(fmt)

    async def main():
        async with _svc(store) as svc:
            stale_key = next(iter(truth))
            # Seed the result cache with pre-compaction entries.
            seeded = await svc.get(stale_key, epoch=0)
            assert seeded.status == OK

            report = store.compact()
            assert report.merged_epoch == 3  # ids 0..2 taken, never reused

            fresh = _grow(store, rng)
            assert store.epochs == [report.merged_epoch, 4]

            k_new = next(iter(fresh))
            r = await svc.get(k_new, epoch=ANY_EPOCH)
            assert r.status == OK and r.value == fresh[k_new] and r.epoch == 4
            # Old data still served via the sentinel; the retired id is
            # refused, not answered from its pre-compaction cache entry.
            expect = fresh.get(stale_key, truth[stale_key])
            r = await svc.get(stale_key, epoch=ANY_EPOCH)
            assert r.status == OK and r.value == expect
            r = await svc.get(stale_key, epoch=0)
            assert (r.status, r.code) == (ERROR, ERR_EPOCH_RETIRED)
    run(main())
    store.close()


def test_policy_compaction_under_load(fmt):
    """Writes trigger policy compactions between requests; every answer
    stays byte-correct and the live epoch count stays bounded."""
    policy = CompactionPolicy(max_live_epochs=3, merge_factor=8)
    store = MultiEpochStore(
        nranks=NRANKS, fmt=fmt, value_bytes=VB, seed=31, compaction=policy
    )
    rng = np.random.default_rng(31)

    async def main():
        truth = {}
        async with _svc(store) as svc:
            for _ in range(6):
                truth.update(_grow(store, rng, n=60))
                sample = list(truth)[:: max(1, len(truth) // 24)]
                for k in sample:
                    r = await svc.get(k, epoch=ANY_EPOCH)
                    assert r.status == OK and r.value == truth[k]
                assert len(store.epochs) <= policy.max_live_epochs
        assert store.compactions >= 2
    run(main())
    store.close()


def test_result_cache_entries_do_not_leak_across_generations(fmt):
    """A post-swap request must not be served a cache entry recorded
    under the pre-swap epoch numbering."""
    store, truth, rng = _multi_epoch_store(fmt, nepochs=2)

    async def main():
        async with _svc(store) as svc:
            key = next(iter(truth))
            first = await svc.get(key, epoch=ANY_EPOCH)
            repeat = await svc.get(key, epoch=ANY_EPOCH)
            assert repeat.cached
            store.compact()
            # Overwrite the key in a fresh epoch: the sentinel's resolution
            # moved, so the stale entry must not shadow the new value.
            value = bytes(rng.integers(0, 256, size=VB, dtype=np.uint8))
            batches = [random_kv_batch(0, VB, rng) for _ in range(NRANKS)]
            batches[0] = type(batches[0])(
                np.array([key], dtype=np.uint64),
                np.frombuffer(value, dtype=np.uint8).reshape(1, VB),
            )
            store.write_epoch(batches)
            r = await svc.get(key, epoch=ANY_EPOCH)
            assert not r.cached and r.value == value != first.value
    run(main())
    store.close()
