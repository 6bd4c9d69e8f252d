"""Serving through online compaction: what the store machine does not see.

`tests/integration/test_store_machine.py` checks a long-lived
`QueryService` against the oracle after every write, merge, crash and
attach: answers, the epoch each answer names, and the ``epoch_retired``
refusal of a retired id.  These tests pin what it cannot: a merge leaves
the surviving epoch's blocks and cached answers in place, a read queued
across the merge is refused, and a policy keeps the live epoch count
bounded under load.
"""

import asyncio

import numpy as np
import pytest

from repro.core.compact import CompactionPolicy
from repro.core.formats import FMT_BASE, FMT_FILTERKV
from repro.core.kv import random_kv_batch
from repro.core.multiepoch import MultiEpochStore
from repro.serve import ANY_EPOCH, ERR_EPOCH_RETIRED, ERROR, OK, QueryService

from .conftest import GatedService, run, until

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


def _three_dumps(fmt):
    """A store of three epochs (ids 0, 1, 2) and each one's rank batches."""
    store = MultiEpochStore(nranks=NRANKS, fmt=fmt, value_bytes=VB, seed=23)
    rng = np.random.default_rng(23)
    dumps = []
    for _ in range(3):
        dumps.append([random_kv_batch(120, VB, rng) for _ in range(NRANKS)])
        store.write_epoch(dumps[-1])
    return store, dumps


@pytest.mark.parametrize("fmt", [FMT_BASE, FMT_FILTERKV], ids=lambda f: f.name)
def test_a_partial_merge_keeps_the_surviving_epochs_blocks(fmt):
    """Merging the two older epochs leaves the service's view of the
    newest one alone: a key in a block it already holds costs no device
    read after the swap.  (A dataptr value is one value-log read per key,
    which no view keeps.)"""
    store, dumps = _three_dumps(fmt)

    async def main():
        async with _svc(store) as svc:
            warm = [int(k) for b in dumps[2] for k in b.keys[:-1]]
            replies = await asyncio.gather(*(svc.get(k, epoch=2) for k in warm))
            assert {r.status for r in replies} == {OK}
            store.compact([0, 1])
            reads = store.device.counters.reads
            for b in dumps[2]:
                r = await svc.get(int(b.keys[-1]), epoch=2)
                assert (r.status, r.cached, r.value) == (OK, False, b.value_of(len(b) - 1))
            assert store.device.counters.reads == reads
    run(main())
    store.close()


def test_a_partial_merge_keeps_the_surviving_epochs_cached_answers(fmt):
    """An explicit read of an epoch the merge did not touch stays a
    result-cache hit across it."""
    store, dumps = _three_dumps(fmt)
    key = int(dumps[2][0].keys[0])

    async def main():
        async with _svc(store) as svc:
            first = await svc.get(key, epoch=2)
            assert first.status == OK and not first.cached
            store.compact([0, 1])
            again = await svc.get(key, epoch=2)
            assert again.cached and (again.value, again.epoch) == (first.value, 2)
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
