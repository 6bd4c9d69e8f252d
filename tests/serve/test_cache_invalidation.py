"""Cache correctness across epoch commits (the versioning story).

A serving tier must never return a stale value after a new epoch commits.
`repro.serve` guarantees this by *versioning* rather than invalidating:
cache keys carry the resolved epoch, and an unqualified query resolves to
the newest epoch at admission — so a commit shifts resolution away from
every existing entry.  These tests serve a key, overwrite it in a new
epoch, and assert the new value is returned; plus the explicit-epoch and
`invalidate` behaviors around that guarantee.
"""

import numpy as np

from repro.core.kv import KVBatch
from repro.serve import NOT_FOUND, OK, QueryService

from .conftest import ALL_FORMATS, build_store, run


def _batches(store, keys, fill):
    """One dump whose values are all ``fill`` bytes, keys spread evenly."""
    nranks = store.nranks
    per = len(keys) // nranks
    vals = np.full((len(keys), store.value_bytes), fill, dtype=np.uint8)
    return [
        KVBatch(keys[r * per : (r + 1) * per], vals[r * per : (r + 1) * per])
        for r in range(nranks)
    ]


def _fresh_store(fmt):
    store, _ = build_store(fmt, nranks=4, records=1, seed=21)  # shape only
    from repro.core.multiepoch import MultiEpochStore

    return MultiEpochStore(nranks=4, fmt=fmt, value_bytes=24, seed=21)


def test_commit_invalidates_served_values():
    rng = np.random.default_rng(77)
    keys = rng.integers(0, 2**63, size=64, dtype=np.uint64)
    for fmt in ALL_FORMATS:
        store = _fresh_store(fmt)
        store.write_epoch(_batches(store, keys, fill=0xAA))

        async def main(store=store):
            async with QueryService(store) as svc:
                key = int(keys[5])
                old = await svc.get(key)
                cached = await svc.get(key)
                assert old.value == b"\xaa" * 24 and cached.cached

                # Overwrite every key in a new epoch while serving.
                store.write_epoch(_batches(store, keys, fill=0xBB))

                new = await svc.get(key)
                assert new.value == b"\xbb" * 24, f"stale value served ({fmt.name})"
                assert new.epoch == 1 and not new.cached
                # The new answer is cached under the new epoch...
                again = await svc.get(key)
                assert again.cached and again.value == b"\xbb" * 24
                # ...and the old epoch stays addressable and correct.
                historical = await svc.get(key, epoch=0)
                assert historical.value == b"\xaa" * 24 and historical.epoch == 0

        run(main())


def test_commit_shifts_negative_outcomes_too():
    """A key absent from epoch 0 but present in epoch 1 must stop
    answering not_found once epoch 1 commits — cached misses are
    versioned exactly like cached hits."""
    rng = np.random.default_rng(78)
    keys0 = rng.integers(0, 2**63, size=64, dtype=np.uint64)
    keys1 = rng.integers(0, 2**63, size=64, dtype=np.uint64)
    from repro.core.formats import FMT_FILTERKV

    store = _fresh_store(FMT_FILTERKV)
    store.write_epoch(_batches(store, keys0, fill=0x01))

    async def main():
        async with QueryService(store) as svc:
            probe = int(keys1[3])
            assert (await svc.get(probe)).status == NOT_FOUND
            assert (await svc.get(probe)).cached  # the miss is cached

            store.write_epoch(_batches(store, keys1, fill=0x02))

            r = await svc.get(probe)
            assert r.status == OK and r.value == b"\x02" * 24

    run(main())


def test_explicit_invalidate_drops_all_cached_state():
    rng = np.random.default_rng(79)
    keys = rng.integers(0, 2**63, size=64, dtype=np.uint64)
    from repro.core.formats import FMT_FILTERKV

    store = _fresh_store(FMT_FILTERKV)
    store.write_epoch(_batches(store, keys, fill=0x0C))

    async def main():
        async with QueryService(store) as svc:
            for k in keys[:20]:
                await svc.get(int(k))
            assert len(svc._rcache) == 20
            svc.invalidate()
            assert len(svc._rcache) == 0
            assert not svc._mount._engines
            # Still serves correctly afterwards (engines rebuild lazily).
            r = await svc.get(int(keys[0]))
            assert r.status == OK and r.value == b"\x0c" * 24 and not r.cached

    run(main())
