"""Golden read-side counters: one seeded script, every number pinned.

A refactor of *who holds* the per-epoch engines (the store's cold,
handle-free and warm readers; the service's mounted ones) must not change
*what they read*.  This script writes five filterkv epochs across a
policy compaction, drives every read surface of the store and of two
`QueryService`s (default and ``table_cache_entries=1``) before and after
a further commit + compaction, and compares the counters after each phase
with totals captured at commit bc78542 (the parent of the reader-session
refactor).  Engines built by another factory, with other arguments, or
dropped at another moment, move at least one of them.

The key-group table layout (PR 24) re-pinned the ``bytes_read`` totals and
nothing else: an index read grew by 8 B + 4 B per block + 20 B per key
group, a data-block read shrank by the 12 B of count + block checksum the
groups replaced.  Every read count, handle count, cache counter and answer
is the one captured at bc78542.

Deleting the serving tier's negative cache re-pinned the service phases
and nothing else: ``reader.partitions_probed`` rose by exactly the old
``serve.negative_cache.skipped_probes`` (cuckoo ``default.before``:
162 -> 189), the reader handle cache's ``reader.cache.{hits,misses,
evictions}`` moved with those extra probes, and the two
``serve.negative_cache.*`` keys are gone.  Every device read, byte,
block-cache count and answer digest stayed equal.  Since retired epoch
ids are refused (`EpochRetiredError`, ``epoch_retired``), the script
reads the merged epoch a retired id names (`resolve_epoch`) where it
used to read the id, which is what forwarding served, and asserts the
id itself is refused.

Dropping the per-row ``u32`` value length re-pinned the ``bytes_read``
totals and nothing else.  The store's blocks shrank from 1 024 B to 928 B
with the rows, so a block still holds 29 rows and every read count, cache
counter and answer digest stayed equal; each data-block read
shrank by 4 B per row it fetched (``written``: 41 126 -> 37 286 B, 960
rows; the cuckoo run's device total 553 203 -> 496 875 B).

Folding the cached engine into `QueryEngine` (readers hold no handle, and
a warm engine keeps one `BlockCache` of 2 blocks per table-cache entry
instead of kept readers with 2 blocks each) re-pinned the warm phases
only, each to fewer device reads.  ``written``, ``store.get``,
``store.get_many`` and ``store.lookup`` read exactly what they read
before, block-cache counts included.  ``store.lookup_many``,
``store.trajectory`` and the four service phases read less (the cuckoo
run's totals 766 -> 693 device reads, 496 875 -> 435 595 B, 109 -> 182
block-cache hits; the default run's 758 -> 685), and every answer digest
is equal.  The write-only baseline the script used to subtract is gone,
as are the ``reader.cache.*`` series.  Later the device lost handles
altogether (reads and appends name their extent), and the handle-count
field, 0 in every phase, went with them.

The script runs twice.  Sealed with the paper's cuckoo tables it must
match `GOLDEN`, the bc78542 totals (service phases re-pinned as above).  Sealed with the store's default
(`AUTO_BACKENDS`, csf first) it must match `GOLDEN_AUTO`, pinned when that
became the default: the csf seal gives a present key one candidate, so
partitions probed and data reads fall, while every
answer digest equals the cuckoo run's.  Its absent keys' false candidates
follow the csf slot contents, so a change to how the csf build fills its
slots re-pins `GOLDEN_AUTO` (never `GOLDEN`).

Regenerate (only when a change is *meant* to move device traffic) with
``PYTHONPATH=src python tests/integration/test_read_counters_golden.py``.
"""

import asyncio
import zlib

import numpy as np
import pytest

from repro.core.compact import CompactionPolicy
from repro.core.formats import FMT_FILTERKV
from repro.core.kv import KVBatch
from repro.core.multiepoch import EpochRetiredError, MultiEpochStore
from repro.obs import MetricsRegistry
from repro.serve import ANY_EPOCH, ERR_EPOCH_RETIRED, QueryService
from repro.storage.blockio import StorageDevice

NRANKS = 4
VALUE_BYTES = 24
UNIVERSE = 400
PER_EPOCH = 240  # keys each dump overwrites, spread evenly over the ranks


def _dump(rng, universe, epoch_tag):
    keys = rng.choice(universe, size=PER_EPOCH, replace=False)
    vals = np.full((PER_EPOCH, VALUE_BYTES), epoch_tag, dtype=np.uint8)
    per = PER_EPOCH // NRANKS
    return [
        KVBatch(keys[r * per : (r + 1) * per], vals[r * per : (r + 1) * per])
        for r in range(NRANKS)
    ]


def _store_counters(store):
    dev, reg = store.device, store.device.metrics
    return {
        "device.reads": dev.counters.reads,
        "device.bytes_read": dev.counters.bytes_read,
        "sstable.block_cache.hits": int(reg.total("sstable.block_cache.hits")),
        "sstable.block_cache.misses": int(reg.total("sstable.block_cache.misses")),
    }


def _service_counters(svc):
    m = svc.metrics
    out = {
        "reader.queries": int(m.total("reader.queries")),
        "reader.partitions_probed": int(m.total("reader.partitions_probed")),
    }
    for cat in ("data", "footer", "index", "aux"):
        out[f"reader.storage_reads.{cat}"] = int(m.total("reader.storage_reads", category=cat))
    return out


def _stats_totals(stats):
    """What the callers of the store's own reads are handed back."""
    out = {"stats.reads": 0, "stats.bytes_read": 0, "stats.partitions_searched": 0}
    for s in stats:
        out["stats.reads"] += s.reads
        out["stats.bytes_read"] += s.bytes_read
        out["stats.partitions_searched"] += s.partitions_searched
    return out


def _digest(values):
    return zlib.crc32(b"|".join(b"-" if v is None else bytes(v) for v in values))


CUCKOO = ("cuckoo",)


def _new_store(aux_backends):
    store = MultiEpochStore(
        nranks=NRANKS,
        fmt=FMT_FILTERKV,
        value_bytes=VALUE_BYTES,
        block_size=928,  # 29 rows of 32 B: the block geometry the read counts were taken with
        seed=23,
        device=StorageDevice(metrics=MetricsRegistry("golden")),
        compaction=CompactionPolicy(max_live_epochs=4, merge_factor=4),
    )
    if aux_backends is not None:  # None: the store's own `AUTO_BACKENDS`
        store.aux_backends = aux_backends
    return store


def run_script(aux_backends=CUCKOO):
    """Run the seeded script; returns ``[(phase, counters), ...]``."""
    rng = np.random.default_rng(2311)
    universe = rng.integers(0, 2**63, size=UNIVERSE, dtype=np.uint64)
    absent = rng.integers(2**63, 2**64 - 1, size=8, dtype=np.uint64)
    dumps = [_dump(rng, universe, tag) for tag in range(1, 7)]
    store = _new_store(aux_backends)
    for dump in dumps[:5]:  # the 4th commit triggers the policy's merge
        store.write_epoch(dump)
    assert store.compactions == 1 and store.epochs == [4, 5]
    phases = [("written", _store_counters(store))]

    def store_phase(name, values, stats):
        phases.append(
            (name, {**_store_counters(store), **_stats_totals(stats), "answers": _digest(values)})
        )

    probe = np.concatenate([universe[::5], absent])  # 88 keys
    # -- the store's own read surfaces ------------------------------------
    values, stats = [], []
    with pytest.raises(EpochRetiredError):  # 2 was retired into 4
        store.get(int(probe[0]), 2)
    for epoch in (5, 4, store.resolve_epoch(2)):
        for k in probe[:30]:
            v, s = store.get(int(k), epoch)
            values.append(v)
            stats.append(s)
    store_phase("store.get", values, stats)

    values, stats = [], []
    with pytest.raises(EpochRetiredError):
        store.get_many(probe, 0)
    for epoch in (5, 4, store.resolve_epoch(0)):
        for _ in range(2):  # the repeat finds table metadata resident
            v, s = store.get_many(probe, epoch)
            values += v
            stats += s
    store_phase("store.get_many", values, stats)

    values, stats = [], []
    for cached in (True, False):
        for k in probe[20:50]:
            v, _, s = store.lookup(int(k), cached=cached)
            values.append(v)
            stats.append(s)
    store_phase("store.lookup", values, stats)

    values, stats = [], []
    for keys in (probe, probe[::2]):
        v, _, s = store.lookup_many(keys)
        values += v
        stats += s
    store_phase("store.lookup_many", values, stats)

    values, stats = [], []
    for k in probe[40:60]:
        for _, v, s in store.trajectory(int(k)):
            values.append(v)
            stats.append(s)
    store_phase("store.trajectory", values, stats)

    # -- two services over the same store ----------------------------------
    async def serve():
        default = QueryService(store, metrics=MetricsRegistry("default"))
        narrow = QueryService(
            store, table_cache_entries=1, metrics=MetricsRegistry("narrow")
        )

        async def reads(tag, explicit, retired):
            for name, svc in (("default", default), ("narrow", narrow)):
                refused = await svc.get(int(probe[0]), epoch=retired)
                assert refused.code == ERR_EPOCH_RETIRED
                replies = []
                for epoch in (explicit, store.resolve_epoch(retired), ANY_EPOCH, None):
                    for k in probe[:12]:  # one-key windows
                        replies.append(await svc.get(int(k), epoch=epoch))
                    replies += await asyncio.gather(  # one 48-key window
                        *(svc.get(int(k), epoch=epoch) for k in probe[40:])
                    )
                assert all(r.status in ("ok", "not_found") for r in replies)
                phases.append(
                    (
                        f"{name}.{tag}",
                        {
                            **_store_counters(store),
                            **_service_counters(svc),
                            "answers": _digest([r.value for r in replies]),
                        },
                    )
                )

        async with default, narrow:
            await reads("before", explicit=5, retired=1)
            store.write_epoch(dumps[5])  # live: 4, 5, 6
            store.compact([4, 5])  # 6 survives the swap
            assert store.compactions == 2 and sorted(store.epochs) == [6, 7]
            await reads("after", explicit=6, retired=5)
        phases.append(("services closed", _store_counters(store)))

    asyncio.run(serve())
    store.close()
    phases.append(("store closed", _store_counters(store)))
    return phases


# Captured at bc78542 (parent of the reader-session refactor); warm phases
# re-pinned when the cached engine folded into `QueryEngine`.
GOLDEN = [('written',
  {'device.reads': 84,
   'device.bytes_read': 37286,
   'sstable.block_cache.hits': 0,
   'sstable.block_cache.misses': 48}),
 ('store.get',
  {'device.reads': 188,
   'device.bytes_read': 112740,
   'sstable.block_cache.hits': 0,
   'sstable.block_cache.misses': 128,
   'stats.reads': 104,
   'stats.bytes_read': 75454,
   'stats.partitions_searched': 89,
   'answers': 3713930082}),
 ('store.get_many',
  {'device.reads': 272,
   'device.bytes_read': 178276,
   'sstable.block_cache.hits': 0,
   'sstable.block_cache.misses': 212,
   'stats.reads': 84,
   'stats.bytes_read': 65536,
   'stats.partitions_searched': 516,
   'answers': 1757043775}),
 ('store.lookup',
  {'device.reads': 430,
   'device.bytes_read': 242779,
   'sstable.block_cache.hits': 15,
   'sstable.block_cache.misses': 257,
   'stats.reads': 158,
   'stats.bytes_read': 64503,
   'stats.partitions_searched': 72,
   'answers': 1911588890}),
 ('store.lookup_many',
  {'device.reads': 438,
   'device.bytes_read': 248475,
   'sstable.block_cache.hits': 49,
   'sstable.block_cache.misses': 265,
   'stats.reads': 8,
   'stats.bytes_read': 5696,
   'stats.partitions_searched': 171,
   'answers': 4062918877}),
 ('store.trajectory',
  {'device.reads': 439,
   'device.bytes_read': 249403,
   'sstable.block_cache.hits': 80,
   'sstable.block_cache.misses': 266,
   'stats.reads': 1,
   'stats.bytes_read': 928,
   'stats.partitions_searched': 38,
   'answers': 1949709263}),
 ('default.before',
  {'device.reads': 463,
   'device.bytes_read': 269307,
   'sstable.block_cache.hits': 128,
   'sstable.block_cache.misses': 290,
   'reader.queries': 212,
   'reader.partitions_probed': 189,
   'reader.storage_reads.data': 24,
   'reader.storage_reads.footer': 0,
   'reader.storage_reads.index': 0,
   'reader.storage_reads.aux': 0,
   'answers': 686095842}),
 ('narrow.before',
  {'device.reads': 533,
   'device.bytes_read': 330011,
   'sstable.block_cache.hits': 130,
   'sstable.block_cache.misses': 360,
   'reader.queries': 212,
   'reader.partitions_probed': 189,
   'reader.storage_reads.data': 70,
   'reader.storage_reads.footer': 0,
   'reader.storage_reads.index': 0,
   'reader.storage_reads.aux': 0,
   'answers': 686095842}),
 ('default.after',
  {'device.reads': 629,
   'device.bytes_read': 379819,
   'sstable.block_cache.hits': 176,
   'sstable.block_cache.misses': 412,
   'reader.queries': 423,
   'reader.partitions_probed': 351,
   'reader.storage_reads.data': 48,
   'reader.storage_reads.footer': 8,
   'reader.storage_reads.index': 8,
   'reader.storage_reads.aux': 8,
   'answers': 3859104156}),
 ('narrow.after',
  {'device.reads': 693,
   'device.bytes_read': 435595,
   'sstable.block_cache.hits': 182,
   'sstable.block_cache.misses': 476,
   'reader.queries': 423,
   'reader.partitions_probed': 351,
   'reader.storage_reads.data': 134,
   'reader.storage_reads.footer': 0,
   'reader.storage_reads.index': 0,
   'reader.storage_reads.aux': 0,
   'answers': 3859104156}),
 ('services closed',
  {'device.reads': 693,
   'device.bytes_read': 435595,
   'sstable.block_cache.hits': 182,
   'sstable.block_cache.misses': 476}),
 ('store closed',
  {'device.reads': 693,
   'device.bytes_read': 435595,
   'sstable.block_cache.hits': 182,
   'sstable.block_cache.misses': 476})]


# The same script sealed with the store's default `AUTO_BACKENDS` (csf).
GOLDEN_AUTO = [('written',
  {'device.reads': 84,
   'device.bytes_read': 37069,
   'sstable.block_cache.hits': 0,
   'sstable.block_cache.misses': 48}),
 ('store.get',
  {'device.reads': 188,
   'device.bytes_read': 112040,
   'sstable.block_cache.hits': 0,
   'sstable.block_cache.misses': 128,
   'stats.reads': 104,
   'stats.bytes_read': 74971,
   'stats.partitions_searched': 82,
   'answers': 3713930082}),
 ('store.get_many',
  {'device.reads': 272,
   'device.bytes_read': 177576,
   'sstable.block_cache.hits': 0,
   'sstable.block_cache.misses': 212,
   'stats.reads': 84,
   'stats.bytes_read': 65536,
   'stats.partitions_searched': 452,
   'answers': 1757043775}),
 ('store.lookup',
  {'device.reads': 422,
   'device.bytes_read': 237932,
   'sstable.block_cache.hits': 15,
   'sstable.block_cache.misses': 257,
   'stats.reads': 150,
   'stats.bytes_read': 60356,
   'stats.partitions_searched': 64,
   'answers': 1911588890}),
 ('store.lookup_many',
  {'device.reads': 430,
   'device.bytes_read': 243628,
   'sstable.block_cache.hits': 49,
   'sstable.block_cache.misses': 265,
   'stats.reads': 8,
   'stats.bytes_read': 5696,
   'stats.partitions_searched': 138,
   'answers': 4062918877}),
 ('store.trajectory',
  {'device.reads': 431,
   'device.bytes_read': 244556,
   'sstable.block_cache.hits': 80,
   'sstable.block_cache.misses': 266,
   'stats.reads': 1,
   'stats.bytes_read': 928,
   'stats.partitions_searched': 34,
   'answers': 1949709263}),
 ('default.before',
  {'device.reads': 455,
   'device.bytes_read': 264460,
   'sstable.block_cache.hits': 128,
   'sstable.block_cache.misses': 290,
   'reader.queries': 212,
   'reader.partitions_probed': 156,
   'reader.storage_reads.data': 24,
   'reader.storage_reads.footer': 0,
   'reader.storage_reads.index': 0,
   'reader.storage_reads.aux': 0,
   'answers': 686095842}),
 ('narrow.before',
  {'device.reads': 525,
   'device.bytes_read': 325164,
   'sstable.block_cache.hits': 130,
   'sstable.block_cache.misses': 360,
   'reader.queries': 212,
   'reader.partitions_probed': 156,
   'reader.storage_reads.data': 70,
   'reader.storage_reads.footer': 0,
   'reader.storage_reads.index': 0,
   'reader.storage_reads.aux': 0,
   'answers': 686095842}),
 ('default.after',
  {'device.reads': 621,
   'device.bytes_read': 374315,
   'sstable.block_cache.hits': 176,
   'sstable.block_cache.misses': 412,
   'reader.queries': 423,
   'reader.partitions_probed': 307,
   'reader.storage_reads.data': 48,
   'reader.storage_reads.footer': 8,
   'reader.storage_reads.index': 8,
   'reader.storage_reads.aux': 8,
   'answers': 3859104156}),
 ('narrow.after',
  {'device.reads': 685,
   'device.bytes_read': 430091,
   'sstable.block_cache.hits': 182,
   'sstable.block_cache.misses': 476,
   'reader.queries': 423,
   'reader.partitions_probed': 307,
   'reader.storage_reads.data': 134,
   'reader.storage_reads.footer': 0,
   'reader.storage_reads.index': 0,
   'reader.storage_reads.aux': 0,
   'answers': 3859104156}),
 ('services closed',
  {'device.reads': 685,
   'device.bytes_read': 430091,
   'sstable.block_cache.hits': 182,
   'sstable.block_cache.misses': 476}),
 ('store closed',
  {'device.reads': 685,
   'device.bytes_read': 430091,
   'sstable.block_cache.hits': 182,
   'sstable.block_cache.misses': 476})]


def _check(got, golden):
    assert [name for name, _ in got] == [name for name, _ in golden]
    for (name, counters), (_, want) in zip(got, golden):
        assert counters == want, f"phase {name!r} moved"


def test_read_counters_match_the_parent_commit():
    _check(run_script(CUCKOO), GOLDEN)


def test_read_counters_under_the_default_backends():
    _check(run_script(None), GOLDEN_AUTO)


def test_the_backend_moves_traffic_never_answers():
    for (name, cuckoo), (_, auto) in zip(GOLDEN, GOLDEN_AUTO):
        assert cuckoo.get("answers") == auto.get("answers"), name
        for probes in ("stats.partitions_searched", "reader.partitions_probed"):
            assert auto.get(probes, 0) <= cuckoo.get(probes, 0), (name, probes)


if __name__ == "__main__":
    import pprint

    for backends in (CUCKOO, None):
        pprint.pprint(run_script(backends), width=100, sort_dicts=False)
