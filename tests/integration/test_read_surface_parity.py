"""Every read surface tells one story across commits and compactions.

The store's own reads (`get`, `get_many`, `lookup`, `lookup_many`,
`trajectory`) and a `QueryService`'s (explicit epoch, `ANY_EPOCH`) all go
through `EpochMount` sessions over the same sealed epochs.  One script per
format — write x3, compact, write, compact — checks after each step that
all of them agree with a dict oracle, that every surface refuses a
retired epoch id naming the merged epoch, that no mount keeps an engine
for a retired epoch, and that closing everything returns every reader
handle.
"""

import asyncio

import numpy as np
import pytest

from repro.core.formats import FMT_BASE, FMT_DATAPTR, FMT_FILTERKV
from repro.core.kv import KVBatch
from repro.core.multiepoch import EpochRetiredError, MultiEpochStore
from repro.serve import ANY_EPOCH, ERR_EPOCH_RETIRED, ERROR, NOT_FOUND, OK, QueryService

from ..reference.read import footprint

NRANKS = 4
VALUE_BYTES = 16
UNIVERSE = 160
PER_EPOCH = 96


class _Oracle:
    """Live epochs in data-recency order, each a key -> value dict, plus
    the retired-id forwarding compaction leaves behind."""

    def __init__(self):
        self.order: list[int] = []
        self.data: dict[int, dict[int, bytes]] = {}
        self.forward: dict[int, int] = {}

    def commit(self, epoch, batches):
        self.order.append(epoch)
        self.data[epoch] = {
            int(k): b.value_of(i) for b in batches for i, k in enumerate(b.keys)
        }

    def compact(self, sources, merged):
        sources = sorted(sources, key=self.order.index)  # oldest first
        union: dict[int, bytes] = {}
        for epoch in sources:  # newer sources overwrite older ones
            union.update(self.data.pop(epoch))
            self.forward[epoch] = merged
        at = self.order.index(sources[0])
        self.order = [e for e in self.order if e not in sources]
        self.order.insert(at, merged)
        self.data[merged] = union

    def resolve(self, epoch):
        while epoch in self.forward:
            epoch = self.forward[epoch]
        return epoch

    def at(self, key, epoch):
        return self.data[epoch].get(key)

    def newest(self, key):
        for epoch in reversed(self.order):
            if key in self.data[epoch]:
                return self.data[epoch][key], epoch
        return None, None


def _dumps(seed):
    rng = np.random.default_rng(seed)
    universe = rng.integers(0, 2**63, size=UNIVERSE, dtype=np.uint64)
    absent = rng.integers(2**63, 2**64 - 1, size=4, dtype=np.uint64)
    per = PER_EPOCH // NRANKS
    dumps = []
    for _ in range(4):
        keys = rng.choice(universe, size=PER_EPOCH, replace=False)
        vals = rng.integers(0, 256, size=(PER_EPOCH, VALUE_BYTES), dtype=np.uint8)
        dumps.append(
            [
                KVBatch(keys[r * per : (r + 1) * per], vals[r * per : (r + 1) * per])
                for r in range(NRANKS)
            ]
        )
    return dumps, np.concatenate([universe, absent])


async def _script(fmt, check_reads):
    """Run the write/compact script; with ``check_reads`` every step is
    followed by the parity checks.  Returns the device's `footprint`
    once everything is closed."""
    dumps, probe = _dumps(seed=41)
    store = MultiEpochStore(nranks=NRANKS, fmt=fmt, value_bytes=VALUE_BYTES, seed=41)
    oracle = _Oracle()
    svc = QueryService(store, max_inflight=4096, queue_high_watermark=4096)
    mounts = (store._reads, store._warm, svc._mount)

    def write(dump):
        epoch = store.manifest.next_epoch
        store.write_epoch(dump)
        oracle.commit(epoch, dump)

    def compact(sources):
        report = store.compact(sources)
        oracle.compact(report.source_epochs, report.merged_epoch)
        # No mount holds a view of a retired epoch once the swap returns,
        # with no read in between.
        for mount in mounts:
            assert set(mount._engines) <= set(store.epochs), "view of a retired epoch"

    async def check():
        if not check_reads:
            return
        assert store.epochs == oracle.order
        keys = [int(k) for k in probe]
        for epoch in oracle.order:
            want = [oracle.at(k, epoch) for k in keys]
            assert [store.get(k, epoch)[0] for k in keys[::7]] == want[::7]
            assert store.get_many(probe, epoch)[0] == want
            replies = await asyncio.gather(*(svc.get(k, epoch=epoch) for k in keys))
            assert [r.value for r in replies] == want
            assert {r.epoch for r in replies} == {epoch}
        for epoch in sorted(oracle.forward):  # retired ids
            for read in (lambda: store.get(keys[0], epoch), lambda: store.get_many(probe, epoch)):
                with pytest.raises(EpochRetiredError) as info:
                    read()
                assert info.value.merged == oracle.resolve(epoch)
            replies = await asyncio.gather(*(svc.get(k, epoch=epoch) for k in keys[::7]))
            assert {(r.status, r.code) for r in replies} == {(ERROR, ERR_EPOCH_RETIRED)}
        want = [oracle.newest(k) for k in keys]
        assert [store.lookup(k)[:2] for k in keys[::7]] == want[::7]
        values, found, stats = store.lookup_many(probe)
        assert list(zip(values, found)) == want
        assert [s.found for s in stats] == [v is not None for v, _ in want]
        for k in keys[::11]:
            assert [(e, v) for e, v, _ in store.trajectory(k)] == [
                (e, oracle.data[e].get(k)) for e in oracle.order
            ]
        replies = await asyncio.gather(*(svc.get(k, epoch=ANY_EPOCH) for k in keys))
        for r, (value, epoch) in zip(replies, want):
            assert r.status == (OK if value is not None else NOT_FOUND)
            assert r.value == value
            assert r.epoch == (epoch if value is not None else oracle.order[-1])
        for mount in mounts:
            assert set(mount._engines) <= set(store.epochs), "engine over a retired epoch"

    async with svc:
        for dump in dumps[:3]:
            write(dump)
            await check()
        compact([0, 1])
        await check()
        write(dumps[3])
        await check()
        compact(None)  # no policy: every live epoch
        assert len(store.epochs) == 1
        await check()
    store.close()
    assert not any(mount._engines for mount in mounts)
    return footprint(store.device)


@pytest.mark.parametrize("fmt", [FMT_BASE, FMT_DATAPTR, FMT_FILTERKV], ids=lambda f: f.name)
def test_all_read_surfaces_agree_across_compactions(fmt):
    after_reads = asyncio.run(_script(fmt, check_reads=True))
    # The same script with no read at all leaves the same extents, bytes
    # and writes behind: the reads changed nothing on the device.
    assert after_reads == asyncio.run(_script(fmt, check_reads=False))
