"""Device traffic per engine kind, on tables whose blocks span many key groups.

`test_read_counters_golden.py` pins every read surface on tables of one key
group each, where fetching the touched groups and fetching the whole block
are the same bytes.  Here every block holds about eight groups, so the
three fetch rules show:

* the store's handle-free reads (`store.get`, `store.get_many`): warm
  views over resident table metadata whose `BlockCache` keeps no block —
  one read per block, covering only the span of key groups the call
  touches;
* the paper's cold reader (`store.engine(e)`, no block cache): whole
  blocks, kept by nobody, as Fig. 11b/c counts them;
* a `QueryService` mount: whole blocks, kept in each epoch view's
  `BlockCache` of ``BLOCK_CACHE_BLOCKS × table_cache_entries`` blocks.

Each phase's device reads and bytes are pinned (`GOLDEN`) beside what the
same script read when every engine fetched whole blocks (`WHOLE_BLOCKS`):
read counts are equal on every surface, bytes are equal wherever whole
blocks are fetched, and smaller on the ranged surfaces only.  Every answer
equals the per-key oracle of `tests/reference/read.py`.

Dropping the per-record ``u32`` value length re-pinned the bytes only:
every read count is the one taken with length-framed records, and the
whole-block surfaces read 4 B less per record they fetched (the cold
reader 1 354 256 -> 1 242 800 B).  The ranged surfaces moved by more than
that arithmetic, because a key group now holds 128 records, not 120.

Replacing each kept reader's 2-block LRU by one block cache per engine
re-pinned the service phase and nothing else, in both tables: 38 -> 27
reads, 1 025 344 -> 725 280 B.  Its engines still fetch whole blocks, but
an engine's blocks are now one pool of 2 × 64, so a table whose lookups
land in four blocks keeps all four, where its kept reader's LRU held two.
Every other phase and every answer is unchanged.

Regenerate (only when a change is *meant* to move device traffic) with
``PYTHONPATH=src python -m tests.integration.test_ranged_read_traffic``.
"""

import asyncio

import numpy as np

from repro.core.formats import FMT_FILTERKV
from repro.core.kv import random_kv_batch
from repro.core.multiepoch import MultiEpochStore
from repro.serve import QueryService

from ..reference.read import ReadOracle

NRANKS = 4
PER_RANK = 3000
VALUE_BYTES = 24  # 32-byte records: 4 096-byte key groups of 128 records
# 911 records and 8 groups per block, the last one short: the rows per block
# of 32 KiB blocks of the earlier 36-byte records, so read counts compare.
BLOCK_SIZE = 911 * 32
RANGED = ("store.get", "store.get_many")


def _store():
    rng = np.random.default_rng(2811)
    store = MultiEpochStore(
        nranks=NRANKS,
        fmt=FMT_FILTERKV,
        value_bytes=VALUE_BYTES,
        block_size=BLOCK_SIZE,
        seed=11,
    )
    store.aux_backends = ("cuckoo",)  # the candidate walk these totals were pinned on
    written = []
    for _ in range(2):
        batches = [random_kv_batch(PER_RANK, VALUE_BYTES, rng) for _ in range(NRANKS)]
        store.write_epoch(batches)
        written.append(np.concatenate([b.keys for b in batches]))
    absent = rng.integers(2**63, 2**64 - 1, size=16, dtype=np.uint64)
    probe = {
        e: np.concatenate([rng.choice(keys, size=48, replace=False), absent])
        for e, keys in zip(store.epochs, written)
    }
    return store, probe


def run_script():
    """Run the seeded script; returns ``(store, [(phase, counters)], answers)``
    with ``answers[phase]`` a list of ``(epoch, key, value)``."""
    store, probe = _store()
    epochs = store.epochs
    phases, answers = [], {}

    def phase(name, read):
        before = store.device.counters.snapshot()
        answers[name] = read()
        d = store.device.counters.delta(before)
        phases.append((name, {"reads": d.reads, "bytes_read": d.bytes_read}))

    phase("store.get", lambda: [
        (e, k, store.get(k, e)[0]) for e in epochs for k in probe[e].tolist()
    ])
    phase("store.get_many", lambda: [  # twice: the repeat finds metadata resident
        (e, k, v)
        for e in epochs
        for _ in range(2)
        for k, v in zip(probe[e].tolist(), store.get_many(probe[e], e)[0])
    ])
    phase("store.engine.get", lambda: [
        (e, k, store.engine(e).get(k)[0]) for e in epochs for k in probe[e][::3].tolist()
    ])

    async def serve():
        out = []
        async with QueryService(store) as svc:
            for e in epochs:
                keys = probe[e].tolist()
                for k in keys[::3]:  # one-key windows
                    out.append((e, k, (await svc.get(k, epoch=e)).value))
                replies = await asyncio.gather(*(svc.get(k, epoch=e) for k in keys))
                out += [(e, k, r.value) for k, r in zip(keys, replies)]
        return out

    phase("service", lambda: asyncio.run(serve()))
    return store, phases, answers


GOLDEN = [
    ("store.get", {"reads": 122, "bytes_read": 451064}),
    ("store.get_many", {"reads": 54, "bytes_read": 993152}),
    ("store.engine.get", {"reads": 182, "bytes_read": 1242800}),
    ("service", {"reads": 27, "bytes_read": 725280}),
]

# The same script when every engine fetched whole blocks.
WHOLE_BLOCKS = [
    ("store.get", {"reads": 122, "bytes_read": 2810264}),
    ("store.get_many", {"reads": 54, "bytes_read": 1450560}),
    ("store.engine.get", {"reads": 182, "bytes_read": 1242800}),
    ("service", {"reads": 27, "bytes_read": 725280}),
]


def test_traffic_per_engine_kind():
    store, got, answers = run_script()
    assert got == GOLDEN
    for (name, now), (_, whole) in zip(got, WHOLE_BLOCKS):
        assert now["reads"] == whole["reads"], name
        if name in RANGED:
            assert now["bytes_read"] < whole["bytes_read"], name
        else:
            assert now["bytes_read"] == whole["bytes_read"], name
    oracle = {e: ReadOracle(store.engine(e)) for e in store.epochs}
    for name, rows in answers.items():
        assert [v for _, _, v in rows] == [oracle[e].answer(k).value for e, k, _ in rows], name
        assert any(v is None for _, _, v in rows) and any(v is not None for _, _, v in rows)
    store.close()


if __name__ == "__main__":
    import pprint

    pprint.pprint(run_script()[1], width=100, sort_dicts=False)
