"""Shared harness for the fleet tests.

Same conventions as ``tests/serve``: no async plugin, so tests drive
coroutines with `run`.  The central fixture is the *fleet vs merged
store* pair — a sharded fleet and one unsharded `MultiEpochStore`
ingesting the identical dumps — because the fleet's whole contract is
that sharding is invisible: every answer must be byte-identical to what
the single store would say.
"""

import asyncio

import numpy as np

from repro.core.formats import FMT_FILTERKV
from repro.core.kv import KVBatch, random_kv_batch
from repro.core.multiepoch import MultiEpochStore
from repro.fleet import Fleet, FleetSpec

VB = 16
NRANKS = 2


def run(coro):
    return asyncio.run(coro)


# Epochs are immutable, so a crashed shard's warm caches keep answering
# hot keys correctly — which hides the crash.  Failover tests pin the
# caches so cold reads must touch the (downed) device.
TINY_CACHES = dict(result_cache_entries=1, table_cache_entries=1)


def make_dumps(epochs=2, records=240, seed=7):
    """Per-epoch fleet dumps plus the newest-wins ground truth."""
    rng = np.random.default_rng(seed)
    dumps, truth = [], {}
    for _ in range(epochs):
        b = random_kv_batch(records, VB, rng)
        dumps.append(b)
        truth.update((int(k), b.value_of(i)) for i, k in enumerate(b.keys))
    return dumps, truth


def build_fleet(
    nshards=3, rf=2, epochs=2, records=240, seed=7, ingest=True, **spec_kwargs,
):
    """A fleet plus its dumps and truth; ``ingest=False`` defers the
    dumps to the caller (e.g. to seal some epochs another way)."""
    spec = FleetSpec(
        nshards=nshards,
        rf=rf,
        nranks=NRANKS,
        value_bytes=VB,
        seed=seed,
        **spec_kwargs,
    )
    fleet = Fleet(spec)
    dumps, truth = make_dumps(epochs=epochs, records=records, seed=seed)
    if ingest:
        for d in dumps:
            fleet.ingest(d)
    return fleet, dumps, truth


def merged_store(dumps, seed=7, fmt=FMT_FILTERKV):
    """The oracle: one unsharded store ingesting the same dumps."""
    store = MultiEpochStore(nranks=NRANKS, fmt=fmt, value_bytes=VB, seed=seed)
    for d in dumps:
        writer = np.arange(len(d)) % NRANKS
        store.write_epoch(
            [
                KVBatch(d.keys[writer == r], d.values[writer == r])
                for r in range(NRANKS)
            ]
        )
    return store


def absent_keys(truth, n=16, seed=5):
    """Keys guaranteed absent from every epoch."""
    rng = np.random.default_rng(seed)
    out = []
    while len(out) < n:
        k = int(rng.integers(0, 2**63))
        if k not in truth:
            out.append(k)
    return out
