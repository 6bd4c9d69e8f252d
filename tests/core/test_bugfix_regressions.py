"""Regression tests for PR 2's bugfixes.

Each test pins a bug that shipped in an earlier revision:

* `WriterState._append_to_buffer` looped forever when one record was wider
  than ``batch_bytes`` (the record-boundary trim cut the batch to zero).
* `CachedQueryEngine._get_filterkv` ignored ``parallel_probe=True`` and
  always probed candidates sequentially.
* `WriterState.local_storage_bytes` omitted spilled run bytes for a
  bounded-memory filterkv writer, understating local storage mid-burst.
"""

import numpy as np

from repro.cluster import SimCluster
from repro.core import FMT_FILTERKV
from repro.core.formats import FMT_BASE
from repro.core.kv import random_kv_batch
from repro.core.partitioning import HashPartitioner
from repro.core.pipeline import WriterState, main_table_name
from repro.core.reader import CachedQueryEngine
from repro.storage.blockio import StorageDevice


def test_record_wider_than_batch_bytes_ships_single_record_envelopes():
    """A record wider than the shipping budget must go out alone, not hang."""
    shipped = []
    w = WriterState(
        rank=0,
        fmt=FMT_BASE,
        partitioner=HashPartitioner(2),
        device=StorageDevice(),
        value_bytes=56,  # record = 8 + 56 = 64 bytes
        send=shipped.append,
        batch_bytes=32,  # narrower than one record
    )
    batch = random_kv_batch(40, 56, rng=5)
    w.put_batch(batch)  # pre-fix: infinite loop here
    w.flush()
    assert sum(env.nrecords for env in shipped) == 40
    # Nothing can share an envelope when one record overflows the budget.
    assert all(env.nrecords == 1 and len(env.payload) == 64 for env in shipped)


def _filterkv_dataset(nranks=8, records=3000):
    cluster = SimCluster(
        nranks=nranks,
        fmt=FMT_FILTERKV,
        value_bytes=8,
        seed=47,
    )
    batches = [
        random_kv_batch(records, 8, np.random.default_rng(90 + r)) for r in range(nranks)
    ]
    for rank, b in enumerate(batches):
        cluster.put(rank, b)
    cluster.finish_epoch()
    return cluster, batches


def _cached_engine(cluster, parallel):
    e = cluster.query_engine()
    return CachedQueryEngine(
        device=e.device,
        fmt=e.fmt,
        nranks=e.nranks,
        partitioner=e.partitioner,
        aux_tables=e.aux_tables,
        epoch=e.epoch,
        parallel_probe=parallel,
    )


def test_cached_engine_routes_parallel_probe(monkeypatch):
    """``parallel_probe=True`` must reach ``_probe_parallel`` on the cached
    engine too, not silently fall back to the sequential loop."""
    cluster, batches = _filterkv_dataset()
    engine = _cached_engine(cluster, parallel=True)
    calls = []
    inner = engine._probe_parallel

    def spy(key, candidates, stats):
        calls.append(int(key))
        return inner(key, candidates, stats)

    monkeypatch.setattr(engine, "_probe_parallel", spy)
    for i in range(0, 3000, 307):
        key = int(batches[2].keys[i])
        value, qs = engine.get(key)
        assert qs.found and value == batches[2].value_of(i)
    assert len(calls) == len(range(0, 3000, 307))


def test_cached_parallel_matches_sequential_answers():
    cluster, batches = _filterkv_dataset()
    seq = _cached_engine(cluster, parallel=False)
    par = _cached_engine(cluster, parallel=True)
    for i in range(0, 3000, 271):
        key = int(batches[5].keys[i])
        assert seq.get(key)[0] == par.get(key)[0] == batches[5].value_of(i)
    absent = par.get(0xDEAD0BAD)
    assert absent[0] is None and not absent[1].found


def test_local_storage_bytes_counts_spilled_runs():
    """Mid-burst, a bounded-memory filterkv writer holds its data in spilled
    runs; local storage accounting must see those bytes."""
    dev = StorageDevice()
    w = WriterState(
        rank=0,
        fmt=FMT_FILTERKV,
        partitioner=HashPartitioner(2),
        device=dev,
        value_bytes=16,
        send=lambda env: None,
        spill_budget_bytes=2048,
    )
    w.put_batch(random_kv_batch(2000, 16, rng=6))
    spilled = w._runs.size_bytes
    assert spilled > 0  # the tiny budget forced spills
    assert w.local_storage_bytes >= spilled  # pre-fix: reported ~0 mid-burst
    w.finish()
    table = dev.file_size(main_table_name(0, 0))
    # Post-flatten both the final table and the (retained) runs are local.
    assert w.local_storage_bytes == table + w._runs.size_bytes
