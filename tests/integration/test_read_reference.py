"""`QueryEngine` and `SSTableReader` reads against the per-key oracle of
`tests/reference/read.py`.

One seeded epoch per format, written through `SimCluster` with some keys
written twice by two ranks (filterkv then lists both ranks; base and
dataptr keep the first written), and a 16-rank filterkv epoch whose
cuckoo tables give present keys false candidates, read by the cold and
the cached engine:
``get_many`` over present, repeated and absent keys, and ``get`` key by
key, must answer as the oracle does — values, ``found``, partitions
searched, and the reader and aux probe counters.  At the table layer,
lookups in a table whose duplicate runs cross key-group and block bounds
must return the first entry of the entry-by-entry walk.
"""

import numpy as np
import pytest

from repro.cluster import SimCluster
from repro.core import FMT_BASE, FMT_DATAPTR, FMT_FILTERKV
from repro.core.kv import KVBatch, random_kv_batch
from repro.core.reader import TABLE_CACHE_ENTRIES, QueryEngine
from repro.obs import MetricsRegistry
from repro.storage.blockio import StorageDevice
from repro.storage.sstable import SSTableReader, SSTableWriter

from ..reference.read import ReadOracle, check_against_oracle, scan_rows

NRANKS = 8
RECORDS_PER_RANK = 2000
VALUE_BYTES = 56
SEED = 7
TWICE = 40  # keys of rank 0 that rank 5 writes again, with other values


# At 16 ranks the paper's cuckoo gives present keys false candidates, so
# a key walks several partitions before its hit.
SIXTEEN = (FMT_FILTERKV, 1 << 20, 16)


def _id(param):
    fmt, block_size, nranks = param
    return f"{fmt.name}-{block_size >> 10}k" + ("" if nranks == NRANKS else f"-{nranks}ranks")


@pytest.fixture(
    scope="module",
    params=[
        (f, b, NRANKS) for f in (FMT_BASE, FMT_DATAPTR, FMT_FILTERKV) for b in (1 << 20, 1 << 13)
    ] + [SIXTEEN],
    ids=_id,
)
def epoch(request):
    fmt, block_size, nranks = request.param
    cluster = SimCluster(
        nranks=nranks, fmt=fmt, value_bytes=VALUE_BYTES, seed=SEED,
        block_size=block_size, metrics=MetricsRegistry(),
    )
    rng = np.random.default_rng(SEED)
    batches = [random_kv_batch(RECORDS_PER_RANK, VALUE_BYTES, rng) for _ in range(nranks)]
    again = random_kv_batch(TWICE, VALUE_BYTES, rng)
    batches[5] = KVBatch(
        np.concatenate([batches[5].keys, batches[0].keys[:TWICE]]),
        np.concatenate([batches[5].values, again.values]),
    )
    for rank, batch in enumerate(batches):
        cluster.put(rank, batch)
    cluster.finish_epoch()
    return cluster, np.concatenate([b.keys for b in batches])


def _engine(cluster, cached):
    """The cluster's epoch read cold, or through a warm view of its own
    (``cached``), counting into a fresh registry."""
    cold = cluster.query_engine()
    if cached:
        return cold.warm(MetricsRegistry(), TABLE_CACHE_ENTRIES)
    return QueryEngine(
        cold.device, cold.fmt, cold.nranks, cold.partitioner,
        cold.epoch, cold.files, cold.aux_tables, MetricsRegistry(),
    )


def _keys(stored, seed):
    rng = np.random.default_rng(seed)
    present = rng.choice(stored, size=600, replace=True)  # repeats included
    absent = rng.integers(1 << 48, 1 << 49, size=80, dtype=np.uint64)
    keys = np.concatenate([present, absent, stored[:TWICE]])
    rng.shuffle(keys)
    return keys


@pytest.mark.parametrize("cached", [False, True], ids=["cold", "cached"])
def test_get_many_answers_as_the_per_key_oracle(epoch, cached):
    cluster, stored = epoch
    engine = _engine(cluster, cached)
    check_against_oracle(engine, _keys(stored, SEED + 1), cluster.metrics)
    values, _ = engine.get_many(stored[:TWICE])
    assert None not in values


@pytest.mark.parametrize("cached", [False, True], ids=["cold", "cached"])
def test_get_answers_as_the_per_key_oracle(epoch, cached):
    cluster, stored = epoch
    keys = _keys(stored, SEED + 2)[:120]
    engine = _engine(cluster, cached)
    oracle = ReadOracle(engine)
    for key in keys.tolist():
        value, stats = engine.get(key)
        want = oracle.answer(key)
        assert (value, stats.found, stats.partitions_searched) == (
            want.value, want.found, want.partitions_searched
        )
    for key in keys[:20].tolist():  # one-key batches are `get`
        check_against_oracle(engine, [key], cluster.metrics)


@pytest.mark.parametrize("epoch", [SIXTEEN], ids=_id, indirect=True)
def test_present_keys_meet_false_candidates(epoch):
    """Each present key's candidates hold its rank and, for some keys,
    others: the walk past a false candidate is what the oracle checks
    above meet at 16 ranks."""
    cluster, stored = epoch
    before = cluster.metrics.total("aux.false_candidates")
    values, stats = cluster.query_engine().get_many(stored)
    assert None not in values
    assert cluster.metrics.total("aux.false_candidates") > before
    assert max(s.partitions_searched for s in stats) > 1


@pytest.mark.parametrize("block_size", [64, 4096, 1 << 15])
def test_table_lookups_return_the_first_entry_of_the_walk(block_size):
    """Few distinct keys, each written many times: duplicate runs cross
    key-group and block bounds, and a lookup must still land on the first
    entry written — the one the reference `scan_rows` meets first."""
    rng = np.random.default_rng(block_size)
    keys = rng.integers(0, 300, size=6000, dtype=np.uint64) * np.uint64(7919)
    values = rng.integers(0, 256, size=(keys.size, 20), dtype=np.uint8)
    dev = StorageDevice()
    writer = SSTableWriter(dev, "t", block_size=block_size)
    writer.add_many(keys, values)
    writer.finish()
    reader = SSTableReader(dev, "t")
    first: dict[int, bytes] = {}
    for key, value in scan_rows(dev, reader):
        first.setdefault(key, value)
    probe = np.concatenate([np.unique(keys), rng.integers(0, 300 * 7919, 200, dtype=np.uint64)])
    rng.shuffle(probe)
    want = [first.get(k) for k in probe.tolist()]
    assert reader.get_many(probe)[0] == want
    assert [reader.get(k) for k in probe[:100].tolist()] == want[:100]
