"""The batched read path: answers, telemetry and I/O coalescing.

`QueryEngine.get_many` is the one read flow (``get`` is it for one key).
Its answers are checked against the per-key oracle of
`tests/reference/read.py` — values, ``found``, ``partitions_searched``
and the reader / aux probe counters — and its I/O against the same keys
read one ``get`` call each:

* per-key stats attribute shared I/O to group leads, so their sums equal
  what the device saw;
* aggregate device reads/bytes are **at most** the one-key calls' — the
  reduction from block coalescing is the optimization under test, so
  equality is not required (or wanted) there.
"""

import numpy as np
import pytest

from repro.cluster import SimCluster
from repro.core import FMT_BASE, FMT_DATAPTR, FMT_FILTERKV
from repro.core.kv import random_kv_batch
from repro.core.reader import TABLE_CACHE_ENTRIES, QueryEngine
from repro.obs import MetricsRegistry

from ..reference.read import ReadOracle, check_against_oracle

FORMATS = [FMT_BASE, FMT_DATAPTR, FMT_FILTERKV]
NRANKS = 6
RECORDS = 900


@pytest.fixture(scope="module", params=FORMATS, ids=lambda f: f.name)
def dataset(request):
    fmt = request.param
    cluster = SimCluster(
        nranks=NRANKS,
        fmt=fmt,
        value_bytes=24,
        block_size=1 << 12,
        seed=11,
        metrics=MetricsRegistry(),
    )
    batches = [
        random_kv_batch(RECORDS, 24, np.random.default_rng(70 + r))
        for r in range(NRANKS)
    ]
    for rank, b in enumerate(batches):
        cluster.put(rank, b)
    cluster.finish_epoch()
    stored = np.concatenate([b.keys for b in batches])
    return cluster, stored


def _engine(cluster, cached, metrics):
    """The cluster's epoch read cold, or through a warm view of its own
    (``cached``), counting into ``metrics``."""
    cold = cluster.query_engine()
    if cached:
        return cold.warm(metrics, TABLE_CACHE_ENTRIES)
    return QueryEngine(
        cold.device, cold.fmt, cold.nranks, cold.partitioner,
        cold.epoch, cold.files, cold.aux_tables, metrics,
    )


def _query_mix(stored, rng, n=400, absent_frac=0.15, dup_frac=0.1):
    present = rng.choice(stored, size=n, replace=False)
    absent = rng.integers(1 << 48, 1 << 49, size=int(n * absent_frac), dtype=np.uint64)
    dups = rng.choice(present, size=int(n * dup_frac), replace=True)
    q = np.concatenate([present, absent, dups])
    rng.shuffle(q)
    return q


def _assert_equivalent(cluster, keys, cached):
    """``get_many`` answers as the oracle, charges exactly what the device
    saw, and reads no more than one ``get`` call per key."""
    dev = cluster.device
    one_by_one = _engine(cluster, cached, MetricsRegistry())
    before = dev.counters.snapshot()
    for k in keys:
        one_by_one.get(int(k))
    s_io = dev.counters.delta(before)

    bulk = _engine(cluster, cached, MetricsRegistry())
    b_stats, b_io = check_against_oracle(bulk, keys, cluster.metrics)

    # Per-key stats attribute shared I/O to group leads: aggregates stay
    # exact, matching what the device actually saw.
    assert sum(s.reads for s in b_stats) == b_io.reads
    assert sum(s.bytes_read for s in b_stats) == b_io.bytes_read
    if len(keys):
        assert b_io.reads <= s_io.reads
        assert b_io.bytes_read <= s_io.bytes_read
    return s_io, b_io


@pytest.mark.parametrize("cached", [False, True], ids=["cold", "cached"])
def test_bulk_matches_scalar(dataset, cached):
    """The batch against the per-key walk (the oracle) and against one
    ``get`` call per key."""
    cluster, stored = dataset
    keys = _query_mix(stored, np.random.default_rng(3))
    _assert_equivalent(cluster, keys, cached)


def test_bulk_coalescing_actually_reduces_io(dataset):
    """On the cold engine, where one `get` per key re-opens every table it
    probes (a warm engine's block cache holds this whole dataset, so there
    scalar and bulk read the same)."""
    cluster, stored = dataset
    keys = _query_mix(stored, np.random.default_rng(5))
    s_io, b_io = _assert_equivalent(cluster, keys, cached=False)
    assert b_io.reads < s_io.reads  # the point of the batch path


def test_empty_and_singleton_batches(dataset):
    cluster, stored = dataset
    engine = _engine(cluster, cached=True, metrics=MetricsRegistry())
    values, stats = engine.get_many(np.zeros(0, dtype=np.uint64))
    assert values == [] and stats == []
    one = np.asarray([stored[0]], dtype=np.uint64)
    v_bulk, st_bulk = engine.get_many(one)
    v_scal, st_scal = engine.get(int(stored[0]))
    assert v_bulk == [v_scal] == [ReadOracle(engine).answer(int(stored[0])).value]
    assert st_bulk[0].found and st_scal.found


def test_duplicate_keys_each_fully_answered(dataset):
    cluster, stored = dataset
    engine = _engine(cluster, cached=True, metrics=MetricsRegistry())
    k = stored[7]
    keys = np.asarray([k, k, k, k], dtype=np.uint64)
    values, stats = engine.get_many(keys)
    assert values[0] is not None
    assert values == [values[0]] * 4
    assert all(s.found for s in stats)


def test_all_absent_batch(dataset):
    cluster, _ = dataset
    engine = _engine(cluster, cached=True, metrics=MetricsRegistry())
    keys = np.arange(1 << 50, (1 << 50) + 32, dtype=np.uint64)
    values, stats = engine.get_many(keys)
    assert values == [None] * 32
    assert not any(s.found for s in stats)


def test_batch_telemetry_recorded(dataset):
    cluster, stored = dataset
    metrics = MetricsRegistry()
    engine = _engine(cluster, cached=True, metrics=metrics)
    engine.get_many(stored[:128])
    fmt = cluster.query_engine().fmt.name
    assert metrics.total("reader.batch_keys", format=fmt) == 128
    blocks = metrics.histogram("reader.batch_blocks_decoded", format=fmt)
    ratio = metrics.histogram("reader.batch_coalescing_ratio", format=fmt)
    assert blocks.count == 1
    assert ratio.count == 1
    assert ratio.quantile(0.5) >= 1.0  # >= one key resolved per decoded block
