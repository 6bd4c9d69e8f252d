"""Ablation: cold per-query opens (the paper's reader) vs a warm cache.

Fig. 11's costs include re-opening the partition on every query (footer +
index loads each time).  A long-running analysis session would keep
table metadata, aux tables and data blocks resident; this ablation
measures how much of FilterKV's read-path premium that recovers.
"""

import numpy as np
import pytest

from repro.analysis.reporting import table_artifact
from repro.cluster import SimCluster
from repro.core.formats import FMT_BASE, FMT_DATAPTR, FMT_FILTERKV
from repro.core.kv import random_kv_batch
from repro.core.reader import TABLE_CACHE_ENTRIES

NRANKS = 12
RECORDS = 4000
NQUERIES = 60


def _dataset(fmt):
    cluster = SimCluster(
        nranks=NRANKS, fmt=fmt, value_bytes=56, seed=17
    )
    batches = [
        random_kv_batch(RECORDS, 56, np.random.default_rng(80 + r)) for r in range(NRANKS)
    ]
    for rank, b in enumerate(batches):
        cluster.put(rank, b)
    cluster.finish_epoch()
    rng = np.random.default_rng(3)
    keys = [
        int(batches[int(rng.integers(NRANKS))].keys[int(rng.integers(RECORDS))])
        for _ in range(NQUERIES)
    ]
    return cluster, keys


def test_ablation_reader_caching(report, benchmark):
    rows = []
    gains = {}
    for fmt in (FMT_BASE, FMT_DATAPTR, FMT_FILTERKV):
        cluster, keys = _dataset(fmt)
        cold = cluster.query_engine()
        warm = cold.warm(None, TABLE_CACHE_ENTRIES)
        cold_reads = sum(cold.get(k)[1].reads for k in keys) / len(keys)
        warm_reads = sum(warm.get(k)[1].reads for k in keys) / len(keys)
        gains[fmt.name] = cold_reads / warm_reads
        rows.append([fmt.name, round(cold_reads, 2), round(warm_reads, 2), round(gains[fmt.name], 2)])
    text, data = table_artifact(
        ["format", "cold reads/query", "warm reads/query", "speedup"],
        rows,
        title=f"Ablation — reader caching over {NQUERIES} queries, {NRANKS} partitions",
    )
    report(text, name="ablation_reader", data=data)
    # Everyone gains; FilterKV gains the most (aux + extra partition opens
    # are exactly what caching amortizes).
    assert all(g > 1.5 for g in gains.values())
    assert gains["filterkv"] >= gains["base"] * 0.9
    cluster, keys = _dataset(FMT_BASE)
    engine = cluster.query_engine()
    benchmark(lambda: engine.get(keys[0]))
