"""Integration-grade tests for the simulated cluster (exact accounting)."""

import numpy as np
import pytest

from repro.cluster.simcluster import SimCluster
from repro.core.formats import FMT_BASE, FMT_DATAPTR, FMT_FILTERKV
from repro.core.kv import random_kv_batch


def run(fmt, nranks=8, records=1500, value_bytes=56, **kw):
    cluster = SimCluster(
        nranks=nranks,
        fmt=fmt,
        value_bytes=value_bytes,
        seed=11,
        **kw,
    )
    stats = cluster.run_epoch(records)
    return cluster, stats


def test_base_shuffle_bytes_exact():
    _, st = run(FMT_BASE)
    # Base ships whole 64-byte records; 7/8 of data leaves its producer.
    assert st.shuffle_bytes_per_record == pytest.approx(64 * 7 / 8, rel=0.02)


def test_dataptr_shuffle_bytes_exact():
    _, st = run(FMT_DATAPTR)
    assert st.shuffle_bytes_per_record == pytest.approx(16 * 7 / 8, rel=0.02)


def test_filterkv_shuffle_bytes_exact():
    _, st = run(FMT_FILTERKV)
    assert st.shuffle_bytes_per_record == pytest.approx(8 * 7 / 8, rel=0.02)


def test_message_count_ordering():
    # Enough volume that every format fills multiple 16 KB batches per peer.
    msgs = {}
    for fmt in (FMT_BASE, FMT_DATAPTR, FMT_FILTERKV):
        _, st = run(fmt, records=20_000)
        msgs[fmt.name] = st.rpc_messages
    assert msgs["filterkv"] < msgs["dataptr"] < msgs["base"]
    # Counts scale with payload bytes: base ships ~4× dataptr, ~8× filterkv.
    # (end-of-burst flushes add a fixed per-peer message to every format)
    assert msgs["base"] > 2.5 * msgs["dataptr"]
    assert msgs["base"] > 4 * msgs["filterkv"]


def test_storage_ordering_matches_formats():
    per = {}
    for fmt in (FMT_BASE, FMT_DATAPTR, FMT_FILTERKV):
        _, st = run(fmt)
        per[fmt.name] = st.storage_bytes_per_record
    # DataPtr writes the most (values + keys + 12 B pointers); base least.
    assert per["base"] < per["filterkv"] < per["dataptr"]


def test_filterkv_aux_tiny_relative_to_pointers():
    _, st_f = run(FMT_FILTERKV)
    aux_per_key = st_f.aux_bytes / st_f.records
    assert aux_per_key < 2.0  # ~0.9-1.3 B at 8 partitions vs 12 B pointers


def test_all_records_arrive_somewhere():
    for fmt in (FMT_BASE, FMT_DATAPTR, FMT_FILTERKV):
        cluster, st = run(fmt)
        assert st.records == 8 * 1500
        received = sum(r.records_received for r in cluster.receivers)
        assert received == st.records


def test_query_roundtrip_all_formats():
    for fmt in (FMT_BASE, FMT_DATAPTR, FMT_FILTERKV):
        cluster, _ = run(fmt)
        engine = cluster.query_engine()
        rng = np.random.default_rng(11)  # regenerate rank 0's first batch
        batch = random_kv_batch(1500, 56, rng)
        for i in (0, 100, 777):
            value, qs = engine.get(int(batch.keys[i]))
            assert qs.found, f"{fmt.name}: key {i} not found"
            assert value == batch.value_of(i)


def test_query_absent_key():
    cluster, _ = run(FMT_FILTERKV)
    engine = cluster.query_engine()
    value, qs = engine.get(0xDEAD_BEEF_0BAD)
    assert value is None
    assert not qs.found


def test_filterkv_query_reads_aux_then_partitions():
    cluster, _ = run(FMT_FILTERKV)
    engine = cluster.query_engine()
    rng = np.random.default_rng(11)
    batch = random_kv_batch(1500, 56, rng)
    _, qs = engine.get(int(batch.keys[3]))
    assert qs.breakdown_reads.get("aux") == 1
    assert qs.partitions_searched >= 1
    assert qs.breakdown_reads.get("footer", 0) == qs.partitions_searched


def test_dataptr_query_has_vlog_read():
    cluster, _ = run(FMT_DATAPTR)
    engine = cluster.query_engine()
    rng = np.random.default_rng(11)
    batch = random_kv_batch(1500, 56, rng)
    _, qs = engine.get(int(batch.keys[9]))
    assert qs.breakdown_reads.get("vlog") == 1


def test_latency_ordering_fig11a():
    """Median latency: base < dataptr < filterkv (Fig. 11a)."""
    lat = {}
    for fmt in (FMT_BASE, FMT_DATAPTR, FMT_FILTERKV):
        cluster, _ = run(fmt, records=2500)
        engine = cluster.query_engine()
        rng = np.random.default_rng(11)
        batch = random_kv_batch(2500, 56, rng)
        ls = [engine.get(int(k))[1].latency for k in batch.keys[:40]]
        lat[fmt.name] = float(np.median(ls))
    assert lat["base"] < lat["dataptr"] < lat["filterkv"]


def test_rejects_single_rank():
    with pytest.raises(ValueError):
        SimCluster(nranks=1)


def test_stats_before_finish_rejected():
    cluster = SimCluster(nranks=2, fmt=FMT_BASE, value_bytes=8)
    with pytest.raises(ValueError):
        cluster.stats
    with pytest.raises(ValueError):
        cluster.query_engine()


def test_double_finish_rejected():
    cluster = SimCluster(nranks=2, fmt=FMT_BASE, value_bytes=8)
    cluster.finish_epoch()
    with pytest.raises(ValueError):
        cluster.finish_epoch()


def test_pipeline_rejects_wrong_value_width():
    cluster = SimCluster(nranks=2, fmt=FMT_BASE, value_bytes=8)
    with pytest.raises(ValueError):
        cluster.put(0, random_kv_batch(10, 16))
