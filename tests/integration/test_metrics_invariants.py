"""Telemetry invariants over real cluster runs.

These tie the registry's counters to ground truth the paper states
analytically: FilterKV ships exactly the 8-byte key per record, DataPtr
ships key + 8-byte pointer (16 B/record), and every candidate rank the
reader probes was reported by the auxiliary table.
"""

import numpy as np
import pytest

from repro.cluster import SimCluster
from repro.core import FMT_BASE, FMT_DATAPTR, FMT_FILTERKV
from repro.core.kv import random_kv_batch
from repro.obs import MetricsRegistry

RANKS = 4
RECORDS = 800


def _run(fmt, value_bytes=24, queries=0):
    reg = MetricsRegistry(fmt.name)
    cluster = SimCluster(
        nranks=RANKS,
        fmt=fmt,
        value_bytes=value_bytes,
        seed=7,
        metrics=reg,
    )
    batches = [random_kv_batch(RECORDS, value_bytes, np.random.default_rng(50 + r)) for r in range(RANKS)]
    for rank, batch in enumerate(batches):
        cluster.put(rank, batch)
    cluster.finish_epoch()
    engine = cluster.query_engine() if queries else None
    for i in range(queries):
        engine.get(int(batches[i % RANKS].keys[i % RECORDS]))
    return reg, cluster


def test_filterkv_wire_bytes_are_8_per_record():
    reg, _ = _run(FMT_FILTERKV)
    records = RANKS * RECORDS
    assert reg.total("pipeline.records_encoded") == records
    assert reg.total("pipeline.wire_bytes", format="filterkv") == 8 * records


def test_dataptr_wire_bytes_are_16_per_record():
    reg, _ = _run(FMT_DATAPTR)
    records = RANKS * RECORDS
    assert reg.total("pipeline.wire_bytes", format="dataptr") == 16 * records


def test_base_wire_bytes_carry_full_kv():
    reg, _ = _run(FMT_BASE, value_bytes=24)
    records = RANKS * RECORDS
    assert reg.total("pipeline.wire_bytes", format="base") == (8 + 24) * records


def test_encoded_equals_decoded_everywhere():
    for fmt in (FMT_BASE, FMT_DATAPTR, FMT_FILTERKV):
        reg, _ = _run(fmt)
        assert reg.total("pipeline.records_encoded") == reg.total("pipeline.records_decoded")
        assert reg.total("pipeline.batches_shipped") == reg.total("pipeline.batches_received")


def test_reader_candidates_match_aux_reported_candidates():
    reg, _ = _run(FMT_FILTERKV, queries=120)
    queries = reg.total("reader.queries")
    assert queries == 120
    # Every candidate the reader saw came from an aux-table probe, 1:1.
    assert reg.total("reader.candidates") == reg.total("aux.candidates")
    assert reg.total("aux.probes") == queries
    # The reader stops probing once it finds the key, so partitions probed
    # never exceed the candidates offered and never miss (all keys exist).
    assert reg.total("reader.partitions_probed") <= reg.total("reader.candidates")
    assert reg.total("reader.hits") == queries
    amp = reg.histogram("reader.read_amplification", format="filterkv")
    assert amp.count == queries
    assert amp.min >= 1.0


def test_storage_counters_track_device():
    reg, cluster = _run(FMT_FILTERKV)
    assert reg.total("storage.bytes_written") == cluster.device.counters.bytes_written
    assert reg.total("storage.writes") == cluster.device.counters.writes


def test_aux_structure_gauges_recorded():
    reg, cluster = _run(FMT_FILTERKV)
    records = RANKS * RECORDS
    keys = sum(
        reg.gauge("aux.keys", backend="cuckoo", rank=str(r)).value for r in range(RANKS)
    )
    assert keys == records
    assert reg.total("aux.inserts") == records


def test_per_rank_rollup_preserves_totals():
    reg, cluster = _run(FMT_FILTERKV, queries=40)
    rolled = cluster.metrics.rollup("rank")
    assert rolled.total("pipeline.wire_bytes") == reg.total("pipeline.wire_bytes")
    assert rolled.total("aux.inserts") == reg.total("aux.inserts")
    # rank label is gone: one series per (name, remaining labels)
    assert all("rank" not in dict(labels) for _, labels, _ in rolled.series())
    assert len(rolled) < len(reg)


def test_uninstrumented_run_records_nothing():
    """The disabled path: no registry handed in, nothing accumulates."""
    cluster = SimCluster(nranks=RANKS, fmt=FMT_FILTERKV, value_bytes=24, seed=7)
    cluster.run_epoch(200)
    assert len(cluster.metrics) == 0
    assert cluster.metrics.total("pipeline.wire_bytes") == 0


@pytest.mark.parametrize("fmt", [FMT_BASE, FMT_DATAPTR, FMT_FILTERKV], ids=lambda f: f.name)
def test_instrumentation_does_not_change_results(fmt):
    """Counters observe the run; they must not perturb it."""
    reg, cluster = _run(fmt)
    plain = SimCluster(
        nranks=RANKS, fmt=fmt, value_bytes=24, seed=7
    )
    batches = [random_kv_batch(RECORDS, 24, np.random.default_rng(50 + r)) for r in range(RANKS)]
    for rank, batch in enumerate(batches):
        plain.put(rank, batch)
    plain.finish_epoch()
    assert plain.stats == cluster.stats
