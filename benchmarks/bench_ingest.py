"""Ingestion throughput of the columnar write pipeline.

The write path (Fig. 3) ships batches, decodes them, and persists sorted
tables, all with array operations (``add_many`` / ``append_many`` on the
memtable, value log and SSTable writer, NumPy encode/decode in the
writer/receiver states).

This bench measures end-to-end epoch ingest (generate → partition →
shuffle → persist) for **filterkv at 64 ranks** in two writer regimes:

* ``spilling`` — writer memory is bounded (§V-A), so the timed path
  includes memtable spills and the flattening merge;
* ``in-memory`` — a small epoch with unbounded writer memory, where fixed
  per-epoch costs (64 table finishes, 64 aux seals) weigh most.

A third block reports the aux seal on its own: aux build µs/key at 256 /
4 096 / 65 536 keys per partition.  The paper's *online* insertion cost is
what ``bench_fig8`` / ``bench_ablation_cuckoo`` measure on
``AuxTable.insert_many`` directly.

Correctness gates, asserted on the runs that produce the timings: the
wire-format invariants (filterkv ships 8 B/record, dataptr 16 B/record).
Byte equality with a per-record writer is a tier-1 test
(``tests/integration/test_ingest_reference.py``), not a bench arm.

``REPRO_INGEST_SMOKE=1`` shrinks the dataset for CI.
"""

import gc
import os
import time

import numpy as np

from repro.analysis.reporting import table_artifact
from repro.cluster.simcluster import SimCluster
from repro.core.auxtable import aux_to_blob, build_sealed_aux
from repro.core.formats import FMT_DATAPTR, FMT_FILTERKV
from repro.core.kv import random_kv_batch
from repro.obs import MetricsRegistry
from repro.storage.memtable import MemTable

NRANKS = 64
VALUE_BYTES = 56
SEED = 11

# ``REPRO_INGEST_SMOKE=1`` shrinks the dataset for CI.
SMOKE = os.environ.get("REPRO_INGEST_SMOKE", "0") == "1"
SPILLING_RECORDS = 6_000 if SMOKE else 32_000
IN_MEMORY_RECORDS = 1_500 if SMOKE else 4_000
AUX_BUILD_SIZES = (256, 4_096, 65_536)


def _run(fmt, records_per_rank, spill=None):
    cluster = SimCluster(
        nranks=NRANKS,
        fmt=fmt,
        value_bytes=VALUE_BYTES,
        seed=SEED,
        spill_budget_bytes=spill,
        metrics=MetricsRegistry(),
    )
    # Pre-generate the workload so the timed window is ingestion only
    # (partition → local writes → shuffle → persist), not data synthesis.
    rng = np.random.default_rng(cluster.seed)
    batches = []
    for rank in range(NRANKS):
        remaining = records_per_rank
        while remaining:
            n = min(4096, remaining)
            batches.append((rank, random_kv_batch(n, VALUE_BYTES, rng)))
            remaining -= n
    # Timing hygiene: collect garbage from previous runs, then keep the
    # collector out of the timed window (allocation-heavy runs otherwise
    # pay unbounded, heap-age-dependent collection pauses).
    gc.collect()
    gc.disable()
    try:
        t0 = time.perf_counter()
        for rank, batch in batches:
            cluster.put(rank, batch)
        cluster.finish_epoch()
        elapsed = time.perf_counter() - t0
    finally:
        gc.enable()
    return elapsed, cluster.stats, cluster


def _aux_build_us_per_key(nkeys):
    """Median µs/key of one partition's seal: build + serialize the blob."""
    rng = np.random.default_rng(SEED + nkeys)
    times = []
    for rep in range(max(3, 16_384 // nkeys)):
        keys = rng.integers(0, 1 << 63, size=nkeys, dtype=np.uint64)
        srcs = rng.integers(0, NRANKS, size=nkeys).astype(np.uint64)
        t0 = time.perf_counter()
        (aux,) = build_sealed_aux([(0, keys, srcs)], nparts=NRANKS, backends=("cuckoo",), seed=rep)
        aux_to_blob(aux)
        times.append(time.perf_counter() - t0)
    return float(np.median(times)) / nkeys * 1e6


def test_bench_ingest(report, benchmark):
    rows = []
    data_rows = []

    # filterkv at 64 ranks: the acceptance configuration.  The spilling
    # regime bounds writer memory (the paper's §V-A buffering), so the
    # timed path covers memtable spills and the flattening merge.
    for regime, recs, spill in (
        ("spilling", SPILLING_RECORDS, 262_144),
        ("in-memory", IN_MEMORY_RECORDS, None),
    ):
        _run(FMT_FILTERKV, 1_000)  # warmup
        t, stats, cluster = min(
            (_run(FMT_FILTERKV, recs, spill=spill) for _ in range(2)), key=lambda r: r[0]
        )
        # filterkv ships keys only: 8 B per record crosses the transport
        # (self-destined envelopes included; `shuffle_bytes` counts only
        # the wire subset).
        wire = cluster.metrics.total("pipeline.wire_bytes")
        assert wire == stats.records * 8
        rows.append(
            [f"filterkv/{regime}", "columnar", stats.records, round(t, 3),
             f"{stats.records / t:,.0f}"]
        )
        data_rows.append(
            {
                "config": f"filterkv/{regime}",
                "mode": "columnar",
                "records": stats.records,
                "seconds": round(t, 4),
                "records_per_sec": round(stats.records / t, 1),
                "wire_bytes_per_record": wire / stats.records,
            }
        )

    # dataptr wire invariant (no aux table involved).
    _, stats, cluster = _run(FMT_DATAPTR, 2_000)
    wire = cluster.metrics.total("pipeline.wire_bytes")
    assert wire == stats.records * 16  # key u64 + vlog offset u64
    data_rows.append(
        {
            "config": "dataptr/wire",
            "mode": "columnar",
            "records": stats.records,
            "seconds": None,
            "records_per_sec": None,
            "wire_bytes_per_record": wire / stats.records,
        }
    )

    # The seal on its own: one partition's aux build.
    for nkeys in AUX_BUILD_SIZES:
        us = _aux_build_us_per_key(nkeys)
        rows.append([f"aux-build/{nkeys}", "seal", nkeys, "", f"{1e6 / us:,.0f}"])
        data_rows.append(
            {
                "config": f"aux-build/{nkeys}",
                "mode": "seal",
                "records": nkeys,
                "us_per_key": round(us, 3),
            }
        )

    text, data = table_artifact(
        ["config", "mode", "records", "seconds", "records/s"],
        rows,
        title=f"Ingest throughput — columnar pipeline, {NRANKS} ranks"
        f"{' [smoke]' if SMOKE else ''}",
    )
    text += "\naux build us/key: " + "  ".join(
        f"{r['records']}: {r['us_per_key']:.2f}" for r in data_rows if r["mode"] == "seal"
    )
    data["rows_detailed"] = data_rows
    report(text, name="ingest", data=data)

    # Representative kernel: one memtable fill at envelope scale.
    keys = np.arange(16_000, dtype=np.uint64)
    values = np.zeros((16_000, VALUE_BYTES), dtype=np.uint8)
    benchmark(lambda: MemTable(1 << 30).add_many(keys, values))
