"""Batched reads vs one key per call: the `get_many` gate.

The scalar arm calls `QueryEngine.get` once per key — `get_many` of one
key, so every key pays the flow's fixed costs on its own: partition hash,
aux probe, candidate walk, block lookup.  The bulk arm answers 512-key
batches through the same flow, so the per-key interpreter cost amortizes
across the batch (vectorized candidate resolution, block-coalesced table
reads) and each data block is read, checksummed, and decoded once.

Both arms run a fresh `CachedQueryEngine` over the same persisted
epoch — same table/aux caching, no result cache anywhere — so the
measured gap is the batch path itself, not cache warmth.  Equivalence
is asserted *in-run* before any throughput gate:

* byte-identical values and identical per-key ``found`` /
  ``partitions_searched``;
* identical probe counters (``reader.queries`` / ``hits`` /
  ``partitions_probed`` / ``candidates``, ``aux.probes`` /
  ``candidates``);
* the bulk arm's device reads/bytes at most the scalar arm's (block
  coalescing makes them lower — that reduction is reported, not merely
  tolerated).

Gate: at the acceptance configuration (FilterKV, 64 ranks) the bulk
arm must clear **2×** the scalar arm's lookups/s.  Base and DataPtr run
the same equivalence checks and are reported alongside.

``REPRO_QUERY_SMOKE=1`` shrinks the dataset and query counts for CI.
"""

import os
import time

import numpy as np

from repro.analysis.reporting import table_artifact
from repro.core.formats import FMT_BASE, FMT_DATAPTR, FMT_FILTERKV
from repro.core.kv import random_kv_batch
from repro.core.multiepoch import MultiEpochStore
from repro.obs import MetricsRegistry

SMOKE = os.environ.get("REPRO_QUERY_SMOKE", "0") == "1"

NRANKS = 64
VALUE_BYTES = 24
RECORDS_PER_RANK = 40 if SMOKE else 150
QUERIES = 2_048 if SMOKE else 4_096
BATCH = 512
ABSENT_FRAC = 0.10
SEED = 23
# Re-anchored on the measured ratio (2.6-4.8x on the 2-core box, full and
# smoke): the old 4x was set when scalar filterkv did ~4.3 K lookups/s; the
# scalar-int hash fast path and the sealed cuckoo layout since took the
# scalar arm to 7-9 K/s while the bulk arm stayed at ~30 K/s.
FILTERKV_GATE = 2.0

PROBE_COUNTERS = (
    "reader.queries",
    "reader.hits",
    "reader.partitions_probed",
    "reader.candidates",
    "aux.probes",
    "aux.candidates",
)


def _build(fmt):
    store = MultiEpochStore(nranks=NRANKS, fmt=fmt, value_bytes=VALUE_BYTES, seed=SEED)
    rng = np.random.default_rng(SEED)
    batches = [random_kv_batch(RECORDS_PER_RANK, VALUE_BYTES, rng) for _ in range(NRANKS)]
    store.write_epoch(batches)
    stored = np.concatenate([b.keys for b in batches]).astype(np.uint64)
    return store, stored


def _workload(stored, rng):
    """Uniform draws over the stored keys plus ~10% absent keys, shuffled."""
    present = rng.choice(stored, size=QUERIES, replace=True)
    absent = rng.integers(1 << 48, 1 << 49, size=int(QUERIES * ABSENT_FRAC), dtype=np.uint64)
    keys = np.concatenate([present, absent])
    rng.shuffle(keys)
    return keys


def _scalar_arm(store, keys):
    metrics = MetricsRegistry()
    engine = store.cached_engine(store.epochs[-1], metrics=metrics)
    before = store.device.counters.snapshot()
    t0 = time.perf_counter()
    values = [engine.get(int(k))[0] for k in keys]
    elapsed = time.perf_counter() - t0
    io = store.device.counters.delta(before)
    engine.close()
    return values, elapsed, metrics, io


def _bulk_arm(store, keys):
    metrics = MetricsRegistry()
    engine = store.cached_engine(store.epochs[-1], metrics=metrics)
    values: list = []
    before = store.device.counters.snapshot()
    t0 = time.perf_counter()
    for start in range(0, len(keys), BATCH):
        vals, _ = engine.get_many(keys[start : start + BATCH])
        values.extend(vals)
    elapsed = time.perf_counter() - t0
    io = store.device.counters.delta(before)
    engine.close()
    return values, elapsed, metrics, io


def test_bench_query(report, benchmark):
    rows, data_rows = [], []
    ratios = {}
    rng = np.random.default_rng(SEED)

    for fmt in (FMT_BASE, FMT_DATAPTR, FMT_FILTERKV):
        store, stored = _build(fmt)
        keys = _workload(stored, rng)

        s_vals, s_t, s_m, s_io = _scalar_arm(store, keys)
        b_vals, b_t, b_m, b_io = _bulk_arm(store, keys)

        # Equivalence before throughput: the fast path must be the same path.
        assert b_vals == s_vals, f"{fmt.name}: bulk values differ from scalar"
        for name in PROBE_COUNTERS:
            assert b_m.total(name) == s_m.total(name), (
                f"{fmt.name}: {name} {b_m.total(name)} != scalar {s_m.total(name)}"
            )
        assert b_io.reads <= s_io.reads, f"{fmt.name}: bulk issued more reads"
        assert b_io.bytes_read <= s_io.bytes_read

        scalar_qps = len(keys) / s_t
        bulk_qps = len(keys) / b_t
        ratios[fmt.name] = bulk_qps / scalar_qps
        coalesce = s_io.reads / max(1, b_io.reads)
        for arm, qps, reads in (("scalar", scalar_qps, s_io.reads), ("bulk", bulk_qps, b_io.reads)):
            rows.append(
                [
                    fmt.name,
                    arm,
                    f"{qps:,.0f}",
                    f"{reads:,}",
                    round(ratios[fmt.name], 1) if arm == "bulk" else "",
                ]
            )
            data_rows.append(
                {
                    "format": fmt.name,
                    "arm": arm,
                    "lookups_per_s": round(qps, 1),
                    "device_reads": int(reads),
                    "device_bytes": int(s_io.bytes_read if arm == "scalar" else b_io.bytes_read),
                    "speedup": round(ratios[fmt.name], 2) if arm == "bulk" else None,
                    "read_reduction": round(coalesce, 2) if arm == "bulk" else None,
                }
            )

    # Gate: the acceptance configuration (FilterKV at 64 ranks) must show
    # the batch path clearing the scalar loop by the re-anchored margin.
    assert ratios["filterkv"] >= FILTERKV_GATE, (
        f"bulk filterkv only {ratios['filterkv']:.1f}x scalar (need {FILTERKV_GATE}x)"
    )

    text, data = table_artifact(
        ["format", "arm", "lookups/s", "device reads", "speedup"],
        rows,
        title=(
            f"Bulk vs scalar point lookups — {NRANKS} ranks x "
            f"{RECORDS_PER_RANK} records, batch {BATCH}, "
            f"{int(ABSENT_FRAC * 100)}% absent{' [smoke]' if SMOKE else ''}"
        ),
    )
    data["rows_detailed"] = data_rows
    data["batch_size"] = BATCH
    data["queries"] = QUERIES + int(QUERIES * ABSENT_FRAC)
    report(text, name="query", data=data)

    # Representative kernel: one bulk batch through the FilterKV engine.
    store, stored = _build(FMT_FILTERKV)
    keys = _workload(stored, np.random.default_rng(SEED + 1))[:BATCH]
    engine = store.cached_engine(store.epochs[-1])
    engine.get_many(keys)  # warm the table cache: steady-state batches
    benchmark(lambda: engine.get_many(keys))
    engine.close()
