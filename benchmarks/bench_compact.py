"""Read amplification under epoch growth: the compaction gate.

An uncompacted `MultiEpochStore` fans every cross-epoch lookup out over
all live epochs, so per-query device reads grow linearly with the number
of dumps — the scalability bug online compaction exists to fix.  This
harness grows two identical datasets to **10× the single-epoch baseline**:

* the *uncompacted* arm keeps every dump as its own live epoch;
* the *compacted* arm runs the size-tiered `CompactionPolicy` after every
  commit, merging under live serving traffic.

Throughout the growth, two warm `QueryService` tiers (one per arm) answer
the same `ANY_EPOCH` probes and every response is asserted byte-identical
between arms and against ground truth — compaction under live traffic
changes where bytes live, never what a query answers (retired epoch ids
keep resolving; epoch-versioned caches invalidate on each swap).

The measurement is the *cold* read path — fresh readers per probe, no
warm caches to hide the fan-out — over keys drawn from the whole write
history (keys last written long ago are the ones that walk every epoch).

Gate, per format: at 10× growth, the compacted arm's mean device reads
per query and mean partitions searched per query are within **1.5×** of
the single-epoch baseline, while the uncompacted arm is reported (and
sanity-checked to be strictly worse).

``REPRO_COMPACT_SMOKE=1`` shrinks records/probes for CI.
"""

import asyncio
import os
import time

import numpy as np

from repro.analysis.reporting import table_artifact
from repro.core.compact import CompactionPolicy
from repro.core.formats import FMT_BASE, FMT_DATAPTR, FMT_FILTERKV
from repro.core.kv import KVBatch
from repro.core.multiepoch import MultiEpochStore
from repro.serve import ANY_EPOCH, NOT_FOUND, OK, QueryService
from repro.storage.compact import first_occurrence

SMOKE = os.environ.get("REPRO_COMPACT_SMOKE", "0") == "1"

NRANKS = 4 if SMOKE else 8
RECORDS_PER_RANK = 60 if SMOKE else 250  # per epoch
EPOCHS = 10  # the 10x growth is the point; scale records, not depth
OVERLAP = 0.3  # fraction of each dump rewriting older keys
PROBES = 96 if SMOKE else 384  # cold lookups per measurement
SERVE_PROBES = 24 if SMOKE else 64  # per-epoch served equivalence sample
VALUE_BYTES = 24
SEED = 47
GATE = 1.5


def _epoch_batches(rng, prev):
    """One dump's per-rank batches; unique keys within the epoch, a slice
    rewriting earlier keys so compaction has duplicates to fold."""
    keys = np.unique(
        rng.integers(0, 2**63, size=RECORDS_PER_RANK * NRANKS, dtype=np.uint64)
    )
    if prev is not None:
        k = int(keys.size * OVERLAP)
        keys[:k] = rng.choice(prev, size=k, replace=False)
        keys = np.unique(keys)
    rng.shuffle(keys)
    values = rng.integers(0, 256, size=(keys.size, VALUE_BYTES), dtype=np.uint8)
    splits = np.array_split(np.arange(keys.size), NRANKS)
    return [KVBatch(keys[s], values[s]) for s in splits], keys


def _cold_probe(store, keys):
    """Mean (device reads, partitions searched) per cold lookup."""
    reads = searched = 0
    for k in keys:
        _, _, stats = store.lookup(int(k), cached=False)
        reads += stats.reads
        searched += stats.partitions_searched
    return reads / keys.size, searched / keys.size


async def _grow_and_serve(fmt):
    """Grow both arms to EPOCHS dumps under live serving.

    Returns per-arm measurements plus the single-epoch baseline.
    """
    # Aggressive tier: every commit beyond the first triggers a full
    # re-merge, so the live epoch count stays at one between dumps — the
    # steady state whose read cost the gate compares against baseline.
    compacted = MultiEpochStore(
        nranks=NRANKS,
        fmt=fmt,
        value_bytes=VALUE_BYTES,
        seed=SEED,
        compaction=CompactionPolicy(max_live_epochs=2, merge_factor=EPOCHS + 1),
    )
    uncompacted = MultiEpochStore(
        nranks=NRANKS, fmt=fmt, value_bytes=VALUE_BYTES, seed=SEED
    )
    rng = np.random.default_rng(SEED)
    truth: dict[int, bytes] = {}
    prev = None
    baseline = None
    served = 0

    async with QueryService(
        compacted, max_inflight=4096, queue_high_watermark=4096
    ) as svc_c, QueryService(
        uncompacted, max_inflight=4096, queue_high_watermark=4096
    ) as svc_u:
        for epoch in range(EPOCHS):
            batches, keys = _epoch_batches(rng, prev)
            for b in batches:
                for i, k in enumerate(b.keys):
                    truth[int(k)] = b.value_of(i)
            compacted.write_epoch(batches)
            uncompacted.write_epoch(batches)
            prev = np.fromiter(truth, dtype=np.uint64)
            if epoch == 0:
                baseline = _cold_probe(uncompacted, keys[:PROBES])

            # Live-traffic equivalence: same ANY_EPOCH probes through both
            # warm services (plus one guaranteed miss), byte-compared.
            sample = rng.choice(prev, size=SERVE_PROBES, replace=False)
            for k in list(sample) + [1]:
                rc, ru = await asyncio.gather(
                    svc_c.get(int(k), epoch=ANY_EPOCH),
                    svc_u.get(int(k), epoch=ANY_EPOCH),
                )
                assert rc.status == ru.status, (fmt.name, k, rc, ru)
                assert rc.value == ru.value == truth.get(int(k)), (
                    f"{fmt.name}: served answers diverged for key {k}"
                )
                assert rc.status in (OK, NOT_FOUND)
                served += 1

    probe_keys = rng.choice(
        np.fromiter(truth, dtype=np.uint64), size=PROBES, replace=False
    )
    t0 = time.perf_counter()
    cold_c = _cold_probe(compacted, probe_keys)
    t_c = time.perf_counter() - t0
    t0 = time.perf_counter()
    cold_u = _cold_probe(uncompacted, probe_keys)
    t_u = time.perf_counter() - t0

    stats = {
        "baseline": baseline,
        "compacted": cold_c,
        "uncompacted": cold_u,
        "lookups_per_s": (PROBES / t_c, PROBES / t_u),
        "live_epochs": (len(compacted.epochs), len(uncompacted.epochs)),
        "compactions": compacted.compactions,
        "served_checked": served,
        "records": len(truth),
    }
    compacted.close()
    uncompacted.close()
    return stats


def test_bench_compact(report, benchmark):
    rows, data_rows = [], []
    amps = {}

    for fmt in (FMT_BASE, FMT_DATAPTR, FMT_FILTERKV):
        s = asyncio.run(_grow_and_serve(fmt))
        base_reads, base_parts = s["baseline"]
        for arm, (reads, parts), qps, live in (
            ("compacted", s["compacted"], s["lookups_per_s"][0], s["live_epochs"][0]),
            ("uncompacted", s["uncompacted"], s["lookups_per_s"][1], s["live_epochs"][1]),
        ):
            read_amp = reads / base_reads
            part_amp = parts / max(base_parts, 1e-9)
            if arm == "compacted":
                amps[fmt.name] = (read_amp, part_amp)
            rows.append(
                [
                    fmt.name,
                    arm,
                    live,
                    f"{reads:.2f}",
                    f"{parts:.2f}",
                    f"{read_amp:.2f}x",
                ]
            )
            data_rows.append(
                {
                    "format": fmt.name,
                    "arm": arm,
                    "live_epochs": live,
                    "mean_device_reads": round(reads, 3),
                    "mean_partitions_searched": round(parts, 3),
                    "read_amplification": round(read_amp, 3),
                    "partitions_amplification": round(part_amp, 3),
                    "cold_lookups_per_s": round(qps, 1),
                }
            )
        # Sanity: the bug being fixed is real — the uncompacted walk costs
        # strictly more than the compacted one at 10x growth.
        assert s["uncompacted"][0] > s["compacted"][0], (
            f"{fmt.name}: compaction bought nothing "
            f"({s['uncompacted'][0]:.2f} vs {s['compacted'][0]:.2f} reads)"
        )
        assert s["compactions"] >= EPOCHS - 2
        assert s["served_checked"] > 0

    # The gate: bounded read amplification at 10x epoch growth.
    for name, (read_amp, part_amp) in amps.items():
        assert read_amp <= GATE, (
            f"{name}: compacted mean reads {read_amp:.2f}x baseline (gate {GATE}x)"
        )
        assert part_amp <= GATE, (
            f"{name}: compacted partitions searched {part_amp:.2f}x baseline "
            f"(gate {GATE}x)"
        )

    text, data = table_artifact(
        ["format", "arm", "live epochs", "reads/query", "parts/query", "amp vs 1 epoch"],
        rows,
        title=(
            f"Cold read cost after {EPOCHS} dumps — {NRANKS} ranks x "
            f"{RECORDS_PER_RANK} records/epoch, {int(OVERLAP * 100)}% overlap"
            f"{' [smoke]' if SMOKE else ''}"
        ),
    )
    data["rows_detailed"] = data_rows
    data["epochs"] = EPOCHS
    data["gate_amplification"] = GATE
    report(text, name="compact", data=data)

    # Representative kernel: the merge's winner selection (stable
    # first-occurrence over newest-first concatenated epoch chunks).
    rng = np.random.default_rng(SEED + 1)
    chunks = [
        rng.integers(0, 1 << 20, size=RECORDS_PER_RANK * NRANKS, dtype=np.uint64)
        for _ in range(4)
    ]
    merged_keys = np.concatenate(chunks)
    benchmark(lambda: first_occurrence(merged_keys))
