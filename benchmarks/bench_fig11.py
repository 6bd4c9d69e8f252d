"""Fig. 11: read performance — latency, storage reads, and bytes per query.

The paper persists a 2 TB VPIC dataset and runs 100 independent point
queries per format, reporting (a) min/median/max latency, (b) average
storage reads per query with a breakdown by what was read, and (c) average
data fetched per query with the same breakdown.

This harness executes the *real* read path over a real (scaled) dataset on
a storage-device model whose seek time is calibrated so the base format's
median latency lands near the paper's 190 ms; every other number is then
produced by the same mechanics the paper describes: DataPtr pays one extra
value-log read, FilterKV reads an aux table and probes ~1–2 candidate
partitions.
"""

import numpy as np
import pytest

from repro.analysis.reporting import table_artifact
from repro.cluster import SimCluster
from repro.core.formats import FMT_BASE, FMT_DATAPTR, FMT_FILTERKV
from repro.core.kv import random_kv_batch
from repro.storage.blockio import DeviceProfile
from repro.storage.log import READ_AHEAD

NRANKS = 32
RECORDS_PER_RANK = 6_000
NQUERIES = 100
# Calibrated: burst-buffer/PFS request round trip ≈ 60 ms per read op at
# the paper's scale puts KNL-Base's median at ~190 ms (3 reads + transfer).
DEVICE = DeviceProfile(name="trinity-pfs", read_bandwidth=2e8, write_bandwidth=2e8, seek_time=0.06)

FORMATS = (FMT_BASE, FMT_DATAPTR, FMT_FILTERKV)
CATEGORIES = ("footer", "index", "aux", "data", "vlog")


@pytest.fixture(scope="module")
def datasets():
    """One persisted dataset + query set per format."""
    out = {}
    for fmt in FORMATS:
        cluster = SimCluster(
            nranks=NRANKS,
            fmt=fmt,
            value_bytes=56,
            device_profile=DEVICE,
            block_size=1 << 18,
            seed=23,
        )
        batches = [
            random_kv_batch(RECORDS_PER_RANK, 56, np.random.default_rng(900 + r))
            for r in range(NRANKS)
        ]
        for rank, batch in enumerate(batches):
            cluster.put(rank, batch)
        cluster.finish_epoch()
        rng = np.random.default_rng(77)
        targets = []
        for _ in range(NQUERIES):
            rank = int(rng.integers(NRANKS))
            i = int(rng.integers(RECORDS_PER_RANK))
            targets.append((int(batches[rank].keys[i]), batches[rank].value_of(i)))
        out[fmt.name] = (cluster, targets)
    return out


@pytest.fixture(scope="module")
def query_results(datasets):
    results = {}
    for fmt in FORMATS:
        cluster, targets = datasets[fmt.name]
        engine = cluster.query_engine()
        stats = []
        for key, expect in targets:
            value, qs = engine.get(key)
            assert qs.found and value == expect
            stats.append(qs)
        results[fmt.name] = stats
    return results


def test_fig11a_query_latency(report, benchmark, datasets, query_results):
    rows = []
    med = {}
    for fmt in FORMATS:
        lats = np.asarray([q.latency for q in query_results[fmt.name]]) * 1e3
        med[fmt.name] = float(np.median(lats))
        rows.append(
            [f"KNL-{fmt.name}", round(lats.min()), round(np.median(lats)), round(lats.max())]
        )
    text, data = table_artifact(
        ["scheme", "min ms", "median ms", "max ms"],
        rows,
        title=f"Fig. 11a — query latency over {NQUERIES} point queries",
    )
    report(text, name="fig11a", data=data)
    # Paper: 190 / 250 / 440 ms medians; shape = base ≤ dataptr ≤ filterkv,
    # FilterKV also having by far the largest tail (false-positive probes).
    # Our scaled dataset is seek-dominated rather than transfer-dominated,
    # which compresses the filterkv/base ratio (2.3× in the paper); the
    # scale-free cross-check is Fig. 11b's reads/query, which matches.
    assert med["base"] < med["dataptr"] <= med["filterkv"]
    assert 1.15 < med["dataptr"] / med["base"] < 1.6
    assert 1.2 < med["filterkv"] / med["base"] < 3.5
    maxes = {f.name: max(q.latency for q in query_results[f.name]) * 1e3 for f in FORMATS}
    assert maxes["filterkv"] > 2 * maxes["base"]
    cluster, targets = datasets["base"]
    engine = cluster.query_engine()
    benchmark(lambda: engine.get(targets[0][0]))


def test_fig11b_storage_reads_breakdown(report, benchmark, query_results):
    rows = []
    avg_reads = {}
    for fmt in FORMATS:
        qs = query_results[fmt.name]
        avg = sum(q.reads for q in qs) / len(qs)
        avg_reads[fmt.name] = avg
        breakdown = [
            round(sum(q.breakdown_reads.get(cat, 0) for q in qs) / len(qs), 2)
            for cat in CATEGORIES
        ]
        rows.append([f"KNL-{fmt.name}", round(avg, 2), *breakdown])
    text, data = table_artifact(
        ["scheme", "avg reads", *CATEGORIES],
        rows,
        title="Fig. 11b — storage reads per query and cost breakdown",
    )
    report(text, name="fig11b", data=data)
    # Paper: base ≈ 3.1 reads; DataPtr = base + 1 (value log); FilterKV
    # highest (aux read + ~1.9 partitions × (footer+index+data)).
    assert 2.8 < avg_reads["base"] < 3.6
    assert avg_reads["dataptr"] == pytest.approx(avg_reads["base"] + 1, abs=0.3)
    assert avg_reads["filterkv"] > avg_reads["dataptr"]
    qs = query_results["filterkv"]
    parts = sum(q.partitions_searched for q in qs) / len(qs)
    assert 1.0 <= parts < 2.6  # paper: 1.88 partitions/query
    benchmark(lambda: sum(q.reads for q in qs))


def test_fig11c_data_fetched_breakdown(report, benchmark, query_results):
    rows = []
    avg_mb = {}
    for fmt in FORMATS:
        qs = query_results[fmt.name]
        avg = sum(q.bytes_read for q in qs) / len(qs) / 1e6
        avg_mb[fmt.name] = avg
        breakdown = [
            round(sum(q.breakdown_bytes.get(cat, 0) for q in qs) / len(qs) / 1e6, 3)
            for cat in CATEGORIES
        ]
        rows.append([f"KNL-{fmt.name}", round(avg, 3), *breakdown])
    text, data = table_artifact(
        ["scheme", "avg MB", *CATEGORIES],
        rows,
        title="Fig. 11c — data fetched per query (MB) and cost breakdown",
    )
    report(text, name="fig11c", data=data)
    # Paper shape: FilterKV fetches the most (whole aux table + extra
    # partitions).  The paper's DataPtr ≈ base holds there because both
    # formats fetch one 4 MiB block per query.  Here one 256 KiB block holds
    # a whole DataPtr table (6 000 rows of key + 12-byte pointer) but only
    # part of a base one (64-byte rows), so a block fetch follows row width:
    # DataPtr fetches less than base, plus one value-log read of at most the
    # read-ahead and its length prefix.
    assert avg_mb["filterkv"] > avg_mb["base"]
    assert avg_mb["dataptr"] < avg_mb["base"]
    vlog = [q.breakdown_bytes.get("vlog", 0) for q in query_results["dataptr"]]
    assert all(0 < b <= READ_AHEAD + 4 for b in vlog)
    qs = query_results["filterkv"]
    aux_mb = sum(q.breakdown_bytes.get("aux", 0) for q in qs) / len(qs) / 1e6
    assert aux_mb > 0  # every FilterKV query reads the aux table
    benchmark(lambda: sum(q.bytes_read for q in qs))
