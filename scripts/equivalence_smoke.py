"""Bulk-vs-scalar pipeline *and read-path* equivalence smoke (run by CI).

Write side: runs one epoch per format with the vectorized pipeline
(``bulk=True``) and the per-record reference (``bulk=False``) from the
same seed and asserts they are indistinguishable:

* identical ClusterStats (records, messages, shuffled/stored bytes),
* byte-identical persisted extents — tables, value logs, spilled runs,
  and aux-table blobs alike,
* identical wire-byte counters, matching the formats' exact per-record
  wire widths (base 8+V, dataptr 16, filterkv 8 bytes/record).

Read side: over the bulk-written epoch, answers a mixed present/absent
query set with the scalar loop (``engine.get`` per key) and the batch
path (``engine.get_many``) and asserts byte-identical values, identical
per-key found/partitions_searched, identical probe counters, and batch
device reads no higher than the scalar loop's.

Exit code 0 = equivalent; any assertion failure = a bulk path drifted.
"""

import dataclasses
import sys

import numpy as np

from repro.cluster.simcluster import SimCluster
from repro.core.formats import FMT_BASE, FMT_DATAPTR, FMT_FILTERKV
from repro.core.kv import KEY_BYTES
from repro.core.pipeline import aux_table_name
from repro.core.reader import CachedQueryEngine
from repro.obs import MetricsRegistry

NRANKS = 8
RECORDS_PER_RANK = 2000
VALUE_BYTES = 56
SEED = 7


def extents(device):
    out = {}
    for name in sorted(device._files):
        f = device.open(name)
        out[name] = f.read(0, f.size)
    return out


def run(fmt, spill, bulk):
    cluster = SimCluster(
        nranks=NRANKS,
        fmt=fmt,
        value_bytes=VALUE_BYTES,
        seed=SEED,
        spill_budget_bytes=spill,
        bulk=bulk,
        metrics=MetricsRegistry(),
    )
    stats = cluster.run_epoch(RECORDS_PER_RANK)
    return cluster, stats


def wire_bytes_per_record(fmt):
    if fmt.name == "base":
        return KEY_BYTES + VALUE_BYTES
    if fmt.name == "dataptr":
        return KEY_BYTES + 8
    return KEY_BYTES


READ_COUNTERS = (
    "reader.queries",
    "reader.hits",
    "reader.partitions_probed",
    "reader.candidates",
    "aux.probes",
    "aux.candidates",
)


def reader_engine(cluster, cached, metrics):
    cold = cluster.query_engine()
    cls = CachedQueryEngine if cached else type(cold)
    return cls(
        device=cold.device,
        fmt=cold.fmt,
        nranks=cold.nranks,
        partitioner=cold.partitioner,
        aux_tables=cold.aux_tables,
        epoch=cold.epoch,
        metrics=metrics,
    )


def check_read_path(fmt, cluster):
    """Scalar get loop vs get_many over the same mixed query set."""
    rng = np.random.default_rng(SEED + 1)
    stored = np.concatenate(
        [np.asarray(kv, dtype=np.uint64) for kv in _stored_keys(cluster)]
    )
    present = rng.choice(stored, size=600, replace=True)
    absent = rng.integers(1 << 48, 1 << 49, size=80, dtype=np.uint64)
    keys = np.concatenate([present, absent])
    rng.shuffle(keys)
    for cached in (False, True):
        m_s, m_b = MetricsRegistry(), MetricsRegistry()
        scalar = reader_engine(cluster, cached, m_s)
        bulk = reader_engine(cluster, cached, m_b)
        dev = cluster.device
        before = dev.counters.snapshot()
        s_out = [scalar.get(int(k)) for k in keys]
        s_io = dev.counters.delta(before)
        before = dev.counters.snapshot()
        b_vals, b_stats = bulk.get_many(keys)
        b_io = dev.counters.delta(before)
        scalar.close()
        bulk.close()
        assert b_vals == [v for v, _ in s_out], (fmt.name, cached, "values")
        assert [s.found for s in b_stats] == [s.found for _, s in s_out]
        assert [s.partitions_searched for s in b_stats] == [
            s.partitions_searched for _, s in s_out
        ], (fmt.name, cached)
        for name in READ_COUNTERS:
            assert m_b.total(name) == m_s.total(name), (fmt.name, cached, name)
        assert b_io.reads <= s_io.reads, (fmt.name, cached, b_io.reads, s_io.reads)
        label = "cached" if cached else "cold"
        print(
            f"{fmt.name:10s} read/{label}: OK ({len(keys)} queries, "
            f"reads {s_io.reads} -> {b_io.reads})"
        )


def _stored_keys(cluster):
    for rank in range(cluster.nranks):
        from repro.core.pipeline import main_table_name
        from repro.storage.sstable import SSTableReader

        with SSTableReader(cluster.device, main_table_name(0, rank)) as r:
            yield [k for k, _ in r.scan()]


def main():
    for fmt in (FMT_BASE, FMT_DATAPTR, FMT_FILTERKV):
        for spill in (None, 4096):
            if spill is not None and fmt.name != "filterkv":
                continue  # only the filterkv writer buffers KVs locally
            (cb, sb), (cs, ss) = run(fmt, spill, True), run(fmt, spill, False)

            db, ds = dataclasses.asdict(sb), dataclasses.asdict(ss)
            for k in db:
                assert db[k] == ds[k], (fmt.name, spill, k, db[k], ds[k])

            eb, es = extents(cb.device), extents(cs.device)
            assert eb.keys() == es.keys(), (fmt.name, spill)
            bad = [n for n in eb if eb[n] != es[n]]
            assert not bad, (fmt.name, spill, bad)
            if fmt.name == "filterkv":
                # Both arms build aux tables at seal from the same mapping
                # set: every partition's sealed blob is among the extents
                # just compared byte for byte.
                assert all(aux_table_name(0, r) in eb for r in range(NRANKS)), spill

            expected = sb.records * wire_bytes_per_record(fmt)
            wb = cb.metrics.total("pipeline.wire_bytes")
            ws = cs.metrics.total("pipeline.wire_bytes")
            assert wb == ws == expected, (fmt.name, spill, wb, ws, expected)

            print(f"{fmt.name:10s} spill={spill}: OK "
                  f"({sb.records} records, {int(wb)} wire bytes)")
            if spill is None:
                check_read_path(fmt, cb)
    print("bulk-vs-scalar equivalence: ALL OK")


if __name__ == "__main__":
    sys.exit(main())
