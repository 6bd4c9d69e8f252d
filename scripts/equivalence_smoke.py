"""Read-path equivalence smoke: scalar ``get`` vs batch ``get_many`` (run by CI).

Writes one seeded epoch per format, then answers a mixed present/absent
query set with the scalar loop (``engine.get`` per key) and the batch path
(``engine.get_many``), through the cold and the cached engine, and asserts
byte-identical values, identical per-key found/partitions_searched,
identical probe counters, and batch device reads no higher than the scalar
loop's.  (The write side — the columnar pipeline against a per-record
replay — is tier-1: ``tests/integration/test_ingest_reference.py``.)

Exit code 0 = equivalent; any assertion failure = the two read paths drifted.
"""

import sys

import numpy as np

from repro.cluster.simcluster import SimCluster
from repro.core.formats import FMT_BASE, FMT_DATAPTR, FMT_FILTERKV
from repro.core.reader import CachedQueryEngine
from repro.obs import MetricsRegistry

NRANKS = 8
RECORDS_PER_RANK = 2000
VALUE_BYTES = 56
SEED = 7


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
        cluster = SimCluster(
            nranks=NRANKS, fmt=fmt, value_bytes=VALUE_BYTES, seed=SEED,
            metrics=MetricsRegistry(),
        )
        cluster.run_epoch(RECORDS_PER_RANK)
        check_read_path(fmt, cluster)
    print("get vs get_many equivalence: ALL OK")


if __name__ == "__main__":
    sys.exit(main())
