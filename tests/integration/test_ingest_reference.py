"""`SimCluster`'s columnar ingest against the per-record replay.

One seeded epoch per format, written by the cluster and by
`tests/reference/ingest.py`: the counts, the wire bytes and every persisted
extent — tables, value logs and sealed aux blobs — must be identical.  Each
is sealed both ways: with the paper's cuckoo (`SimCluster`'s own seal,
tables with a Bloom block) and with a store's csf (filterkv main tables
without one).
"""

import pytest

from repro.cluster.simcluster import SimCluster
from repro.core.auxtable import STORE_AUX_BACKEND
from repro.core.formats import FMT_BASE, FMT_DATAPTR, FMT_FILTERKV
from repro.core.kv import KEY_BYTES
from repro.obs import MetricsRegistry

from ..reference.ingest import extents, replay_epoch

CONFIG = dict(
    nranks=4,
    value_bytes=40,
    seed=7,
    batch_bytes=1000,  # a multiple of no format's wire record: cuts at record bounds
    block_size=16384,  # several blocks of several key groups per table
)
RECORDS_PER_RANK = 1500
BATCH_RECORDS = 700  # batches that end mid-envelope
WIRE_RECORD_BYTES = {"base": KEY_BYTES + 40, "dataptr": KEY_BYTES + 8, "filterkv": KEY_BYTES}


FORMATS = pytest.mark.parametrize(
    "fmt", [FMT_BASE, FMT_DATAPTR, FMT_FILTERKV], ids=lambda f: f.name
)


@FORMATS
def test_epoch_is_byte_identical_to_the_per_record_replay(fmt):
    check_replay(fmt, "cuckoo")


@FORMATS
def test_a_store_sealed_epoch_is_byte_identical_to_the_per_record_replay(fmt):
    check_replay(fmt, STORE_AUX_BACKEND)


def check_replay(fmt, backend):
    cluster = SimCluster(fmt=fmt, metrics=MetricsRegistry(), aux_backend=backend, **CONFIG)
    stats = cluster.run_epoch(RECORDS_PER_RANK, batch_records=BATCH_RECORDS)
    ref = replay_epoch(
        fmt=fmt, records_per_rank=RECORDS_PER_RANK, batch_records=BATCH_RECORDS,
        aux_backend=backend, **CONFIG,
    )

    assert stats == ref.stats
    wire = cluster.metrics.total("pipeline.wire_bytes")
    assert wire == ref.wire_bytes == stats.records * WIRE_RECORD_BYTES[fmt.name]

    got, want = extents(cluster.device), extents(ref.device)
    assert sorted(got) == sorted(want)
    assert [name for name in want if got[name] != want[name]] == []
    kinds = {name.split(".")[0] for name in want}
    expected = {"base": {"part"}, "dataptr": {"part", "vlog"}, "filterkv": {"part", "aux"}}
    assert kinds == expected[fmt.name]
