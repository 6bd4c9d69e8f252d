"""`SimCluster`'s columnar ingest against the per-record replay.

One seeded epoch per format, written by the cluster and by
`tests/reference/ingest.py`: the counts, the wire bytes and every persisted
extent — tables, value logs and sealed aux blobs — must be identical.  Each
is sealed both ways: with the paper's cuckoo (`SimCluster`'s own seal,
tables with a Bloom block) and with a store's csf (filterkv main tables
without one).  A hypothesis property then draws the epoch itself —
format, backend, rank count, batch budget (below a record's width too),
puts that end mid-envelope in an interleaved rank order, direct or 3-hop
routing — and holds the cluster's one-pass shuffle to the replay's
counts, per-rank `pipeline.*` series and extents; its ``_full`` twin is
the slow profile.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.simcluster import SimCluster
from repro.core.auxtable import STORE_AUX_BACKEND
from repro.core.formats import FMT_BASE, FMT_DATAPTR, FMT_FILTERKV
from repro.core.kv import KEY_BYTES, KVBatch
from repro.obs import MetricsRegistry

from ..reference.ingest import SERIES, extents, replay_epoch

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


# -- the shuffle pass against the per-record replay, drawn ---------------------

BACKENDS = ["cuckoo", STORE_AUX_BACKEND]


@st.composite
def epochs(draw):
    """One epoch's configuration and its puts, in an interleaved rank order."""
    fmt = draw(st.sampled_from([FMT_BASE, FMT_DATAPTR, FMT_FILTERKV]))
    value_bytes = draw(st.sampled_from([4, 40, 60]))
    rec = int(fmt.shuffle_bytes_per_record(value_bytes, 0))  # wire record bytes
    routing = draw(st.sampled_from(["direct", "3hop"]))
    floor = 64 if routing == "3hop" else 1  # `ThreeHopRouter`'s least batch
    below = st.integers(floor, rec - 1) if rec > floor else st.nothing()
    batch_bytes = draw(st.one_of(below, st.integers(max(floor, rec), 12 * rec)))
    nranks = draw(st.integers(2, 9))
    sizes = st.integers(0, 3 * max(1, batch_bytes // rec) + 2)  # ends mid-envelope
    plan = draw(st.lists(st.tuples(st.integers(0, nranks - 1), sizes), max_size=3 * nranks))
    return dict(
        fmt=fmt, value_bytes=value_bytes, routing=routing, batch_bytes=batch_bytes,
        nranks=nranks, plan=plan, ppn=draw(st.integers(1, 4)),
        aux_backend=draw(st.sampled_from(BACKENDS)), seed=draw(st.integers(0, 2**16)),
        key_space=draw(st.sampled_from([2**63, 64])),  # 64: keys repeat within and across ranks
    )


def check_drawn_epoch(epoch):
    config = dict(epoch)
    plan, key_space = config.pop("plan"), config.pop("key_space")
    rng = np.random.default_rng(config["seed"])
    puts = [
        (rank, KVBatch(
            rng.integers(0, key_space, size=n, dtype=np.uint64),
            rng.integers(0, 256, size=(n, config["value_bytes"]), dtype=np.uint8),
        ))
        for rank, n in plan
    ]
    cluster = SimCluster(metrics=MetricsRegistry(), block_size=4096, **config)
    for rank, batch in puts:
        cluster.put(rank, batch)
    cluster.finish_epoch()
    ref = replay_epoch(puts=puts, block_size=4096, **config)

    assert cluster.stats == ref.stats
    got = {
        (name, int(dict(labels)["rank"])): inst.value
        for name, labels, inst in cluster.metrics.series()
        if name in SERIES
    }
    assert got == ref.series
    assert extents(cluster.device) == extents(ref.device)


test_drawn_epoch_matches_the_per_record_replay = settings(max_examples=40, deadline=None)(
    given(epochs())(check_drawn_epoch)
)
test_drawn_epoch_matches_the_per_record_replay_full = pytest.mark.slow(
    settings(max_examples=600, deadline=None)(given(epochs())(check_drawn_epoch))
)
