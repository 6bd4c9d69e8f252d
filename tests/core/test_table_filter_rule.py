"""One filter per record: which tables carry a Bloom filter block.

`pipeline.table_bloom_bits` is the rule.  A store seals its filterkv
epochs csf first, and the csf guard (`csf_fp_bits`) is wide enough to be
the record's one filter, so the main tables a store writes — at seal and
in a merge — have no filter block.  Every other table keeps its
10 bits/key Bloom: base and dataptr have no aux, and `SimCluster`'s paper
epochs seal the 4-bit cuckoo.  A key that several ranks wrote in one epoch
maps to its lowest writer, so a store never seals anything but csf.
Epochs written before the rule (tables with a Bloom, a 2-bit csf guard) attach, read and
compact together with new ones, and a merge that adopts one of their
tables keeps its Bloom.
"""

import asyncio

import numpy as np
import pytest

from repro.cluster.simcluster import SimCluster
from repro.core import auxtable, pipeline
from repro.core.auxtable import csf_fp_bits
from repro.core.formats import FMT_BASE, FMT_DATAPTR, FMT_FILTERKV
from repro.core.kv import KVBatch, random_kv_batch
from repro.core.multiepoch import MultiEpochStore
from repro.serve import OK, QueryService
from repro.storage.sstable import TABLE_BLOOM_BITS, load_table_meta

from ..reference.read import ReadOracle

NRANKS = 4
VB = 24
PER_RANK = 300


def _blooms(store, epoch) -> list[bool]:
    """Per rank: whether the table epoch ``epoch`` reads carries a Bloom."""
    device = store.device
    return [
        load_table_meta(device, name).bloom is not None for name in store.engine(epoch).table_names
    ]


def _fp_bits(store, epoch) -> list[int | None]:
    """Per partition: the guard width of the epoch's csf aux (None: cuckoo)."""
    return [t.fp_bits if t.backend == "csf" else None for t in store.engine(epoch).aux_tables]


def _write(store, batches, truth):
    """Write one epoch; ``truth[epoch]`` is key -> the value a read returns
    (a key two ranks wrote: the lower rank's, the first the walk meets)."""
    epoch = store.manifest.next_epoch
    store.write_epoch(batches)
    answers = {}
    for batch in batches:
        for i, key in enumerate(batch.keys.tolist()):
            answers.setdefault(key, batch.value_of(i))
    truth[epoch] = answers
    return epoch


def _check(store, truth, absent):
    """Every live epoch answers its own keys byte-exact and absent keys
    None, and its cold engine answers as the per-key oracle does, down to
    the partitions each key searched."""
    for epoch in store.epochs:
        keys = sorted(truth[epoch]) + absent
        values, _ = store.get_many(np.asarray(keys, dtype=np.uint64), epoch)
        assert values == [truth[epoch].get(k) for k in keys], epoch
        engine, oracle = store.engine(epoch), ReadOracle(store.engine(epoch))
        values, stats = engine.get_many(np.asarray(keys[::3], dtype=np.uint64))
        answers = [oracle.answer(k) for k in keys[::3]]
        assert values == [a.value for a in answers]
        assert [s.partitions_searched for s in stats] == [a.partitions_searched for a in answers]


def _batches(rng, n=PER_RANK):
    return [random_kv_batch(n, VB, rng) for _ in range(NRANKS)]


def test_the_rule():
    assert pipeline.table_bloom_bits("filterkv", "csf") == 0.0
    assert pipeline.table_bloom_bits("filterkv", "cuckoo") == TABLE_BLOOM_BITS
    for fmt in ("base", "dataptr"):
        assert pipeline.table_bloom_bits(fmt, "csf") == TABLE_BLOOM_BITS


def test_the_guard_refutes_at_least_as_often_as_the_narrow_guard_and_the_bloom():
    """1/(2^fp - 1) <= fpr(10 bits/key) / (2^narrow - 1) at every width, and
    9 bits (1/511) at the e2e workloads' N = 16."""
    from repro.filters.bloom import false_positive_rate

    assert csf_fp_bits(16) == 9
    fpr = false_positive_rate(TABLE_BLOOM_BITS)
    for nparts in (2, 4, 16, 64, 256, 4096):
        narrow = max(1, int(auxtable.bloom_bits_per_key(nparts) / 1.23) - auxtable.rank_bits(nparts))
        assert 1 / ((1 << csf_fp_bits(nparts)) - 1) <= fpr / ((1 << narrow) - 1), nparts


def test_store_tables_carry_no_filter_at_seal_or_merge():
    rng = np.random.default_rng(3)
    store = MultiEpochStore(nranks=NRANKS, fmt=FMT_FILTERKV, value_bytes=VB, seed=3)
    truth = {}
    batches = _batches(rng)
    first = _write(store, batches, truth)
    # The second epoch rewrites half of every rank's keys: no source table's
    # rows all win, so the merge writes every output table.
    again = [
        KVBatch(np.concatenate([b.keys[::2], new.keys]), np.concatenate([new.values, new.values]))
        for b, new in zip(batches, _batches(rng, PER_RANK // 2))
    ]
    _write(store, again, truth)
    for epoch in store.epochs:
        assert _blooms(store, epoch) == [False] * NRANKS
        assert _fp_bits(store, epoch) == [csf_fp_bits(NRANKS)] * NRANKS
    absent = [int(k) + 1 for k in sorted(truth[first])[:50]]
    _check(store, truth, absent)
    report = store.compact()
    assert report.extents_adopted == 0  # every table and aux partition written
    (merged,) = store.epochs
    assert _blooms(store, merged) == [False] * NRANKS
    merged_truth = {**truth[first], **truth[first + 1]}
    values, _ = store.get_many(np.asarray(sorted(merged_truth), dtype=np.uint64), merged)
    assert values == [merged_truth[k] for k in sorted(merged_truth)]


@pytest.mark.parametrize("fmt", [FMT_BASE, FMT_DATAPTR], ids=lambda f: f.name)
def test_tables_without_aux_keep_their_filter(fmt):
    rng = np.random.default_rng(5)
    store = MultiEpochStore(nranks=NRANKS, fmt=fmt, value_bytes=VB, seed=5)
    for _ in range(2):
        store.write_epoch(_batches(rng))
    store.compact()
    (merged,) = store.epochs
    assert _blooms(store, merged) == [True] * NRANKS


@pytest.mark.parametrize("fmt", [FMT_BASE, FMT_DATAPTR, FMT_FILTERKV], ids=lambda f: f.name)
def test_simcluster_tables_keep_their_filter(fmt):
    """The paper's epochs (Fig. 7-11) seal the 4-bit cuckoo: every table
    keeps the Bloom the figures count."""
    cluster = SimCluster(nranks=NRANKS, fmt=fmt, value_bytes=VB, seed=7)
    cluster.run_epoch(PER_RANK)
    engine = cluster.query_engine()
    for name in engine.table_names:
        assert load_table_meta(cluster.device, name).bloom is not None


def _written_again(batches, rng, key, ranks):
    """``batches`` with ``key`` appended to each of ``ranks``' batches,
    each time with a fresh value."""
    out = list(batches)
    for rank in ranks:
        again = random_kv_batch(1, VB, rng)
        out[rank] = KVBatch(
            np.concatenate([out[rank].keys, np.asarray([key], dtype=np.uint64)]),
            np.concatenate([out[rank].values, again.values]),
        )
    return out


def _check_lowest_writer(store, epoch, want):
    """Each key of ``want`` (key -> (lowest writer rank, its value))
    answers that value from that one partition: through the cold engine
    and the per-key oracle, a mount, and a `QueryService` burst."""
    keys = np.asarray(sorted(want), dtype=np.uint64)
    expect = [want[int(k)][1] for k in keys]
    engine = store.engine(epoch)
    owner = engine.partitioner.partition_of(keys)
    for k, part in zip(keys.tolist(), owner.tolist()):
        assert engine.aux_tables[part].candidate_ranks(k).tolist() == [want[k][0]]
    values, stats = engine.get_many(keys)
    answers = [ReadOracle(engine).answer(k) for k in keys.tolist()]
    assert values == [a.value for a in answers] == expect
    assert [s.partitions_searched for s in stats] == [a.partitions_searched for a in answers]
    assert [s.partitions_searched for s in stats] == [1] * keys.size
    mount = store.mount()
    assert mount.get_many(keys, epoch)[0] == expect
    mount.close()

    async def served():
        async with QueryService(store) as svc:
            return await svc.get_burst([(int(k), epoch, None, None) for k in keys])

    assert [(r.status, r.value) for r in asyncio.run(served())] == [(OK, v) for v in expect]


def test_a_key_two_or_three_ranks_wrote_maps_to_its_lowest_writer():
    """In one epoch rank 3 writes one of rank 0's keys again, and ranks 1
    and 2 one of rank 3's, each with another value: every partition still
    seals csf over tables without a Bloom, and each such key maps to its
    lowest writer, whose value the reader's ascending walk returns, from
    one partition.  It answers alike after `attach` and in the merged
    epoch, whose merge keeps that writer's row."""
    rng = np.random.default_rng(9)
    store = MultiEpochStore(nranks=NRANKS, fmt=FMT_FILTERKV, value_bytes=VB, seed=9)
    truth = {}
    batches = _batches(rng)
    twice, thrice = int(batches[0].keys[0]), int(batches[3].keys[0])
    batches = _written_again(_written_again(batches, rng, twice, [3]), rng, thrice, [1, 2])
    epoch = _write(store, batches, truth)
    assert [t.backend for t in store.engine(epoch).aux_tables] == ["csf"] * NRANKS
    assert _blooms(store, epoch) == [False] * NRANKS
    want = {twice: (0, truth[epoch][twice]), thrice: (1, truth[epoch][thrice])}
    assert want[twice][1] == batches[0].value_of(0)
    assert want[thrice][1] == batches[1].value_of(len(batches[1]) - 1)
    absent = [int(k) + 1 for k in sorted(truth[epoch])[:200]]
    _check(store, truth, absent)
    _check_lowest_writer(store, epoch, want)

    store = MultiEpochStore.attach(store.device)
    _check(store, truth, absent)
    _check_lowest_writer(store, epoch, want)

    later = _write(store, _batches(rng), truth)
    store.compact()
    (merged,) = store.epochs
    truth[merged] = {**truth[epoch], **truth[later]}
    assert [t.backend for t in store.engine(merged).aux_tables] == ["csf"] * NRANKS
    _check(store, truth, absent)
    _check_lowest_writer(store, merged, want)


def test_old_layout_epochs_attach_read_and_compact_with_new_ones(monkeypatch):
    """Epochs written the way stores wrote them before the rule — tables
    with a 10 bits/key Bloom, a 2-bit csf guard — live beside new ones."""
    rng = np.random.default_rng(11)
    store = MultiEpochStore(nranks=NRANKS, fmt=FMT_FILTERKV, value_bytes=VB, seed=11)
    truth = {}
    with monkeypatch.context() as old:
        old.setattr(pipeline, "table_bloom_bits", lambda fmt, backend: TABLE_BLOOM_BITS)
        old.setattr(auxtable, "csf_fp_bits", lambda nparts: 2)
        olds = [_write(store, _batches(rng), truth) for _ in range(2)]
    # New epochs leave rank 0 empty, so the newest old epoch's rank-0 table
    # is that rank's one contributor, and the merge adopts it.
    news = []
    for _ in range(2):
        batches = _batches(rng)
        batches[0] = KVBatch(np.zeros(0, dtype=np.uint64), np.zeros((0, VB), dtype=np.uint8))
        news.append(_write(store, batches, truth))

    store = MultiEpochStore.attach(store.device)  # aux tables reload from their blobs
    for epoch in olds:
        assert _blooms(store, epoch) == [True] * NRANKS
        assert _fp_bits(store, epoch) == [2] * NRANKS  # from each blob's header
    for epoch in news:
        assert _blooms(store, epoch) == [False] * NRANKS
        assert _fp_bits(store, epoch) == [csf_fp_bits(NRANKS)] * NRANKS
    absent = [int(k) + 1 for k in sorted(truth[olds[0]])[:100]]
    _check(store, truth, absent)

    report = store.compact(olds[1:] + news)
    (kept, merged) = store.epochs
    assert kept == olds[0]
    adopted_table = f"part.{olds[1]:03d}.000000"
    names = store.engine(merged).table_names
    assert names[0] == adopted_table and report.extents_adopted >= 1
    assert _blooms(store, merged) == [True] + [False] * (NRANKS - 1)
    assert _fp_bits(store, merged) == [csf_fp_bits(NRANKS)] * NRANKS  # every partition rebuilt
    newest = {}
    for epoch in sorted(olds[1:] + news, reverse=True):  # newest data first wins
        for key, value in truth[epoch].items():
            newest.setdefault(key, value)
    truth[merged] = newest
    _check(store, truth, absent)
    store.compact()
    (final,) = store.epochs
    truth[final] = {**truth[olds[0]], **newest}
    _check(store, truth, absent)
