"""Epoch compaction: merge equivalence, manifest swap, adoption.

The invariant under test everywhere: compaction changes *where* bytes
live, never *what* a query answers.  Ground truth is always the
pre-compaction store's own newest-wins view.  What every read surface
answers after any sequence of merges, the refusal of a retired id and the
id watermark are checked after every step by
`tests/integration/test_store_machine.py`; these tests pin the rest: the
report's counts, validation, the policy's choice, telemetry, what a
merge adopts or writes, and the read amplification it bounds.
"""

import numpy as np
import pytest

from repro.core.compact import CompactionPolicy, Compactor
from repro.core.formats import FMT_BASE, FMT_DATAPTR, FMT_FILTERKV
from repro.core.kv import KVBatch, random_kv_batch
from repro.core.multiepoch import EpochRetiredError, MultiEpochStore
from repro.core.partitioning import HashPartitioner
from repro.obs import MetricsRegistry
from repro.obs.metrics import NULL_REGISTRY
from repro.storage.blockio import StorageDevice
from repro.storage.manifest import MANIFEST_PREFIX, Manifest

from ..reference.read import check_against_oracle

ALL_FORMATS = [FMT_BASE, FMT_DATAPTR, FMT_FILTERKV]
VB = 24


@pytest.fixture(params=ALL_FORMATS, ids=lambda f: f.name)
def fmt(request):
    return request.param


def _overlapping_epochs(store, nepochs=3, n=150, seed=11, overlap=0.4):
    """Write epochs where a slice of each dump rewrites earlier keys.

    Keys are unique *within* each epoch (one writer per key per dump), so
    the newest-wins ground truth ``{key: value}`` returned here is exactly
    the pre-compaction store's own cross-epoch view.
    """
    rng = np.random.default_rng(seed)
    truth: dict[int, bytes] = {}
    prev: np.ndarray | None = None
    for _ in range(nepochs):
        keys = np.unique(
            rng.integers(0, 2**63, size=n * store.nranks, dtype=np.uint64)
        )
        if prev is not None and overlap > 0:
            k = int(keys.size * overlap)
            keys[:k] = rng.choice(prev, size=k, replace=False)
            keys = np.unique(keys)
        rng.shuffle(keys)
        values = rng.integers(0, 256, size=(keys.size, VB), dtype=np.uint8)
        splits = np.array_split(np.arange(keys.size), store.nranks)
        store.write_epoch([KVBatch(keys[s], values[s]) for s in splits])
        prev = keys.copy()
        for key, value in zip(keys.tolist(), values):
            truth[int(key)] = bytes(value)
    return truth


def test_merge_serves_newest_wins_union(fmt):
    store = MultiEpochStore(nranks=4, fmt=fmt, value_bytes=VB)
    truth = _overlapping_epochs(store)
    sources = list(store.epochs)

    report = store.compact()

    assert store.epochs == [report.merged_epoch]
    assert report.source_epochs == sources
    assert report.records_out == len(truth)
    assert report.records_in > report.records_out  # overlap deduped
    for key, expected in truth.items():
        value, found, _ = store.lookup(key)
        assert value == expected
        assert found == report.merged_epoch
    miss, found, _ = store.lookup(1)  # random 63-bit keys: 1 is absent
    assert miss is None and found is None
    store.close()


def test_disjoint_epochs_merge_losslessly(fmt):
    store = MultiEpochStore(nranks=2, fmt=fmt, value_bytes=VB)
    truth = _overlapping_epochs(store, nepochs=2, overlap=0.0)
    report = store.compact()
    assert report.records_in == report.records_out == len(truth)
    for key, expected in list(truth.items())[:64]:
        assert store.lookup(key)[0] == expected
    store.close()


def test_non_adjacent_sources_are_rejected(fmt):
    """First-write-wins merging over a gap would shadow the live epoch
    sitting in it — the compactor refuses outright."""
    store = MultiEpochStore(nranks=2, fmt=fmt, value_bytes=VB)
    _overlapping_epochs(store, nepochs=3)
    with pytest.raises(ValueError, match="not adjacent"):
        store.compact([0, 2])
    store.close()


def test_merged_manifest_persists_and_attaches(fmt):
    store = MultiEpochStore(nranks=4, fmt=fmt, value_bytes=VB)
    truth = _overlapping_epochs(store)
    report = store.compact()
    store.close()

    reopened = MultiEpochStore.attach(store.device)
    assert reopened.epochs == [report.merged_epoch]
    assert reopened.manifest.next_epoch == report.merged_epoch + 1
    for src in report.source_epochs:
        assert reopened.resolve_epoch(src) == report.merged_epoch
    for key, expected in list(truth.items())[:64]:
        assert reopened.lookup(key)[0] == expected
    reopened.close()


def test_compaction_roundtrip_through_manifest_bytes(fmt):
    store = MultiEpochStore(nranks=2, fmt=fmt, value_bytes=VB)
    _overlapping_epochs(store, nepochs=2)
    store.compact()
    doc = Manifest.from_bytes(store.manifest.to_bytes())
    assert doc.next_epoch == store.manifest.next_epoch
    assert doc.compacted == store.manifest.compacted
    store.close()


def test_single_epoch_is_not_compactable(fmt):
    store = MultiEpochStore(nranks=2, fmt=fmt, value_bytes=VB)
    _overlapping_epochs(store, nepochs=1)
    assert store.compact() is None  # nothing to merge
    with pytest.raises(ValueError):
        Compactor(store).run([0])
    store.close()


def test_unknown_source_epoch_raises(fmt):
    store = MultiEpochStore(nranks=2, fmt=fmt, value_bytes=VB)
    _overlapping_epochs(store, nepochs=2)
    with pytest.raises(KeyError):
        store.compact([0, 7])
    store.close()


def test_empty_partitions_merge_cleanly(fmt):
    """Every rank owns a table in the merged epoch even when a rank's
    slice of the keyspace is empty."""
    store = MultiEpochStore(nranks=4, fmt=fmt, value_bytes=VB)
    rng = np.random.default_rng(3)
    for _ in range(2):
        batches = [
            random_kv_batch(8 if r == 0 else 0, VB, rng) for r in range(4)
        ]
        store.write_epoch(batches)
    report = store.compact()
    for rank in range(4):
        assert store.device.exists(f"part.{report.merged_epoch:03d}.{rank:06d}")
    store.close()


def test_policy_bounds_live_epoch_count(fmt):
    policy = CompactionPolicy(max_live_epochs=3, merge_factor=8)
    store = MultiEpochStore(nranks=2, fmt=fmt, value_bytes=VB, compaction=policy)
    rng = np.random.default_rng(7)
    truth = {}
    for _ in range(7):
        batches = [random_kv_batch(60, VB, rng) for _ in range(2)]
        store.write_epoch(batches)
        for b in batches:
            for i, k in enumerate(b.keys):
                truth[int(k)] = b.value_of(i)
        assert len(store.epochs) < 3 + 1  # the hook keeps the count bounded
    assert store.compactions >= 2
    for key, expected in list(truth.items())[:64]:
        assert store.lookup(key)[0] == expected
    store.close()


def _cold_cost(store, keys):
    """Mean (device reads, partitions searched) per cold `lookup`: fresh
    readers per probe, so the walk over live epochs is paid in full."""
    reads = searched = 0
    for key in keys:
        _, _, stats = store.lookup(int(key), cached=False)
        reads += stats.reads
        searched += stats.partitions_searched
    return reads / len(keys), searched / len(keys)


def test_compaction_bounds_cold_read_amplification_at_10x_growth(fmt):
    """Grown to 10x a single-epoch store, a store compacting after every
    commit keeps a cold lookup's mean device reads and partitions searched
    within 1.5x of the one-epoch store's, while its uncompacted twin walks
    strictly more.  Probes are drawn from the whole write history: keys
    written long ago are the ones that walk every epoch."""
    epochs, probes = 10, 96

    def grown(nepochs, compaction=None):
        store = MultiEpochStore(
            nranks=4, fmt=fmt, value_bytes=VB, seed=47, compaction=compaction
        )
        return store, _overlapping_epochs(store, nepochs, n=60, seed=47, overlap=0.3)

    base, base_truth = grown(1)
    compacted, truth = grown(
        epochs, CompactionPolicy(max_live_epochs=2, merge_factor=epochs + 1)
    )
    uncompacted, _ = grown(epochs)
    rng = np.random.default_rng(47)
    base_keys = rng.choice(np.fromiter(base_truth, dtype=np.uint64), probes, replace=False)
    keys = rng.choice(np.fromiter(truth, dtype=np.uint64), probes, replace=False)
    base_reads, base_parts = _cold_cost(base, base_keys)
    reads, parts = _cold_cost(compacted, keys)
    assert reads <= 1.5 * base_reads, (reads, base_reads)
    assert parts <= 1.5 * base_parts, (parts, base_parts)
    assert _cold_cost(uncompacted, keys)[0] > reads
    assert compacted.compactions >= epochs - 2
    for key in keys[:16].tolist():
        assert compacted.lookup(key, cached=False)[0] == truth[key]
    for store in (base, compacted, uncompacted):
        store.close()


def test_policy_merges_smallest_epochs_first():
    policy = CompactionPolicy(max_live_epochs=2, merge_factor=2)
    store = MultiEpochStore(nranks=2, fmt=FMT_BASE, value_bytes=VB)
    rng = np.random.default_rng(9)
    store.write_epoch([random_kv_batch(400, VB, rng) for _ in range(2)])  # big
    store.write_epoch([random_kv_batch(20, VB, rng) for _ in range(2)])  # small
    store.write_epoch([random_kv_batch(20, VB, rng) for _ in range(2)])  # small
    picked = policy.select(store.manifest)
    assert picked == [1, 2]
    store.close()


def test_policy_validates_parameters():
    with pytest.raises(ValueError):
        CompactionPolicy(max_live_epochs=1)
    with pytest.raises(ValueError):
        CompactionPolicy(merge_factor=1)


def test_compaction_emits_telemetry(fmt):
    from repro.obs import MetricsRegistry
    from repro.storage.blockio import StorageDevice

    device = StorageDevice(metrics=MetricsRegistry("compact-test"))
    store = MultiEpochStore(nranks=2, fmt=fmt, value_bytes=VB, device=device)
    _overlapping_epochs(store, nepochs=2)
    report = store.compact()
    reg = store.device.metrics
    assert reg.total("compaction.runs") == 1
    assert reg.total("compaction.epochs_retired") == 2
    assert reg.total("compaction.records_out") == report.records_out
    assert reg.total("compaction.bytes_reclaimed") == report.bytes_reclaimed
    assert reg.total("compaction.bytes_written") == report.bytes_written > 0
    assert reg.total("compaction.extents_adopted") == report.extents_adopted
    assert reg.total("compaction.bytes_adopted") == report.bytes_adopted
    assert (
        f"adopted {report.extents_adopted} of {report.extents_out} extent(s) "
        f"({report.bytes_adopted:,} bytes) from source epochs"
    ) in report.summary()
    store.close()


def test_compaction_leaves_only_listed_extents(fmt):
    """The merge leaves nothing of its own behind: after it, the device
    holds the extents the live epochs list, manifest generations and value
    logs, and nothing else."""
    store = MultiEpochStore(nranks=4, fmt=fmt, value_bytes=VB)
    _overlapping_epochs(store)
    store.compact()
    listed = {name for info in store.manifest.epochs for name in info.files}
    on_device = set(store.device.list_files())
    assert listed <= on_device
    assert all(n.startswith((MANIFEST_PREFIX, "vlog.")) for n in on_device - listed)
    store.close()


# -- adoption: a merge rewrites only what changed ---------------------------

NR, PER_RANK = 4, 120


def _write(store, keys_per_rank, rng):
    """One dump: rank ``r`` writes ``keys_per_rank[r]`` with fresh values."""
    store.write_epoch([
        KVBatch(keys, rng.integers(0, 256, size=(keys.size, VB), dtype=np.uint8))
        for keys in keys_per_rank
    ])


def _dumps(store, nepochs, rng):
    """``nepochs`` dumps in the paper's workflow (§V-B): every dump holds
    every key, each rank rewriting the keys it wrote the dump before.
    Returns the rank -> keys blocks."""
    blocks = rng.choice(1 << 62, size=(store.nranks, PER_RANK), replace=False)
    blocks = blocks.astype(np.uint64)
    for _ in range(nepochs):
        _write(store, list(blocks), rng)
    return blocks


def _listed(store, epoch):
    """The table and aux extents live epoch ``epoch`` lists."""
    info = next(e for e in store.manifest.epochs if e.epoch == epoch)
    return [n for n in info.files if n.startswith(("part.", "aux."))]


def _written_by(names, epoch):
    """The names among ``names`` that epoch ``epoch`` wrote itself."""
    return {n for n in names if int(n.split(".")[1]) == epoch}


def _probe_keys(blocks, *extra):
    absent = np.arange(1, 40, dtype=np.uint64)  # random 62-bit keys: all absent
    return np.concatenate([blocks.ravel(), np.asarray(extra, dtype=np.uint64), absent])


def _answers_as_the_oracle(store, keys):
    """Every live epoch answers ``keys`` as the per-key oracle of
    `tests/reference/read.py` does, through a handle-free and a warm
    view (the store's aux tables count into no registry)."""
    for epoch in store.epochs:
        for entries in (0, 4):
            engine = store.engine(epoch).warm(MetricsRegistry(), entries)
            check_against_oracle(engine, keys, NULL_REGISTRY)


def test_a_dump_of_every_key_is_adopted_whole(fmt):
    """Each rank rewrites every key it held: each output table is the
    newest source's table and each aux partition its aux extent, so the
    merged epoch lists those extents and the merge writes nothing but
    the manifest generation."""
    device = StorageDevice(metrics=MetricsRegistry("adopt"))
    store = MultiEpochStore(nranks=NR, fmt=fmt, value_bytes=VB, device=device)
    rng = np.random.default_rng(21)
    blocks = _dumps(store, 2, rng)
    _write(store, list(blocks), rng)
    newest = store.epochs[-1]
    newest_files = _listed(store, newest)
    keys = _probe_keys(blocks)
    before, _, _ = store.lookup_many(keys)

    io = device.counters.snapshot()
    report = store.compact()
    written = device.counters.delta(io).bytes_written

    generation = max(n for n in device.list_files() if n.startswith(MANIFEST_PREFIX))
    assert written == device.file_size(generation)
    assert report.bytes_written == device.metrics.total("compaction.bytes_written") == 0
    assert report.extents_adopted == report.extents_out == len(newest_files)
    assert device.metrics.total("compaction.extents_adopted") == report.extents_adopted
    assert device.metrics.total("compaction.bytes_adopted") == report.bytes_adopted
    assert report.extents_out == (2 * NR if fmt.name == "filterkv" else NR)
    assert report.bytes_adopted == sum(device.file_size(n) for n in newest_files)
    assert _listed(store, report.merged_epoch) == newest_files
    info = store.manifest.epochs[0]
    assert info.bytes == report.bytes_adopted
    assert f"adopted {report.extents_out} of {report.extents_out} extent(s)" in report.summary()
    assert store.lookup_many(keys)[0] == before
    _answers_as_the_oracle(store, keys)
    store.close()


def test_a_key_only_an_older_source_holds_forces_its_extents_written(fmt):
    """The oldest dump holds one key no later dump rewrites: the table
    it sits in (rank 0 for filterkv, its hash owner otherwise) and its
    owner's aux partition are written; every other extent is adopted."""
    store = MultiEpochStore(nranks=NR, fmt=fmt, value_bytes=VB)
    rng = np.random.default_rng(22)
    blocks = rng.choice(1 << 62, size=(NR, PER_RANK), replace=False).astype(np.uint64)
    extra = np.uint64(1 << 62)  # outside the blocks' range
    _write(store, [np.append(blocks[0], extra)] + list(blocks[1:]), rng)
    _write(store, list(blocks), rng)
    _write(store, list(blocks), rng)
    keys = _probe_keys(blocks, extra)
    before, _, _ = store.lookup_many(keys)

    report = store.compact()

    merged = report.merged_epoch
    owner = HashPartitioner(NR).partition_of_one(int(extra))
    expected = {f"part.{merged:03d}.{(0 if fmt.name == 'filterkv' else owner):06d}"}
    if fmt.name == "filterkv":
        expected.add(f"aux.{merged:03d}.{owner:06d}")
    listed = _listed(store, merged)
    assert _written_by(listed, merged) == expected
    assert report.extents_adopted == report.extents_out - len(expected) > 0
    assert report.bytes_written > 0
    assert store.lookup_many(keys)[0] == before
    assert before[NR * PER_RANK] is not None  # the old key survives
    _answers_as_the_oracle(store, keys)
    store.close()


def test_a_key_written_by_two_ranks_blocks_adopting_the_losing_copy(fmt):
    """In the newest dump rank 2 writes rank 1's first key again.  Rank
    1's copy wins (rank order), so the table holding rank 2's losing copy
    is written (filterkv: rank 2's; base/dataptr: the key's owner, where
    both copies land), as is filterkv's aux partition owning the key,
    whose source maps it twice; everything else is adopted."""
    store = MultiEpochStore(nranks=NR, fmt=fmt, value_bytes=VB)
    rng = np.random.default_rng(23)
    blocks = _dumps(store, 1, rng)
    dup = blocks[1][0]
    _write(store, [blocks[0], blocks[1], np.append(blocks[2], dup), blocks[3]], rng)
    keys = _probe_keys(blocks)
    before, _, _ = store.lookup_many(keys)

    report = store.compact()

    merged = report.merged_epoch
    owner = HashPartitioner(NR).partition_of_one(int(dup))
    expected = {f"part.{merged:03d}.{(2 if fmt.name == 'filterkv' else owner):06d}"}
    if fmt.name == "filterkv":
        expected.add(f"aux.{merged:03d}.{owner:06d}")
    assert _written_by(_listed(store, merged), merged) == expected
    assert report.extents_adopted == report.extents_out - len(expected)
    assert store.lookup_many(keys)[0] == before
    _answers_as_the_oracle(store, keys)
    store.close()


def test_chained_merges_readopt_an_adopted_extent(fmt):
    """A merge adopts the newest dump's extents; a later dump rewrites
    only the keys rank 0 wrote that partition 0 owns; the next merge
    writes rank 0's table (and filterkv's aux partition 0) and adopts
    every other extent again, under the first dump's names.  They survive
    the sweep and a deep recovery, and a reattached store answers as
    before."""
    device = StorageDevice()
    store = MultiEpochStore(nranks=NR, fmt=fmt, value_bytes=VB, device=device)
    rng = np.random.default_rng(24)
    blocks = _dumps(store, 2, rng)
    newest = store.epochs[-1]
    first = store.compact()
    assert _written_by(_listed(store, first.merged_epoch), first.merged_epoch) == set()
    partitioner = HashPartitioner(NR)
    mine = blocks[0][partitioner.partition_of(blocks[0]) == 0]
    assert mine.size
    empty = np.zeros(0, dtype=np.uint64)
    _write(store, [mine] + [empty] * (NR - 1), rng)
    keys = _probe_keys(blocks)
    before, _, _ = store.lookup_many(keys)

    second = store.compact()

    merged = second.merged_epoch
    listed = _listed(store, merged)
    expected = {f"part.{merged:03d}.000000"}
    if fmt.name == "filterkv":
        expected.add(f"aux.{merged:03d}.000000")
    assert _written_by(listed, merged) == expected
    readopted = set(listed) - expected
    assert readopted and all(int(n.split(".")[1]) == newest for n in readopted)
    assert second.extents_adopted == len(readopted)
    assert all(device.exists(n) for n in listed)
    assert store.lookup_many(keys)[0] == before
    _answers_as_the_oracle(store, keys)
    store.close()

    manifest, report = Manifest.recover(device, deep=True)
    assert report.quarantined_epochs == [] and report.orphans_removed == []
    assert manifest.epoch_ids == [merged]
    reopened = MultiEpochStore.attach(device)
    assert _listed(reopened, merged) == listed
    assert reopened.lookup_many(keys)[0] == before
    _answers_as_the_oracle(reopened, keys)
    reopened.close()


def test_a_retired_id_is_refused_though_its_extents_serve_the_merged_epoch(fmt):
    """The merged epoch serves the newest source's extents under that
    source's id, yet a read of the retired id is still refused, before
    and after a reattach."""
    store = MultiEpochStore(nranks=NR, fmt=fmt, value_bytes=VB)
    rng = np.random.default_rng(25)
    blocks = _dumps(store, 2, rng)
    newest = store.epochs[-1]
    key = int(blocks[0][0])
    report = store.compact()
    merged = report.merged_epoch
    assert all(int(n.split(".")[1]) == newest for n in _listed(store, merged))
    reopened = MultiEpochStore.attach(store.device)
    for s in (store, reopened):
        for read in (
            lambda: s.get(key, newest),
            lambda: s.get_many([key], newest),
            lambda: s.engine(newest),
            lambda: s.mount().engine(newest),
        ):
            with pytest.raises(EpochRetiredError) as info:
                read()
            assert (info.value.epoch, info.value.merged) == (newest, merged)
        assert s.get(key, merged)[0] is not None
    for s in (store, reopened):
        s.close()
