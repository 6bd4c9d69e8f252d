"""Epoch compaction: merge equivalence, manifest swap, id monotonicity.

The invariant under test everywhere: compaction changes *where* bytes
live, never *what* a query answers.  Ground truth is always the
pre-compaction store's own newest-wins view.
"""

import numpy as np
import pytest

from repro.core.compact import CompactionPolicy, Compactor
from repro.core.formats import FMT_BASE, FMT_DATAPTR, FMT_FILTERKV
from repro.core.kv import KVBatch, random_kv_batch
from repro.core.multiepoch import MultiEpochStore
from repro.storage.manifest import Manifest

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


def test_merge_equivalence_bulk_and_cold_paths(fmt):
    store = MultiEpochStore(nranks=4, fmt=fmt, value_bytes=VB)
    truth = _overlapping_epochs(store)
    keys = np.fromiter(truth, dtype=np.uint64)
    before, _, _ = store.lookup_many(keys)

    store.compact()

    after, _, _ = store.lookup_many(keys)
    assert before == after == [truth[int(k)] for k in keys]
    # The cold path (fresh readers, no warm caches) agrees too.
    for k in keys[:32]:
        assert store.lookup(int(k), cached=False)[0] == truth[int(k)]
    store.close()


def test_disjoint_epochs_merge_losslessly(fmt):
    store = MultiEpochStore(nranks=2, fmt=fmt, value_bytes=VB)
    truth = _overlapping_epochs(store, nepochs=2, overlap=0.0)
    report = store.compact()
    assert report.records_in == report.records_out == len(truth)
    for key, expected in list(truth.items())[:64]:
        assert store.lookup(key)[0] == expected
    store.close()


def test_subset_compaction_leaves_other_epochs_alone(fmt):
    store = MultiEpochStore(nranks=4, fmt=fmt, value_bytes=VB)
    truth = _overlapping_epochs(store, nepochs=4)

    report = store.compact([0, 1])

    # The merged epoch holds the *oldest* data, so it sits at the back of
    # the recency walk despite carrying the highest id.
    assert store.epochs == [report.merged_epoch, 2, 3]
    assert report.merged_epoch == 4
    for key, expected in truth.items():
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


def test_second_generation_subset_compaction_keeps_recency(fmt):
    """A merged epoch participates in later merges at its *data* recency,
    not its id: compact [0,1] -> 4 (old data), then [4, 2] -> 5; epoch 3
    must still shadow everything."""
    store = MultiEpochStore(nranks=2, fmt=fmt, value_bytes=VB)
    truth = _overlapping_epochs(store, nepochs=4)
    before = {k: store.lookup(k)[0] for k in list(truth)[:128]}

    first = store.compact([0, 1])
    second = store.compact([first.merged_epoch, 2])

    assert store.epochs == [second.merged_epoch, 3]
    for key, expected in before.items():
        assert store.lookup(key)[0] == expected == truth[key]
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


def test_retired_epoch_ids_stay_addressable(fmt):
    store = MultiEpochStore(nranks=4, fmt=fmt, value_bytes=VB)
    truth = _overlapping_epochs(store)
    key = next(iter(truth))
    via_retired_before = store.get(key, 0)[0]
    report = store.compact()
    # The retired id forwards to the merged epoch's (newest-wins) view.
    assert store.resolve_epoch(0) == report.merged_epoch
    value, _ = store.get(key, 0)
    assert value == truth[key]
    assert via_retired_before is None or value is not None
    with pytest.raises(KeyError):
        store.resolve_epoch(999)
    store.close()


def test_epoch_ids_never_reused(fmt):
    """Satellite: the id watermark survives compaction, attach, and the
    next ingest — a retired id can never alias a fresh epoch."""
    store = MultiEpochStore(nranks=2, fmt=fmt, value_bytes=VB)
    _overlapping_epochs(store, nepochs=3)
    report = store.compact()
    assert report.merged_epoch == 3  # ids 0..2 were taken
    assert store.manifest.next_epoch == 4

    rng = np.random.default_rng(5)
    store.write_epoch([random_kv_batch(50, VB, rng) for _ in range(2)])
    assert store.epochs == [3, 4]

    store.close()
    reopened = MultiEpochStore.attach(store.device)
    assert reopened.manifest.next_epoch == 5
    rng = np.random.default_rng(6)
    reopened.write_epoch([random_kv_batch(50, VB, rng) for _ in range(2)])
    assert reopened.epochs == [3, 4, 5]

    # Second-generation compaction: mappings re-point transitively.
    second = reopened.compact()
    assert second.merged_epoch == 6
    assert reopened.resolve_epoch(0) == 6  # 0 -> 3 -> 6
    assert reopened.resolve_epoch(4) == 6
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
    store.close()


def test_compaction_is_handle_neutral(fmt):
    """The merge opens readers and writers but releases every one."""
    store = MultiEpochStore(nranks=4, fmt=fmt, value_bytes=VB)
    _overlapping_epochs(store)
    before = store.device.open_handles
    store.compact()
    assert store.device.open_handles == before
    store.close()
