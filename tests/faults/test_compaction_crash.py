"""Crash consistency for online compaction — the atomic-swap contract.

A compaction interrupted at *any* point must leave the dataset in exactly
one of two states after recovery:

* **pre-compaction** — every source epoch still live and byte-correct,
  with the partial merge output swept as orphans; or
* **post-compaction** — the merged epoch live, sources gone, answers
  byte-identical to the pre-compaction view.

Never anything in between: no torn manifest interpreted, no half-merged
epoch served, no extent missing while an epoch that lists it is live.
Targeted trials pin the crash to each phase of the run (merge writes, aux
seal, manifest swap); the seeded sweep scatters crashes across random
device-op offsets, `FAULT_SEED_OFFSET` widening the window in CI.

The adopting variant rewrites every key on the same rank in each dump,
so the merge adopts every source extent and writes only the manifest:
the merged epoch then lists extents named for a retired source.  Its
crashes land before the swap, between the swap and the sweep, mid-sweep,
and at the seeded offsets.
"""

import os

import numpy as np
import pytest

from repro.core.formats import FMT_BASE, FMT_DATAPTR, FMT_FILTERKV
from repro.core.kv import KVBatch
from repro.core.multiepoch import MultiEpochStore
from repro.faults import CrashPoint, FaultPlan, FaultSpec, FaultyStorageDevice
from repro.obs import MetricsRegistry

ALL_FORMATS = [FMT_BASE, FMT_DATAPTR, FMT_FILTERKV]
NRANKS = 2
RECORDS = 50  # per rank per epoch
EPOCHS = 3
VALUE_BYTES = 16
SEED_OFFSET = int(os.environ.get("FAULT_SEED_OFFSET", "0"))


@pytest.fixture(params=ALL_FORMATS, ids=lambda f: f.name)
def fmt(request):
    return request.param


def _build(fmt, seed, adopting=False):
    """A committed multi-epoch dataset on a faulty device (no faults armed
    yet).  Returns ``(store, device, truth)`` with newest-wins truth.
    ``adopting``: every dump rewrites the first dump's keys on the same
    ranks, with new values."""
    device = FaultyStorageDevice(FaultPlan(seed=seed))
    store = MultiEpochStore(
        nranks=NRANKS, fmt=fmt, value_bytes=VALUE_BYTES, device=device, seed=seed
    )
    rng = np.random.default_rng(seed)
    truth: dict[int, bytes] = {}
    prev = None
    for _ in range(EPOCHS):
        if adopting and prev is not None:  # every key again, on the same rank
            keys = prev
        else:
            keys = np.unique(
                rng.integers(0, 2**63, size=RECORDS * NRANKS, dtype=np.uint64)
            )
            if prev is not None:  # a third of each dump rewrites older keys
                k = keys.size // 3
                keys[:k] = rng.choice(prev, size=k, replace=False)
                keys = np.unique(keys)
            rng.shuffle(keys)
        values = rng.integers(0, 256, size=(keys.size, VALUE_BYTES), dtype=np.uint8)
        splits = np.array_split(np.arange(keys.size), NRANKS)
        store.write_epoch([KVBatch(keys[s], values[s]) for s in splits])
        prev = keys.copy()
        for key, value in zip(keys.tolist(), values):
            truth[int(key)] = bytes(value)
    return store, device, truth


def _assert_pre_or_post(device, truth, sources, merged, metrics=None):
    """Recover and enforce the all-or-nothing contract; returns the
    recovered store (in whichever of the two states survived)."""
    recovered, report = MultiEpochStore.recover(device, metrics=metrics)
    assert recovered is not None, "a compaction crash lost the committed dataset"
    listed = [n for info in recovered.manifest.epochs for n in info.files]
    missing = [n for n in listed if not device.exists(n)]
    assert not missing, f"recovered epochs list missing extents: {missing}"
    live = recovered.epochs
    if merged in live:
        assert live == [merged], f"merged epoch coexists with sources: {live}"
        for src in sources:
            assert recovered.resolve_epoch(src) == merged
    else:
        assert live == sources, f"neither pre nor post compaction state: {live}"
        # The interrupted merge's output is gone — recovery swept it.
        leftovers = [
            n
            for n in device.list_files()
            if n.startswith((f"part.{merged:03d}.", f"aux.{merged:03d}."))
        ]
        assert not leftovers, f"partial merge output survived: {leftovers}"
    # Either way, every answer is byte-identical to the pre-crash view.
    keys = sorted(truth)
    for k in keys[:: max(1, len(keys) // 32)]:
        value, _, _ = recovered.lookup(k)
        assert value == truth[k], f"key {k} wrong after crashed compaction"
    recovered.close()
    return recovered


def _crashed_compaction_trial(fmt, seed, arm, adopting=False):
    """One deterministic trial: build, arm a fault via ``arm(device,
    merged)``, compact (maybe crashing), recover, check the contract,
    then prove the dataset is still compactable."""
    store, device, truth = _build(fmt, seed, adopting)
    sources = list(store.epochs)
    merged = store.manifest.next_epoch
    crashed = arm(device, merged)
    try:
        store.compact()
        crashed = False
    except CrashPoint:
        pass
    store.close()
    # Disarm unfired faults so recovery and re-compaction run fault-free.
    device.plan.specs = [s for s in device.plan.specs if s.fired]
    recovered = _assert_pre_or_post(device, truth, sources, merged)
    if adopting and merged in recovered.epochs:
        _assert_adopted(recovered, sources)
    if recovered.epochs != [merged]:
        # Pre-state: the dataset must accept a clean retry.
        retry = MultiEpochStore.attach(device)
        report = retry.compact()
        assert report is not None and retry.epochs == [report.merged_epoch]
        for k in sorted(truth)[:: max(1, len(truth) // 16)]:
            assert retry.lookup(k)[0] == truth[k]
        retry.close()
    return crashed


# -- targeted crash points -------------------------------------------------


def test_crash_mid_merge_write(fmt):
    """Crash on the first append to the merged epoch's own tables."""
    crashed = _crashed_compaction_trial(
        fmt,
        SEED_OFFSET + 1,
        lambda device, merged: device.plan.crash_at(0, pattern=f"part.{merged:03d}.*")
        or True,
    )
    assert crashed, "the merge never touched the merged epoch's tables"


def test_crash_mid_aux_seal():
    """FilterKV only: crash while sealing the rebuilt aux blobs."""
    crashed = _crashed_compaction_trial(
        FMT_FILTERKV,
        SEED_OFFSET + 2,
        lambda device, merged: device.plan.crash_at(0, pattern=f"aux.{merged:03d}.*")
        or True,
    )
    assert crashed, "the merge never sealed an aux blob"


def test_crash_on_manifest_swap(fmt):
    """Crash on the swap itself: the old generation must win."""
    store, device, truth = _build(fmt, SEED_OFFSET + 3)
    sources = list(store.epochs)
    merged = store.manifest.next_epoch
    device.plan.crash_at(0, pattern="MANIFEST.*")
    with pytest.raises(CrashPoint):
        store.compact()
    store.close()
    device.plan.specs = [s for s in device.plan.specs if s.fired]
    recovered = _assert_pre_or_post(device, truth, sources, merged)
    assert recovered.epochs == sources, "a crashed swap must revert to the sources"


def test_torn_manifest_swap_reverts(fmt):
    """The swap append itself tears mid-write: the sealed-envelope check
    must discard it and the previous generation must win."""
    store, device, truth = _build(fmt, SEED_OFFSET + 4)
    sources = list(store.epochs)
    merged = store.manifest.next_epoch
    device.plan.add(FaultSpec("torn_append", op=0, pattern="MANIFEST.*", arg=0.5))
    with pytest.raises(CrashPoint):
        store.compact()
    store.close()
    device.plan.specs = [s for s in device.plan.specs if s.fired]
    recovered = _assert_pre_or_post(device, truth, sources, merged)
    assert recovered.epochs == sources


# -- seeded random sweep ---------------------------------------------------


@pytest.mark.parametrize(
    "nseeds",
    [
        6,
        pytest.param(40, marks=pytest.mark.slow),
    ],
    ids=["quick-6", "sweep-40"],
)
def test_compaction_crash_sweep(fmt, nseeds):
    """Crashes scattered across random charged-op offsets of the run."""
    metrics = MetricsRegistry()
    crashed_any = completed_any = False
    for seed in range(SEED_OFFSET + 10, SEED_OFFSET + 10 + nseeds):
        rng = np.random.default_rng(seed ^ 0xFACE)

        def arm(device, merged, rng=rng):
            device.plan.crash_at(device.op_index + int(rng.integers(1, 300)))
            return True

        crashed = _crashed_compaction_trial(fmt, seed, arm)
        crashed_any |= crashed
        completed_any |= not crashed
    # Both outcomes must appear across the window for real coverage; the
    # quick run asserts the weaker property (every trial consistent).
    if nseeds >= 40:
        assert crashed_any, "no sweep trial crashed inside the compaction"
        assert completed_any, "every sweep trial crashed before completing"


# -- the adopting variant ----------------------------------------------------


def _assert_adopted(recovered, sources):
    """The merged epoch lists the newest source's extents, not copies."""
    newest = max(sources)
    files = [n for n in recovered.manifest.epochs[0].files if n.startswith(("part.", "aux."))]
    assert files and all(int(n.split(".")[1]) == newest for n in files), files


def _crash_on_delete(device, nth):
    """Crash the device at its ``nth`` delete of a table or aux extent.
    Deletes are not charged operations, so no `FaultPlan` spec reaches the
    sweep; this wrapper does, and the test removes it before recovery."""
    real, seen = device.delete, [0]

    def delete(name):
        if name.startswith(("part.", "aux.")):
            if seen[0] == nth:
                device.crashed = True
                raise CrashPoint(f"crash before deleting {name!r}")
            seen[0] += 1
        real(name)

    device.delete = delete


def test_adopting_crash_before_swap(fmt):
    """The adopting merge writes nothing before the swap: a crash on the
    swap append reverts to the sources, all still listed and present."""
    crashed = _crashed_compaction_trial(
        fmt,
        SEED_OFFSET + 5,
        lambda device, merged: device.plan.crash_at(0, pattern="MANIFEST.*") or True,
        adopting=True,
    )
    assert crashed


@pytest.mark.parametrize("nth", [0, 2], ids=["between-swap-and-sweep", "mid-sweep"])
def test_adopting_crash_after_swap(fmt, nth):
    """The swap landed, the sweep of the sources' dead extents did not
    finish: recovery keeps the merged epoch and the source extents it
    adopted, and sweeps the rest."""
    store, device, truth = _build(fmt, SEED_OFFSET + 6, adopting=True)
    sources, merged = list(store.epochs), store.manifest.next_epoch
    _crash_on_delete(device, nth)
    with pytest.raises(CrashPoint):
        store.compact()
    store.close()
    vars(device).pop("delete")
    recovered = _assert_pre_or_post(device, truth, sources, merged)
    assert recovered.epochs == [merged], "a landed swap must survive recovery"
    _assert_adopted(recovered, sources)


@pytest.mark.parametrize(
    "nseeds",
    [
        6,
        pytest.param(40, marks=pytest.mark.slow),
    ],
    ids=["quick-6", "sweep-40"],
)
def test_adopting_compaction_crash_sweep(fmt, nseeds):
    """Crashes scattered across the adopting merge's charged ops (its
    source reads and the swap append)."""
    crashed_any = completed_any = False
    for seed in range(SEED_OFFSET + 60, SEED_OFFSET + 60 + nseeds):
        rng = np.random.default_rng(seed ^ 0xADE)

        def arm(device, merged, rng=rng):
            device.plan.crash_at(device.op_index + int(rng.integers(1, 40)))
            return True

        crashed = _crashed_compaction_trial(fmt, seed, arm, adopting=True)
        crashed_any |= crashed
        completed_any |= not crashed
    if nseeds >= 40:
        assert crashed_any, "no sweep trial crashed inside the compaction"
        assert completed_any, "every sweep trial crashed before completing"
