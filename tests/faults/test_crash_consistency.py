"""Randomized crash/corruption harness — the crash-consistency contract.

Hundreds of seeded trials, each fully deterministic from its seed:

* **crash trials** — run a multi-epoch workload, crash at a seeded random
  device operation, recover, and assert that every epoch the manifest
  committed is fully readable with correct values while every epoch the
  crash interrupted is cleanly absent from storage;
* **corruption trials** — flip one seeded random bit at rest and assert
  the damage is *detected* (`CorruptBlockError` / a failed seal), never
  served as silently wrong data.

Each trial is small (2 ranks, tens of records) so the whole harness runs
in seconds; the `FAULT_SEED_OFFSET` environment knob lets CI sweep extra
disjoint seed windows without editing the test.
"""

import os

import numpy as np
import pytest

from repro.core.formats import FMT_BASE, FMT_DATAPTR, FMT_FILTERKV
from repro.core.kv import random_kv_batch
from repro.core.multiepoch import MultiEpochStore
from repro.core.pipeline import epoch_files, main_table_name
from repro.faults import CrashPoint, FaultPlan, FaultSpec, FaultyStorageDevice
from repro.obs import MetricsRegistry
from repro.storage.blockio import StorageDevice
from repro.storage.envelope import SealError
from repro.storage.sstable import CorruptBlockError, SSTableReader

from ..reference.read import scan_rows

NRANKS = 2
RECORDS = 60  # per rank per epoch
EPOCHS = 2
VALUE_BYTES = 16
SEED_OFFSET = int(os.environ.get("FAULT_SEED_OFFSET", "0"))


def _write_until_crash(store, device, seed):
    """Drive EPOCHS epochs; returns per-epoch expected mappings for the
    epochs that committed before the (possible) crash."""
    rng = np.random.default_rng(seed)
    crash_op = int(rng.integers(0, 400))
    device.plan.crash_at(crash_op)
    expected = []
    for _ in range(EPOCHS):
        batches = [random_kv_batch(RECORDS, VALUE_BYTES, rng) for _ in range(NRANKS)]
        try:
            store.write_epoch(batches)
        except CrashPoint:
            break
        epoch_map = {}
        for b in batches:
            for i in range(len(b)):
                epoch_map[int(b.keys[i])] = b.values[i].tobytes()
        expected.append(epoch_map)
    # Disarm anything unfired so recovery and verification run fault-free.
    device.plan.specs = [s for s in device.plan.specs if s.fired]
    return expected


def _verify_epoch(store, device, fmt, epoch, exp):
    """The committed-epoch contract: complete, and correct where checked."""
    keys = sorted(exp)
    for k in keys[:: max(1, len(keys) // 24)]:
        value, _ = store.get(k, epoch)
        assert value == exp[k], f"epoch {epoch} key {k} wrong/missing after recovery"
    # Completeness: every written key is present in the epoch's tables
    # (and for the formats that store values inline, byte-correct).
    got = {}
    for rank in range(NRANKS):
        reader = SSTableReader(device, main_table_name(epoch, rank))
        got.update(scan_rows(device, reader))
    assert set(got) == set(exp), f"epoch {epoch} key set differs after recovery"
    if fmt.name in ("base", "filterkv"):
        assert all(got[k] == exp[k] for k in exp), f"epoch {epoch} values differ"


def _assert_uncommitted_absent(device, committed):
    for e in range(EPOCHS):
        if e in committed:
            continue
        leftovers = [
            n
            for n in device.list_files()
            if n.startswith((f"part.{e:03d}.", f"aux.{e:03d}.", f"runs.{e:03d}."))
        ]
        assert not leftovers, f"uncommitted epoch {e} left extents: {leftovers}"


def _crash_trial(seed, fmt, metrics):
    device = FaultyStorageDevice(FaultPlan(seed=seed), metrics=metrics)
    store = MultiEpochStore(
        nranks=NRANKS, fmt=fmt, value_bytes=VALUE_BYTES, device=device, seed=seed
    )
    expected = _write_until_crash(store, device, seed)
    recovered, report = MultiEpochStore.recover(device, metrics=metrics)
    assert report.committed_epochs == list(range(len(expected))), (
        f"seed {seed}: committed {report.committed_epochs}, "
        f"but {len(expected)} epochs completed before the crash"
    )
    for e, exp in enumerate(expected):
        _verify_epoch(recovered, device, fmt, e, exp)
    _assert_uncommitted_absent(device, report.committed_epochs)
    return len(expected)


@pytest.mark.parametrize(
    "fmt,nseeds",
    [
        # Quick params run in every tier-1 invocation; the full sweeps are
        # marked slow and run in CI's faults job (-m "slow or not slow").
        (FMT_FILTERKV, 12),
        (FMT_BASE, 6),
        (FMT_DATAPTR, 6),
        pytest.param(FMT_FILTERKV, 100, marks=pytest.mark.slow),
        pytest.param(FMT_BASE, 50, marks=pytest.mark.slow),
        pytest.param(FMT_DATAPTR, 50, marks=pytest.mark.slow),
    ],
    ids=["filterkv-12", "base-6", "dataptr-6", "filterkv-100", "base-50", "dataptr-50"],
)
def test_crash_recovery_trials(fmt, nseeds):
    metrics = MetricsRegistry()
    committed_counts = [
        _crash_trial(SEED_OFFSET + seed, fmt, metrics) for seed in range(nseeds)
    ]
    assert metrics.counter("recovery.runs").value == nseeds
    # Only ~5% of seeds place the crash inside the run, so both-outcomes
    # coverage is a property of the full sweeps; the quick params just
    # smoke the recovery contract on whatever their window contains.
    if nseeds >= 50:
        assert any(c < EPOCHS for c in committed_counts), "no trial ever crashed"
        assert metrics.counter("faults.crashes").value > 0
        assert metrics.counter("faults.injected", kind="crash").value > 0


def test_corruption_is_detected_never_silent():
    detected = 0
    for seed in range(SEED_OFFSET, SEED_OFFSET + 30):
        rng = np.random.default_rng(seed ^ 0xC0DE)
        device = StorageDevice()
        store = MultiEpochStore(
            nranks=NRANKS, fmt=FMT_FILTERKV, value_bytes=VALUE_BYTES, device=device, seed=seed
        )
        batches = [random_kv_batch(RECORDS, VALUE_BYTES, rng) for _ in range(NRANKS)]
        store.write_epoch(batches)
        exp = {
            int(b.keys[i]): b.values[i].tobytes() for b in batches for i in range(len(b))
        }
        victims = [n for n in device.list_files() if n.startswith(("part.", "aux."))]
        name = victims[int(rng.integers(len(victims)))]
        offset = int(rng.integers(device.file_size(name)))
        device.corrupt(name, offset, xor=1 << int(rng.integers(8)))
        try:
            att = MultiEpochStore.attach(device)
        except (SealError, CorruptBlockError, ValueError):
            detected += 1  # caught while reloading aux/index structures
            continue
        for k in sorted(exp)[:: max(1, len(exp) // 40)]:
            try:
                value, _ = att.get(k, 0)
            except CorruptBlockError:
                detected += 1
                break
            assert value == exp[k], (
                f"seed {seed}: corruption in {name!r} at {offset} served "
                f"silently-wrong data for key {k}"
            )
    # Single-bit flips land in checksummed structures; the overwhelming
    # majority must be caught (a flip in an unread block can hide).
    assert detected >= 20, f"only {detected}/30 corruptions detected"


def test_deep_recovery_quarantines_data_block_corruption():
    device = StorageDevice()
    store = MultiEpochStore(
        nranks=NRANKS, fmt=FMT_FILTERKV, value_bytes=VALUE_BYTES, device=device, seed=0
    )
    rng = np.random.default_rng(0)
    for _ in range(2):
        store.write_epoch([random_kv_batch(RECORDS, VALUE_BYTES, rng) for _ in range(NRANKS)])
    victim = main_table_name(0, 0)
    device.corrupt(victim, 10, xor=0x10)  # inside the first data block
    metrics = MetricsRegistry()
    recovered, report = MultiEpochStore.recover(device, deep=True, metrics=metrics)
    assert [e for e, _ in report.quarantined_epochs] == [0]
    assert report.committed_epochs == [1]
    assert not any(n.startswith("part.000.") for n in device.list_files())
    assert metrics.counter("recovery.epochs_quarantined").value == 1


def test_store_crash_recover_rerun():
    metrics = MetricsRegistry()
    device = FaultyStorageDevice(FaultPlan(seed=4), metrics=metrics)

    def store():
        return MultiEpochStore(
            nranks=3, fmt=FMT_FILTERKV, value_bytes=VALUE_BYTES, device=device, seed=4
        )

    rng = np.random.default_rng(4)
    batches = [random_kv_batch(200, VALUE_BYTES, rng) for _ in range(3)]
    device.plan.crash_at(7)
    with pytest.raises(CrashPoint):
        store().write_epoch(batches)
    recovered, report = MultiEpochStore.recover(device, metrics=metrics)
    # Nothing ever committed: no store to attach, and the partial epoch's
    # extents are swept.
    assert recovered is None and report.committed_epochs == []
    assert len(report.orphans_removed) >= 3
    assert epoch_files(device, 0, FMT_FILTERKV) == []
    # A fresh store on the same device writes the epoch over from scratch.
    rerun = store()
    rerun.write_epoch(batches)
    for b in batches:
        for i, k in enumerate(b.keys[:8]):
            assert rerun.get(int(k), 0)[0] == b.value_of(i)
    assert metrics.counter("faults.crashes").value == 1


def test_torn_manifest_commit_reverts_to_previous_epoch_set():
    # Crash exactly on the manifest append of epoch 1: epoch 0's manifest
    # generation must win and epoch 1 must vanish on recovery.
    device = FaultyStorageDevice(FaultPlan(seed=1))
    store = MultiEpochStore(
        nranks=NRANKS, fmt=FMT_BASE, value_bytes=VALUE_BYTES, device=device, seed=1
    )
    rng = np.random.default_rng(1)
    store.write_epoch([random_kv_batch(RECORDS, VALUE_BYTES, rng) for _ in range(NRANKS)])
    device.plan.add(FaultSpec("torn_append", op=device.op_index, pattern="MANIFEST.*", arg=0.5))
    with pytest.raises(CrashPoint):
        store.write_epoch([random_kv_batch(RECORDS, VALUE_BYTES, rng) for _ in range(NRANKS)])
    recovered, report = MultiEpochStore.recover(device)
    assert report.committed_epochs == [0]
    assert any("MANIFEST" in n for n in report.invalid_manifests)
    _assert_uncommitted_absent(device, [0])


@pytest.mark.parametrize("seed", range(3))
def test_crash_during_aux_seal_preserves_committed_epochs(seed):
    """A crash on the first aux extent of the *next* epoch: the committed
    epochs survive recovery and answer byte-identically, and the retried
    write commits."""
    device = FaultyStorageDevice(FaultPlan(seed=seed))
    store = MultiEpochStore(
        nranks=NRANKS, fmt=FMT_FILTERKV, value_bytes=VALUE_BYTES, seed=50 + seed, device=device
    )
    rng = np.random.default_rng(50 + seed)

    def grow(into):
        batches = [random_kv_batch(RECORDS, VALUE_BYTES, rng) for _ in range(NRANKS)]
        into.write_epoch(batches)
        return {int(k): b.value_of(i) for b in batches for i, k in enumerate(b.keys)}

    truth = {}
    for _ in range(EPOCHS):
        truth.update(grow(store))
    committed = list(store.epochs)
    device.plan.crash_at(0, pattern=f"aux.{store.manifest.next_epoch:03d}.*")
    with pytest.raises(CrashPoint):
        grow(store)
    store.close()
    device.plan.specs = [s for s in device.plan.specs if s.fired]

    recovered, _ = MultiEpochStore.recover(device)
    assert recovered is not None and recovered.epochs == committed
    for k in sorted(truth)[:: max(1, len(truth) // 40)]:
        assert recovered.lookup(k)[0] == truth[k], f"key {k} wrong after crashed aux seal"
    more = grow(recovered)
    for k, v in list(more.items())[:10]:
        assert recovered.lookup(k)[0] == v
    recovered.close()
