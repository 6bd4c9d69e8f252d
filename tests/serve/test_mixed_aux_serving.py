"""Serving over epochs whose aux tables use *different* backends.

A store's ``aux_backends`` tuple (`AUTO_BACKENDS`: csf, then cuckoo) is
walked per sealed key set, so its epochs can legitimately disagree on aux
backend — an epoch whose keys the CSF refuses seals a cuckoo table.  The
tests force that mix by assigning ``store.aux_backends`` one backend per
epoch, and pin the contract that the backend is a per-epoch
implementation detail:

* the manifest records which backend(s) each epoch sealed;
* a cold `attach` reloads every epoch's aux from its blob header alone
  (no format-level default involved) and answers byte-identically;
* compaction over mixed epochs walks the tuple again and serves
  byte-identical answers before and after the swap;
* a crash during the aux seal of a new epoch loses nothing already
  committed, whatever mix of backends the committed epochs hold.
"""

import numpy as np
import pytest

from repro.core.auxtable import AUTO_BACKENDS
from repro.core.formats import FMT_FILTERKV
from repro.core.kv import random_kv_batch
from repro.core.multiepoch import MultiEpochStore
from repro.faults import CrashPoint, FaultPlan, FaultyStorageDevice
from repro.serve import ANY_EPOCH, QueryService

from .conftest import run  # noqa: F401

VB = 20
NRANKS = 4
# One epoch per sealed backend: filter–index hybrid, then static function.
EPOCH_BACKENDS = ["cuckoo", "csf"]


def _grow(store, rng, n=100):
    batches = [random_kv_batch(n, VB, rng) for _ in range(NRANKS)]
    store.write_epoch(batches)
    return {int(k): b.value_of(i) for b in batches for i, k in enumerate(b.keys)}


def _mixed_store(seed=41, device=None, backends=EPOCH_BACKENDS):
    """One epoch per named backend, forced per epoch through the store's
    ``aux_backends``, so the mix is deterministic."""
    store = MultiEpochStore(
        nranks=NRANKS,
        fmt=FMT_FILTERKV,
        value_bytes=VB,
        seed=seed,
        **({"device": device} if device is not None else {}),
    )
    rng = np.random.default_rng(seed)
    truth = {}
    for backend in backends:
        store.aux_backends = (backend,)
        truth.update(_grow(store, rng))
    return store, truth, rng


def test_manifest_records_per_epoch_backend():
    store, _, _ = _mixed_store()
    recorded = [e.aux_backend for e in store.manifest.epochs]
    assert recorded == EPOCH_BACKENDS
    store.close()


def test_policy_backend_lands_in_manifest():
    store = MultiEpochStore(nranks=NRANKS, fmt=FMT_FILTERKV, value_bytes=VB, seed=43)
    assert store.aux_backends == AUTO_BACKENDS
    _grow(store, np.random.default_rng(43))
    (info,) = store.manifest.epochs
    assert info.aux_backend == "csf"  # first of the tuple; nothing made it refuse
    store.close()


def test_cold_attach_serves_mixed_epochs_byte_identically():
    device_store, truth, _ = _mixed_store()
    device = device_store.device
    hot = {k: device_store.lookup(k) for k in sorted(truth)[::7]}
    device_store.close()

    attached = MultiEpochStore.attach(device)
    assert [e.aux_backend for e in attached.manifest.epochs] == EPOCH_BACKENDS
    for k, (value, _, _) in hot.items():
        got, _, _ = attached.lookup(k)
        assert got == value == truth[k], f"key {k} changed across attach"
    attached.close()


def test_serving_through_mixed_epoch_compaction():
    store, truth, _ = _mixed_store()
    # The merged epoch walks the store's own tuple again, not the one
    # the last epoch was forced to.
    store.aux_backends = AUTO_BACKENDS

    async def main():
        async with QueryService(store, max_inflight=4096) as svc:
            keys = sorted(truth)[::5] + [1]  # plus a guaranteed miss
            before = {k: await svc.get(k, epoch=ANY_EPOCH) for k in keys}
            report = store.compact()
            merged = next(e for e in store.manifest.epochs if e.epoch == report.merged_epoch)
            assert merged.aux_backend is not None
            assert set(merged.aux_backend.split(",")) <= set(AUTO_BACKENDS)
            for k in keys:
                r = await svc.get(k, epoch=ANY_EPOCH)
                assert r.status == before[k].status
                assert r.value == before[k].value, f"key {k} changed across compaction"
    run(main())
    store.close()


@pytest.mark.parametrize("seed", range(3))
def test_crash_during_aux_seal_preserves_committed_mix(seed):
    """Arm a crash on the first aux extent of the *next* epoch: committed
    epochs (one per backend) must survive and answer byte-identically."""
    device = FaultyStorageDevice(FaultPlan(seed=seed))
    store, truth, rng = _mixed_store(seed=50 + seed, device=device)
    committed = list(store.epochs)
    nxt = store.manifest.next_epoch
    device.plan.crash_at(0, pattern=f"aux.{nxt:03d}.*")
    store.aux_backends = ("csf",)
    with pytest.raises(CrashPoint):
        _grow(store, rng)
    store.close()
    device.plan.specs = [s for s in device.plan.specs if s.fired]

    recovered, _ = MultiEpochStore.recover(device)
    assert recovered is not None
    assert recovered.epochs == committed, "a crashed seal disturbed committed epochs"
    assert [
        e.aux_backend for e in recovered.manifest.epochs
    ] == EPOCH_BACKENDS
    for k in sorted(truth)[:: max(1, len(truth) // 40)]:
        value, _, _ = recovered.lookup(k)
        assert value == truth[k], f"key {k} wrong after crashed aux seal"
    # The dataset is still writable: the retried epoch commits cleanly.
    more = _grow(recovered, rng)
    for k, v in list(more.items())[:10]:
        value, _, _ = recovered.lookup(k)
        assert value == v
    recovered.close()
