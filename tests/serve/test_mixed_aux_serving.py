"""Serving over legacy cuckoo epochs beside csf ones.

A store seals csf (`auxtable.STORE_AUX_BACKEND`), at ingest and in every
merge, but a device may hold epochs older stores sealed with the paper's
cuckoo.  The tests write that mix by patching the constant per epoch
(`tests/legacy.py`), and pin the contract that the backend is a per-epoch
implementation detail (`tests/integration/test_store_machine.py` also
writes legacy cuckoo epochs, and checks every read surface against its
oracle through attach, merges and crashes):

* each epoch's aux tables are the backend its blobs name, and the
  manifest names none;
* compaction over mixed epochs seals its rebuilt partitions csf and
  serves byte-identical answers before and after the swap;
* a crash during the aux seal of a new epoch loses nothing already
  committed, whatever mix of backends the committed epochs hold.
"""

import numpy as np
import pytest

from repro.core.formats import FMT_FILTERKV
from repro.core.kv import random_kv_batch
from repro.core.multiepoch import MultiEpochStore
from repro.faults import CrashPoint, FaultPlan, FaultyStorageDevice
from repro.serve import ANY_EPOCH, QueryService

from ..legacy import store_seals
from .conftest import run  # noqa: F401

VB = 20
NRANKS = 4
# A legacy filter–index hybrid epoch, then a store's static function.
EPOCH_BACKENDS = ["cuckoo", "csf"]


def _grow(store, rng, n=100):
    batches = [random_kv_batch(n, VB, rng) for _ in range(NRANKS)]
    store.write_epoch(batches)
    return {int(k): b.value_of(i) for b in batches for i, k in enumerate(b.keys)}


def _sealed(store) -> list[set[str]]:
    """Per live epoch: the backends its aux tables are."""
    return [{t.backend for t in store.engine(e).aux_tables} for e in store.epochs]


def _mixed_store(seed=41, device=None, backends=EPOCH_BACKENDS):
    """One epoch per named backend, so the mix is deterministic."""
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
        with store_seals(backend):
            truth.update(_grow(store, rng))
    return store, truth, rng


def test_each_epoch_is_the_backend_its_blobs_name():
    store, _, _ = _mixed_store()
    assert _sealed(store) == [{b} for b in EPOCH_BACKENDS]
    assert all("aux_backend" not in e.to_dict() for e in store.manifest.epochs)
    store.close()


def test_a_store_seals_csf_at_ingest_and_in_a_merge():
    store = MultiEpochStore(nranks=NRANKS, fmt=FMT_FILTERKV, value_bytes=VB, seed=43)
    rng = np.random.default_rng(43)
    for _ in range(2):
        _grow(store, rng)
    assert _sealed(store) == [{"csf"}, {"csf"}]
    store.compact()
    assert _sealed(store) == [{"csf"}]
    store.close()


def test_serving_through_mixed_epoch_compaction():
    store, truth, _ = _mixed_store()

    async def main():
        async with QueryService(store, max_inflight=4096) as svc:
            keys = sorted(truth)[::5] + [1]  # plus a guaranteed miss
            before = {k: await svc.get(k, epoch=ANY_EPOCH) for k in keys}
            store.compact()
            # Both epochs hold keys of every partition: each is rebuilt csf.
            assert _sealed(store) == [{"csf"}]
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
    with pytest.raises(CrashPoint):
        _grow(store, rng)
    store.close()
    device.plan.specs = [s for s in device.plan.specs if s.fired]

    recovered, _ = MultiEpochStore.recover(device)
    assert recovered is not None
    assert recovered.epochs == committed, "a crashed seal disturbed committed epochs"
    assert _sealed(recovered) == [{b} for b in EPOCH_BACKENDS]
    for k in sorted(truth)[:: max(1, len(truth) // 40)]:
        value, _, _ = recovered.lookup(k)
        assert value == truth[k], f"key {k} wrong after crashed aux seal"
    # The dataset is still writable: the retried epoch commits cleanly.
    more = _grow(recovered, rng)
    for k, v in list(more.items())[:10]:
        value, _, _ = recovered.lookup(k)
        assert value == v
    recovered.close()
