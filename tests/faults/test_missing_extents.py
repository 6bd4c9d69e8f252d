"""A missing extent at every whole-extent read, and the error it raises.

Five places read a whole extent by name: attaching a store (its aux
tables), loading the manifest, recovery's epoch validation, a cold
query's aux fetch and a dataptr query's value-log read.  Each is hit with
the extent deleted before the call, and with it dropped by a
``drop_extent`` fault on the very read that fetches it (the manifest is
found by listing the device, so only the second can miss it).  A missing extent
is a `FileNotFoundError`, one lost under a read an `ExtentLostError`,
and a value-log pointer past a truncated log's end a `ValueError`;
recovery's validation reports a missing extent as a quarantine either
way, deleted before it or lost under its own read.
"""

import numpy as np
import pytest

from repro.core.formats import FMT_DATAPTR, FMT_FILTERKV
from repro.core.kv import random_kv_batch
from repro.core.multiepoch import MultiEpochStore
from repro.faults import FaultPlan, FaultSpec, FaultyStorageDevice
from repro.storage.blockio import ExtentLostError
from repro.storage.manifest import Manifest

AUX = "aux.000.000001"
VLOG = "vlog.000000"


def _store(fmt):
    device = FaultyStorageDevice(FaultPlan(seed=3))
    store = MultiEpochStore(nranks=2, fmt=fmt, value_bytes=16, device=device, seed=3)
    batches = [random_kv_batch(50, 16, np.random.default_rng(r)) for r in range(2)]
    store.write_epoch(batches)
    store.close()
    return device, batches[0].keys


def _lose(device, name, how):
    """Delete ``name`` now, or arm a fault that drops it on its next read."""
    if how == "deleted":
        device.delete(name)
    else:
        device.plan.add(FaultSpec("drop_extent", op=device.op_index, pattern=name))


def _attach(device, keys, lose):
    lose()
    MultiEpochStore.attach(device)


def _load_manifest(device, keys, lose):
    lose()
    Manifest.load(device)


def _recover(device, keys, lose):
    lose()
    return MultiEpochStore.recover(device)[1]


def _query(device, keys, lose):
    """A cold query over an attached store: attach reads the aux tables
    first, so only the query's own read finds the extent gone."""
    store = MultiEpochStore.attach(device)
    lose()
    store.engine(0).get_many(keys)


SITES = {
    "attach": (FMT_FILTERKV, AUX, _attach),
    "manifest-load": (FMT_FILTERKV, "MANIFEST.000001", _load_manifest),
    "recovery-validation": (FMT_FILTERKV, AUX, _recover),
    "aux-fetch": (FMT_FILTERKV, AUX, _query),
    "value-log-read": (FMT_DATAPTR, VLOG, _query),
}
CASES = [
    ("attach", "deleted", FileNotFoundError),
    ("attach", "dropped", ExtentLostError),
    ("manifest-load", "dropped", ExtentLostError),
    ("recovery-validation", "deleted", None),
    ("recovery-validation", "dropped", None),
    ("aux-fetch", "deleted", FileNotFoundError),
    ("aux-fetch", "dropped", ExtentLostError),
    ("value-log-read", "deleted", FileNotFoundError),
    ("value-log-read", "dropped", ValueError),  # `ValueLog.read`: a bad pointer
]


@pytest.mark.parametrize("site,how,error", CASES, ids=[f"{s}-{h}" for s, h, _ in CASES])
def test_a_missing_extent_raises_its_error(site, how, error):
    fmt, name, call = SITES[site]
    device, keys = _store(fmt)

    def lose():
        _lose(device, name, how)

    if error is None:  # recovery quarantines an epoch whose extent is gone, however lost
        report = call(device, keys, lose)
        assert report.quarantined_epochs == [(0, f"missing extent {name!r}")]
        return
    with pytest.raises(error):
        call(device, keys, lose)
