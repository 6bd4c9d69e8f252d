"""Pinned crash points: where a crash lands and what it leaves behind.

One seeded script per format writes three epochs on a
`FaultyStorageDevice`, crashes at a fixed operation inside the third,
recovers, then reads the surviving epochs.  It crashes at two operations:
the first append to rank 0's extent, when every writer of the epoch has
already created its (still empty) extent, and the first append to rank
1's.  The device's operation count, its extents and stored bytes after
the crash and after recovery, and every `RecoveryReport` field are
pinned: a change to how writers create or append to extents that moved a
crash point, an orphan or a read would show here.
"""

import dataclasses

import numpy as np
import pytest

from repro.core.formats import FMT_BASE, FMT_DATAPTR, FMT_FILTERKV
from repro.core.kv import random_kv_batch
from repro.core.multiepoch import MultiEpochStore
from repro.faults import CrashPoint, FaultPlan, FaultyStorageDevice

NRANKS = 2
RECORDS = 40
VALUE_BYTES = 16

COMMITTED = ["MANIFEST.000001", "MANIFEST.000002"]
PARTS = [f"part.{e:03d}.{r:06d}" for e in (0, 1) for r in range(NRANKS)]
AUX = [f"aux.{e:03d}.{r:06d}" for e in (0, 1) for r in range(NRANKS)]
VLOGS = ["vlog.000000", "vlog.000001"]

# fmt -> [(crash op, sizes of the third epoch's extents after the crash,
#          bytes stored after the crash, op index after the reads)]
PINS = {
    "base": [
        (18, {"part.002.000000": 0, "part.002.000001": 0}, 5312, 45),
        (22, {"part.002.000000": 1316, "part.002.000001": 0}, 6628, 49),
    ],
    "dataptr": [
        (24, {"part.002.000000": 0, "part.002.000001": 0}, 9592, 75),
        (28, {"part.002.000000": 1132, "part.002.000001": 0}, 10724, 79),
    ],
    "filterkv": [
        (22, {"part.002.000000": 0, "part.002.000001": 0}, 6293, 57),
        (
            31,
            {
                "aux.002.000000": 192,
                "aux.002.000001": 0,
                "part.002.000000": 1164,
                "part.002.000001": 1164,
            },
            8813,
            66,
        ),
    ],
}
LIVE = {
    "base": COMMITTED + PARTS,
    "dataptr": COMMITTED + PARTS + VLOGS,
    "filterkv": COMMITTED + AUX + PARTS,
}


@pytest.mark.parametrize("pin", [0, 1], ids=["rank0", "rank1"])
@pytest.mark.parametrize("fmt", [FMT_BASE, FMT_DATAPTR, FMT_FILTERKV], ids=lambda f: f.name)
def test_crash_inside_the_third_epoch_is_pinned(fmt, pin):
    crash_op, orphans, stored, ops_after_reads = PINS[fmt.name][pin]
    device = FaultyStorageDevice(FaultPlan(seed=1))
    store = MultiEpochStore(nranks=NRANKS, fmt=fmt, value_bytes=VALUE_BYTES, device=device, seed=1)
    rng = np.random.default_rng(1)
    device.plan.crash_at(crash_op)
    epochs = []
    with pytest.raises(CrashPoint):
        for _ in range(3):
            epochs.append([random_kv_batch(RECORDS, VALUE_BYTES, rng) for _ in range(NRANKS)])
            store.write_epoch(epochs[-1])
    assert len(epochs) == 3
    assert device.op_index == crash_op + 1
    assert device.list_files() == sorted(LIVE[fmt.name] + list(orphans))
    assert {n: device.file_size(n) for n in orphans} == orphans
    assert device.total_bytes_stored() == stored

    device.revive()
    recovered, report = MultiEpochStore.recover(device)
    assert dataclasses.asdict(report) == {
        "generation": 2,
        "committed_epochs": [0, 1],
        "quarantined_epochs": [],
        "orphans_removed": sorted(orphans),
        "invalid_manifests": [],
        "bytes_reclaimed": sum(orphans.values()),
    }
    assert device.list_files() == sorted(LIVE[fmt.name])
    assert device.total_bytes_stored() == stored - sum(orphans.values())

    for epoch, batches in enumerate(epochs[:2]):
        for b in batches:
            values, _ = recovered.get_many(b.keys[::7], epoch)
            assert values == [b.value_of(i) for i in range(0, len(b), 7)]
    assert device.op_index == ops_after_reads
