"""Regression tests for PR 2's bugfixes.

Each test pins a bug that shipped in an earlier revision:

* The writer's per-destination buffer looped forever when one record was
  wider than ``batch_bytes`` (the record-boundary trim cut the batch to
  zero).  The cuts are closed-form now; the case keeps its test.
"""

from repro.core.formats import FMT_BASE
from repro.core.kv import random_kv_batch
from repro.core.partitioning import HashPartitioner
from repro.core.pipeline import WriterState
from repro.storage.blockio import StorageDevice


def test_record_wider_than_batch_bytes_ships_single_record_rows():
    """A record wider than the shipping budget must go out alone, not hang."""
    w = WriterState(
        [0],
        FMT_BASE,
        HashPartitioner(2),
        StorageDevice(),
        56,  # record = 8 + 56 = 64 bytes
        aux_backend="cuckoo",
        batch_bytes=32,  # narrower than one record
    )
    w.put_batch(0, random_kv_batch(40, 56, rng=5))  # pre-fix: infinite loop here
    rows = w.finish()
    assert int(rows.count.sum()) == 40
    # Nothing can share a message when one record overflows the budget.
    assert rows.count.tolist() == [1] * 40
    assert rows.records.shape == (40, 64)
