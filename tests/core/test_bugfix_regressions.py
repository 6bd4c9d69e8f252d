"""Regression tests for PR 2's bugfixes.

Each test pins a bug that shipped in an earlier revision:

* `WriterState._append_to_buffer` looped forever when one record was wider
  than ``batch_bytes`` (the record-boundary trim cut the batch to zero).
* `WriterState.local_storage_bytes` omitted spilled run bytes for a
  bounded-memory filterkv writer, understating local storage mid-burst.
"""

from repro.core import FMT_FILTERKV
from repro.core.formats import FMT_BASE
from repro.core.kv import random_kv_batch
from repro.core.partitioning import HashPartitioner
from repro.core.pipeline import WriterState, main_table_name
from repro.storage.blockio import StorageDevice


def test_record_wider_than_batch_bytes_ships_single_record_envelopes():
    """A record wider than the shipping budget must go out alone, not hang."""
    shipped = []
    w = WriterState(
        rank=0,
        fmt=FMT_BASE,
        partitioner=HashPartitioner(2),
        device=StorageDevice(),
        value_bytes=56,  # record = 8 + 56 = 64 bytes
        send=shipped.append,
        batch_bytes=32,  # narrower than one record
    )
    batch = random_kv_batch(40, 56, rng=5)
    w.put_batch(batch)  # pre-fix: infinite loop here
    w.flush()
    assert sum(env.nrecords for env in shipped) == 40
    # Nothing can share an envelope when one record overflows the budget.
    assert all(env.nrecords == 1 and len(env.payload) == 64 for env in shipped)


def test_local_storage_bytes_counts_spilled_runs():
    """Mid-burst, a bounded-memory filterkv writer holds its data in spilled
    runs; local storage accounting must see those bytes."""
    dev = StorageDevice()
    w = WriterState(
        rank=0,
        fmt=FMT_FILTERKV,
        partitioner=HashPartitioner(2),
        device=dev,
        value_bytes=16,
        send=lambda env: None,
        spill_budget_bytes=2048,
    )
    w.put_batch(random_kv_batch(2000, 16, rng=6))
    spilled = w._runs.size_bytes
    assert spilled > 0  # the tiny budget forced spills
    assert w.local_storage_bytes >= spilled  # pre-fix: reported ~0 mid-burst
    w.finish()
    table = dev.file_size(main_table_name(0, 0))
    # Post-flatten both the final table and the (retained) runs are local.
    assert w.local_storage_bytes == table + w._runs.size_bytes
