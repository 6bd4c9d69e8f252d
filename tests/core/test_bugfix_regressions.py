"""Regression tests for PR 2's bugfixes.

Each test pins a bug that shipped in an earlier revision:

* `WriterState._append_to_buffer` looped forever when one record was wider
  than ``batch_bytes`` (the record-boundary trim cut the batch to zero).
"""

from repro.core.formats import FMT_BASE
from repro.core.kv import random_kv_batch
from repro.core.partitioning import HashPartitioner
from repro.core.pipeline import WriterState
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
        aux_backends=("cuckoo",),
        batch_bytes=32,  # narrower than one record
    )
    batch = random_kv_batch(40, 56, rng=5)
    w.put_batch(batch)  # pre-fix: infinite loop here
    w.flush()
    assert sum(env.nrecords for env in shipped) == 40
    # Nothing can share an envelope when one record overflows the budget.
    assert all(env.nrecords == 1 and len(env.payload) == 64 for env in shipped)
