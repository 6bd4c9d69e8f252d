"""Property-based tests for core invariants (partitioning, formats, model)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.machines import NARWHAL
from repro.core.costmodel import WriteRunConfig, model_write_phase
from repro.core.formats import FMT_BASE, FMT_DATAPTR, FMT_FILTERKV
from repro.core.partitioning import HashPartitioner


@given(
    nparts=st.integers(min_value=1, max_value=500),
    keys=st.lists(st.integers(min_value=0, max_value=2**63 - 1), min_size=1, max_size=300),
)
@settings(max_examples=60, deadline=None)
def test_partitioner_total_and_consistent(nparts, keys):
    p = HashPartitioner(nparts)
    arr = np.asarray(keys, dtype=np.uint64)
    dest = p.partition_of(arr)
    assert ((0 <= dest) & (dest < nparts)).all()
    assert dest.tolist() == [p.partition_of_one(k) for k in keys]


@given(
    value_bytes=st.integers(min_value=0, max_value=1024),
    nparts=st.integers(min_value=2, max_value=10_000_000),
)
@settings(max_examples=80, deadline=None)
def test_format_byte_identities(value_bytes, nparts):
    """Structural invariants of the byte accounting, for any (V, N)."""
    for fmt in (FMT_BASE, FMT_DATAPTR, FMT_FILTERKV):
        shuffled = fmt.shuffle_bytes_per_record(value_bytes, nparts)
        stored = fmt.storage_bytes_per_record(value_bytes, nparts)
        assert shuffled > 0
        assert stored >= value_bytes  # the value must land somewhere
        assert fmt.index_bytes_per_key(nparts) >= 0
    # FilterKV never ships more than DataPtr, which never ships more than
    # base (keys ⊆ keys+offsets ⊆ whole records).
    f = FMT_FILTERKV.shuffle_bytes_per_record(value_bytes, nparts)
    d = FMT_DATAPTR.shuffle_bytes_per_record(value_bytes, nparts)
    b = FMT_BASE.shuffle_bytes_per_record(value_bytes, nparts)
    assert f <= d
    assert d <= b or value_bytes < 8  # base can undercut only for tiny values
    # FilterKV's index is always smaller than the 12-byte pointer.
    assert FMT_FILTERKV.index_bytes_per_key(nparts) < FMT_DATAPTR.index_bytes_per_key(nparts)


@given(
    nprocs=st.integers(min_value=2, max_value=2048),
    kv=st.integers(min_value=9, max_value=512),
    resid=st.floats(min_value=0.05, max_value=1.0),
)
@settings(max_examples=60, deadline=None)
def test_costmodel_sanity(nprocs, kv, resid):
    """The model never returns negative times, and t_plain ≤ t_run for the
    base format (partitioning cannot be faster than not partitioning)."""
    r = model_write_phase(
        WriteRunConfig(
            fmt=FMT_BASE,
            machine=NARWHAL,
            nprocs=nprocs,
            kv_bytes=kv,
            data_per_proc=1e8,
            residual_fraction=resid,
        )
    )
    assert r.t_plain > 0
    assert r.t_storage >= 0 and r.t_shuffle >= 0 and r.t_cpu >= 0
    assert r.t_run >= r.t_plain - 1e-9
    assert r.slowdown >= -1e-9


@given(kv=st.integers(min_value=9, max_value=512))
@settings(max_examples=40, deadline=None)
def test_filterkv_never_shuffles_more_than_dataptr(kv):
    a = model_write_phase(
        WriteRunConfig(FMT_FILTERKV, NARWHAL, 64, kv, 1e8, residual_fraction=0.5)
    )
    b = model_write_phase(
        WriteRunConfig(FMT_DATAPTR, NARWHAL, 64, kv, 1e8, residual_fraction=0.5)
    )
    assert a.shuffle_bytes_total <= b.shuffle_bytes_total
    assert a.rpc_messages_total <= b.rpc_messages_total


@given(
    resid_lo=st.floats(min_value=0.05, max_value=0.5),
    resid_hi=st.floats(min_value=0.5, max_value=1.0),
)
@settings(max_examples=30, deadline=None)
def test_more_residual_bandwidth_never_hurts(resid_lo, resid_hi):
    def slow(r):
        return model_write_phase(
            WriteRunConfig(FMT_BASE, NARWHAL, 256, 64, 1e8, residual_fraction=r)
        ).slowdown

    assert slow(resid_hi) <= slow(resid_lo) + 1e-9
