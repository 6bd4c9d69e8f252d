"""The paper's format crossovers, as write-phase model comparisons at fixed
points on either side of each boundary.

Base beats the indirection formats when storage is slow (Fig. 10a left),
DataPtr falls behind base for tiny KV pairs (Fig. 9), and FilterKV leads
from the smallest legal record up.
"""

import pytest

from repro.cluster.machines import NARWHAL, TRINITY_KNL
from repro.core.costmodel import WriteRunConfig, model_write_phase
from repro.core.formats import FMT_BASE, FMT_DATAPTR, FMT_FILTERKV


def fig10_slowdown(fmt, storage_bandwidth):
    """Fig. 10a's setting: 4 096 KNL processes writing 488 MB each of
    64-byte pairs, at a given per-node storage bandwidth."""
    machine = TRINITY_KNL.with_storage_bandwidth(storage_bandwidth)
    return model_write_phase(
        WriteRunConfig(fmt=fmt, machine=machine, nprocs=4096, kv_bytes=64, data_per_proc=488e6)
    ).slowdown


def fig9_slowdown(fmt, kv_bytes):
    """Fig. 9's setting: 256 Narwhal processes writing 960 MB each."""
    return model_write_phase(
        WriteRunConfig(
            fmt=fmt, machine=NARWHAL, nprocs=256, kv_bytes=kv_bytes, data_per_proc=960e6,
            residual_fraction=0.5,
        )
    ).slowdown


def test_fig10_base_wins_on_slow_storage_and_dataptr_on_fast():
    """The crossover sits near 340 MB/s per node: a few times below it base
    writes faster, a few times above it DataPtr does."""
    assert fig10_slowdown(FMT_BASE, 1e8) < fig10_slowdown(FMT_DATAPTR, 1e8)
    assert fig10_slowdown(FMT_DATAPTR, 1e9) < fig10_slowdown(FMT_BASE, 1e9)


@pytest.mark.parametrize("storage_bandwidth", [1e8, 3e8, 1e9, 3e9, 1e10])
def test_filterkv_is_ahead_of_dataptr_at_every_storage_bandwidth(storage_bandwidth):
    """FilterKV writes less and ships less than DataPtr: no crossover."""
    assert fig10_slowdown(FMT_FILTERKV, storage_bandwidth) < fig10_slowdown(
        FMT_DATAPTR, storage_bandwidth
    )


def test_fig9_dataptr_loses_to_base_at_16_bytes_and_wins_at_48():
    assert fig9_slowdown(FMT_DATAPTR, 16) > fig9_slowdown(FMT_BASE, 16)
    assert fig9_slowdown(FMT_DATAPTR, 48) < fig9_slowdown(FMT_BASE, 48)


@pytest.mark.parametrize("kv_bytes", [9, 16, 32, 64, 256, 4096])
def test_filterkv_is_ahead_of_base_from_9_bytes_up(kv_bytes):
    assert fig9_slowdown(FMT_FILTERKV, kv_bytes) < fig9_slowdown(FMT_BASE, kv_bytes)
