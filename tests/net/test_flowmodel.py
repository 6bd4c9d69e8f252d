"""Tests for the all-to-all flow model against the paper's Fig. 1d anchors."""

import pytest

from repro.net.flowmodel import pernode_alltoall_bandwidth
from repro.net.topology import ARIES_DRAGONFLY


def bw(cpu, ppn, msg=16384, nnodes=32):
    return pernode_alltoall_bandwidth(cpu, "gni", ARIES_DRAGONFLY, nnodes, ppn, msg)


def test_bandwidth_rises_with_ppn_then_plateaus():
    """Fig. 1d structure: CPU-bound at low PPN, plateau at high PPN."""
    series = [bw("haswell", p).bandwidth for p in (1, 4, 8, 16, 32, 64)]
    assert all(a <= b or abs(a - b) < 1e-6 for a, b in zip(series, series[1:]))
    assert series[-1] == series[-2]  # plateau reached


def test_haswell_ppn1_near_paper_value():
    """Fig. 1d: Haswell at PPN=1, 16 KB messages ≈ 200 MB/s."""
    b = bw("haswell", 1).bandwidth
    assert 120e6 < b < 320e6


def test_knl_plateau_about_3x_below_haswell():
    """Fig. 1d: per-node KNL bandwidth ≈ 3× lower despite 2× the cores."""
    h = bw("haswell", 64).bandwidth
    k = bw("trinity-knl", 64).bandwidth
    assert 2.3 < h / k < 5.0


def test_knl_ppn1_about_4x_below_haswell():
    h = bw("haswell", 1).bandwidth
    k = bw("trinity-knl", 1).bandwidth
    assert 3.0 < h / k < 5.0


def test_bottleneck_labels():
    assert bw("haswell", 1).bottleneck == "cpu"
    assert bw("haswell", 64).bottleneck in ("progress", "wire")


def test_ppn_capped_at_core_count():
    a = bw("narwhal", 4).cpu_limit
    b = bw("narwhal", 16).cpu_limit  # narwhal has 4 cores
    assert a == b


def test_blocking_reduces_cpu_limit():
    p = pernode_alltoall_bandwidth("haswell", "gni", ARIES_DRAGONFLY, 32, 4, 16384, False)
    b = pernode_alltoall_bandwidth("haswell", "gni", ARIES_DRAGONFLY, 32, 4, 16384, True)
    assert b.cpu_limit < p.cpu_limit


def test_invalid_args():
    with pytest.raises(ValueError):
        pernode_alltoall_bandwidth("haswell", "gni", ARIES_DRAGONFLY, 0, 1, 64)
    with pytest.raises(ValueError):
        pernode_alltoall_bandwidth("haswell", "gni", ARIES_DRAGONFLY, 1, 0, 64)
    with pytest.raises(ValueError):
        pernode_alltoall_bandwidth("haswell", "gni", ARIES_DRAGONFLY, 1, 1, 0)
