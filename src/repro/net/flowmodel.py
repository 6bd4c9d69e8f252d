"""Analytic flow model for bulk transfers (write phase, Fig. 1d bandwidth).

The big parameter sweeps (Figs. 8–10) move millions of batched RPCs; a
pure-Python DES cannot push that many events, and doesn't need to: what
determines the write phase is which *resource* saturates.  This module
computes per-node steady-state bandwidths from three candidate
bottlenecks, mirroring the paper's analysis:

1. **CPU** — each core sustains ``1 / (send_cost + recv_cost)`` messages
   per second, and in an all-to-all every sent message is matched by a
   received one;
2. **progress path** — a per-node message-rate ceiling that scales with
   single-thread speed (one interrupt queue / polling thread, paper §I);
3. **wire** — NIC bandwidth derated by the topology's all-to-all
   efficiency at that job size.

The DES in `repro.net.rpc` cross-validates this model at small scale
(see tests/net/test_flow_vs_des.py).
"""

from __future__ import annotations

from dataclasses import dataclass

from .cpu import CPUS, TRANSPORTS, CpuProfile, TransportProfile, rpc_cpu_time
from .topology import DragonflyTopology, FatTreeTopology

__all__ = ["AllToAllModel", "pernode_alltoall_bandwidth"]

Topology = FatTreeTopology | DragonflyTopology


@dataclass(frozen=True)
class AllToAllModel:
    """Per-node bandwidth breakdown for an all-to-all exchange (bytes/s)."""

    cpu_limit: float
    progress_limit: float
    wire_limit: float

    @property
    def bandwidth(self) -> float:
        return min(self.cpu_limit, self.progress_limit, self.wire_limit)

    @property
    def bottleneck(self) -> str:
        b = self.bandwidth
        if b == self.wire_limit:
            return "wire"
        if b == self.progress_limit:
            return "progress"
        return "cpu"


def pernode_alltoall_bandwidth(
    cpu: str | CpuProfile,
    transport: str | TransportProfile,
    topology: Topology,
    nnodes: int,
    ppn: int,
    msg_bytes: int,
    blocking: bool = False,
) -> AllToAllModel:
    """Steady-state per-node shuffle bandwidth during uniform all-to-all.

    Reproduces Fig. 1d's structure: bandwidth rises with PPN while CPU-bound,
    then plateaus at whichever of the progress-path or wire limits is lower
    — ~3× lower on KNL than Haswell because the progress ceiling scales
    with single-thread speed.
    """
    cpu_p = CPUS[cpu] if isinstance(cpu, str) else cpu
    tr_p = TRANSPORTS[transport] if isinstance(transport, str) else transport
    if nnodes < 1 or ppn < 1:
        raise ValueError("nnodes and ppn must be >= 1")
    if msg_bytes <= 0:
        raise ValueError("msg_bytes must be positive")

    per_msg_cpu = 2 * rpc_cpu_time(cpu_p, tr_p, msg_bytes, blocking)  # send + recv
    active_cores = min(ppn, cpu_p.cores_per_node)
    cpu_limit = active_cores * msg_bytes / per_msg_cpu

    # The progress-path ceiling is a software message rate, so a heavier
    # transport stack (TCP's kernel path) lowers it proportionally.
    stack_factor = 1.0 + tr_p.sw_overhead_us / cpu_p.rpc_base_us
    progress_limit = (cpu_p.progress_msgs_per_s / cpu_p.slowdown / stack_factor) * msg_bytes

    wire = tr_p.link_bandwidth_gbps * 1e9 / 8
    wire_limit = wire * topology.alltoall_efficiency(nnodes)

    return AllToAllModel(cpu_limit, progress_limit, wire_limit)
