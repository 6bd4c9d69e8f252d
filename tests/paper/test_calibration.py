"""Calibration audit: re-derive every tuned constant from its paper anchor.

EXPERIMENTS.md lists the constants the machine model calibrates against
specific numbers in the paper.  `audit()` *recomputes* the quantity each
constant was tuned for and reports predicted vs. target, so a change
anywhere in the model that silently drifts a calibration fails here
rather than quietly skewing a benchmark.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.cluster.burstbuffer import BurstBufferAllocation
from repro.net.cpu import CPUS, TRANSPORTS, rpc_cpu_time
from repro.net.flowmodel import pernode_alltoall_bandwidth
from repro.net.rpc import measure_rpc_latency
from repro.net.topology import ARIES_DRAGONFLY, NARWHAL_FATTREE


@dataclass(frozen=True)
class CalibrationCheck:
    """One anchor: what the model predicts vs what the paper reports."""

    name: str
    predicted: float
    target: float
    tolerance: float  # relative
    source: str

    @property
    def ok(self) -> bool:
        if self.target == 0:
            return self.predicted == 0
        return abs(self.predicted - self.target) / abs(self.target) <= self.tolerance

    def __str__(self) -> str:
        flag = "ok " if self.ok else "OFF"
        return (
            f"[{flag}] {self.name}: predicted {self.predicted:.3g} "
            f"vs target {self.target:.3g} (±{self.tolerance * 100:.0f}%, {self.source})"
        )


def audit() -> list[CalibrationCheck]:
    """Recompute every calibrated anchor."""
    checks: list[CalibrationCheck] = []

    # Fig. 1a: KNL ≈ 4× Haswell small-message RPC latency.
    h = measure_rpc_latency("haswell", "gni", 8, "polling", nmessages=32).mean_us
    k = measure_rpc_latency("trinity-knl", "gni", 8, "polling", nmessages=32).mean_us
    checks.append(CalibrationCheck("knl/haswell RPC latency ratio", k / h, 4.0, 0.15, "Fig. 1a"))

    # Fig. 1d: Haswell PPN=1 at 16 KB ≈ 200 MB/s.
    bw1 = pernode_alltoall_bandwidth("haswell", "gni", ARIES_DRAGONFLY, 32, 1, 16384)
    checks.append(
        CalibrationCheck("haswell PPN=1 bandwidth (MB/s)", bw1.bandwidth / 1e6, 200, 0.3, "Fig. 1d")
    )

    # Fig. 1d: Haswell plateau ≈ 3× the KNL plateau.
    hs = pernode_alltoall_bandwidth("haswell", "gni", ARIES_DRAGONFLY, 32, 64, 16384).bandwidth
    kn = pernode_alltoall_bandwidth("trinity-knl", "gni", ARIES_DRAGONFLY, 32, 64, 16384).bandwidth
    checks.append(CalibrationCheck("haswell/knl plateau ratio", hs / kn, 3.0, 0.4, "Fig. 1d"))

    # LMbench aside (§II): context-heavy paths ~6× slower on KNL.  Our
    # blocking-mode *extra* cost scales with slowdown — check the ratio.
    extra_h = rpc_cpu_time(CPUS["haswell"], TRANSPORTS["gni"], 8, True) - rpc_cpu_time(
        CPUS["haswell"], TRANSPORTS["gni"], 8, False
    )
    extra_k = rpc_cpu_time(CPUS["trinity-knl"], TRANSPORTS["gni"], 8, True) - rpc_cpu_time(
        CPUS["trinity-knl"], TRANSPORTS["gni"], 8, False
    )
    checks.append(
        CalibrationCheck("knl/haswell context-switch cost", extra_k / extra_h, 4.0, 0.05, "§II")
    )

    # Fig. 10 x-axis: 64 compute nodes at ratios 32:1 / 12:1 → 11 / ~29 GB/s.
    lo = BurstBufferAllocation(64, 32.0).aggregate_bandwidth / 1e9
    hi = BurstBufferAllocation(64, 12.0).aggregate_bandwidth / 1e9
    checks.append(CalibrationCheck("burst buffer 32:1 (GB/s)", lo, 11.0, 0.05, "Fig. 10"))
    checks.append(CalibrationCheck("burst buffer 12:1 (GB/s)", hi, 28.0, 0.1, "Fig. 10"))

    # Fig. 8: Narwhal fat-tree efficiency collapse from 16 to 160 nodes.
    e16 = NARWHAL_FATTREE.alltoall_efficiency(16)
    e160 = NARWHAL_FATTREE.alltoall_efficiency(160)
    checks.append(
        CalibrationCheck("narwhal eff(16)/eff(160)", e16 / e160, 8.0, 0.5, "Fig. 8b growth")
    )

    return checks


def test_all_calibration_anchors_hold():
    checks = audit()
    assert len(checks) >= 6
    failures = [str(c) for c in checks if not c.ok]
    assert not failures, "calibration drifted:\n" + "\n".join(failures)


def test_check_formatting():
    checks = audit()
    for c in checks:
        s = str(c)
        assert c.name in s and ("ok" in s or "OFF" in s)
