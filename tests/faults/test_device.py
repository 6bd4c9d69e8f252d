"""Per-kind trigger tests for the fault-injecting storage device.

Each fault kind is armed, demonstrably fires (observable damage or
exception), and is counted under ``faults.injected{kind=...}`` in the
obs registry — the acceptance check that injection is real, not skipped.
"""

import pytest

from repro.faults import CrashPoint, FaultPlan, FaultSpec, FaultyStorageDevice
from repro.obs import MetricsRegistry
from repro.storage.blockio import ExtentLostError


def _device(plan):
    metrics = MetricsRegistry()
    return FaultyStorageDevice(plan, metrics=metrics), metrics


def _injected(metrics, kind):
    return metrics.counter("faults.injected", kind=kind).value


def test_no_plan_behaves_like_plain_device():
    dev = FaultyStorageDevice()
    dev.create("x")
    dev.append("x", b"hello")
    assert dev.read("x", 0, 5) == b"hello"
    assert dev.op_index == 2
    assert not dev.crashed


def test_crash_halts_io_until_revive():
    dev, metrics = _device(FaultPlan(seed=1).crash_at(1))
    dev.create("x")
    dev.append("x", b"aaaa")
    with pytest.raises(CrashPoint):
        dev.append("x", b"bbbb")
    assert dev.crashed
    with pytest.raises(CrashPoint):
        dev.read("x", 0, 4)  # everything fails while down
    dev.revive()
    assert dev.read("x", 0, 8) == b"aaaa"  # pre-crash bytes intact, crash op never landed
    assert _injected(metrics, "crash") == 1
    assert metrics.counter("faults.crashes").value == 1


def test_torn_append_keeps_prefix_and_crashes():
    dev, metrics = _device(FaultPlan(seed=2).add(FaultSpec("torn_append", op=1, arg=0.25)))
    dev.create("x")
    dev.append("x", b"A" * 100)
    with pytest.raises(CrashPoint):
        dev.append("x", b"B" * 100)
    dev.revive()
    assert dev.file_size("x") == 125  # first append whole + 25 B of the torn one
    assert dev.read("x", 0, 200) == b"A" * 100 + b"B" * 25
    assert _injected(metrics, "torn_append") == 1


def test_bit_flip_on_append_damages_exactly_one_bit():
    dev, metrics = _device(FaultPlan(seed=3).add(FaultSpec("bit_flip", op=0, pattern="x")))
    dev.create("x")
    dev.append("x", bytes(64))
    got = dev.read("x", 0, 64)
    set_bits = sum(bin(b).count("1") for b in got)
    assert set_bits == 1
    assert _injected(metrics, "bit_flip") == 1


def test_bit_flip_on_read_hits_the_read_range():
    plan = FaultPlan(seed=4).add(FaultSpec("bit_flip", op=1, pattern="x"))
    dev, metrics = _device(plan)
    dev.create("x")
    dev.append("x", bytes(32))  # op 0: clean
    damaged = dev.read("x", 8, 8)  # op 1: flip lands inside [8, 16)
    assert sum(bin(b).count("1") for b in damaged) == 1
    rest = dev.read("x", 0, 8) + dev.read("x", 16, 16)
    assert rest == bytes(24)  # damage confined to the targeted range
    assert _injected(metrics, "bit_flip") == 1


def test_drop_extent_loses_the_file():
    dev, metrics = _device(FaultPlan(seed=5).add(FaultSpec("drop_extent", op=1, pattern="x")))
    dev.create("x")
    dev.append("x", b"data")
    dev.append("x", b"more")  # fires after this op completes
    assert not dev.exists("x")
    with pytest.raises(ExtentLostError):
        dev.read("x", 0, 4)
    assert _injected(metrics, "drop_extent") == 1


def test_io_error_fails_op_but_device_survives():
    dev, metrics = _device(FaultPlan(seed=6).add(FaultSpec("io_error", op=1)))
    dev.create("x")
    dev.append("x", b"keep")
    with pytest.raises(OSError):
        dev.append("x", b"lost")
    assert not dev.crashed
    dev.append("x", b"next")  # retry path: device still works
    assert dev.read("x", 0, 8) == b"keepnext"
    assert _injected(metrics, "io_error") == 1


def test_faults_respect_extent_patterns():
    plan = FaultPlan(seed=7).crash_at(0, pattern="part.*")
    dev, _ = _device(plan)
    dev.create("vlog.000000")
    dev.append("vlog.000000", b"v" * 10)  # does not match, no crash
    dev.create("part.000.000000")
    with pytest.raises(CrashPoint):
        dev.append("part.000.000000", b"p" * 10)


def test_same_seed_same_damage():
    def run(seed):
        dev, _ = _device(FaultPlan(seed=seed).add(FaultSpec("bit_flip", op=0)).add(FaultSpec("torn_append", op=1)))
        dev.create("x")
        dev.append("x", bytes(range(256)))
        try:
            dev.append("x", bytes(range(256)))
        except CrashPoint:
            pass
        dev.revive()
        return dev.read("x", 0, dev.file_size("x"))

    assert run(11) == run(11)
    assert run(11) != run(12)
