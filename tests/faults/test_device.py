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
    f = dev.open("x", create=True)
    f.append(b"hello")
    assert f.read(0, 5) == b"hello"
    assert dev.op_index == 2
    assert not dev.crashed


def test_crash_halts_io_until_revive():
    dev, metrics = _device(FaultPlan(seed=1).crash_at(1))
    f = dev.open("x", create=True)
    f.append(b"aaaa")
    with pytest.raises(CrashPoint):
        f.append(b"bbbb")
    assert dev.crashed
    with pytest.raises(CrashPoint):
        f.read(0, 4)  # everything fails while down
    dev.revive()
    assert f.read(0, 8) == b"aaaa"  # pre-crash bytes intact, crash op never landed
    assert _injected(metrics, "crash") == 1
    assert metrics.counter("faults.crashes").value == 1


def test_torn_append_keeps_prefix_and_crashes():
    dev, metrics = _device(FaultPlan(seed=2).add(FaultSpec("torn_append", op=1, arg=0.25)))
    f = dev.open("x", create=True)
    f.append(b"A" * 100)
    with pytest.raises(CrashPoint):
        f.append(b"B" * 100)
    dev.revive()
    assert dev.file_size("x") == 125  # first append whole + 25 B of the torn one
    assert f.read(0, 200) == b"A" * 100 + b"B" * 25
    assert _injected(metrics, "torn_append") == 1


def test_bit_flip_on_append_damages_exactly_one_bit():
    dev, metrics = _device(FaultPlan(seed=3).add(FaultSpec("bit_flip", op=0, pattern="x")))
    f = dev.open("x", create=True)
    f.append(bytes(64))
    got = f.read(0, 64)
    set_bits = sum(bin(b).count("1") for b in got)
    assert set_bits == 1
    assert _injected(metrics, "bit_flip") == 1


def test_bit_flip_on_read_hits_the_read_range():
    plan = FaultPlan(seed=4).add(FaultSpec("bit_flip", op=1, pattern="x"))
    dev, metrics = _device(plan)
    f = dev.open("x", create=True)
    f.append(bytes(32))  # op 0: clean
    damaged = f.read(8, 8)  # op 1: flip lands inside [8, 16)
    assert sum(bin(b).count("1") for b in damaged) == 1
    rest = f.read(0, 8) + f.read(16, 16)
    assert rest == bytes(24)  # damage confined to the targeted range
    assert _injected(metrics, "bit_flip") == 1


def test_drop_extent_loses_the_file():
    dev, metrics = _device(FaultPlan(seed=5).add(FaultSpec("drop_extent", op=1, pattern="x")))
    f = dev.open("x", create=True)
    f.append(b"data")
    f.append(b"more")  # fires after this op completes
    assert not dev.exists("x")
    with pytest.raises(ExtentLostError):
        f.read(0, 4)
    assert _injected(metrics, "drop_extent") == 1


def test_io_error_fails_op_but_device_survives():
    dev, metrics = _device(FaultPlan(seed=6).add(FaultSpec("io_error", op=1)))
    f = dev.open("x", create=True)
    f.append(b"keep")
    with pytest.raises(OSError):
        f.append(b"lost")
    assert not dev.crashed
    f.append(b"next")  # retry path: device still works
    assert f.read(0, 8) == b"keepnext"
    assert _injected(metrics, "io_error") == 1


def test_faults_respect_extent_patterns():
    plan = FaultPlan(seed=7).crash_at(0, pattern="part.*")
    dev, _ = _device(plan)
    v = dev.open("vlog.000000", create=True)
    v.append(b"v" * 10)  # does not match, no crash
    p = dev.open("part.000.000000", create=True)
    with pytest.raises(CrashPoint):
        p.append(b"p" * 10)


def test_same_seed_same_damage():
    def run(seed):
        dev, _ = _device(FaultPlan(seed=seed).add(FaultSpec("bit_flip", op=0)).add(FaultSpec("torn_append", op=1)))
        f = dev.open("x", create=True)
        f.append(bytes(range(256)))
        try:
            f.append(bytes(range(256)))
        except CrashPoint:
            pass
        dev.revive()
        return f.read(0, dev.file_size("x"))

    assert run(11) == run(11)
    assert run(11) != run(12)
