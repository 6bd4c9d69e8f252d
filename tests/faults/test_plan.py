"""Unit tests for deterministic fault plans."""

import pytest

from repro.faults import FAULT_KINDS, FaultPlan, FaultSpec


def test_spec_validation():
    with pytest.raises(ValueError):
        FaultSpec("meteor_strike")
    with pytest.raises(ValueError):
        FaultSpec("crash", op=-1)


def test_spec_eligibility_by_op_and_pattern():
    s = FaultSpec("crash", op=5, pattern="part.*")
    assert not s.eligible(4, "part.000.000000", "append")  # too early
    assert not s.eligible(5, "vlog.000000", "append")  # wrong extent
    assert s.eligible(5, "part.000.000000", "append")
    assert s.eligible(9, "part.000.000001", "read")  # >= op, any later op


def test_torn_append_never_fires_on_read():
    s = FaultSpec("torn_append", op=0)
    assert not s.eligible(3, "x", "read")
    assert s.eligible(3, "x", "append")


def test_take_is_one_shot_and_ordered():
    plan = FaultPlan(seed=1).add(FaultSpec("io_error", op=0)).crash_at(0)
    first = plan.take(0, "x", "append")
    assert first.kind == "io_error" and first.fired_at == 0
    second = plan.take(1, "x", "append")
    assert second.kind == "crash"
    assert plan.take(2, "x", "append") is None
    assert [s.kind for s in plan.fired] == ["io_error", "crash"]
    assert all(s.fired for s in plan.specs)


def test_fluent_helpers_arm_all_kinds():
    plan = (
        FaultPlan(seed=0)
        .crash_at(1)
        .add(FaultSpec("torn_append", op=2))
        .add(FaultSpec("bit_flip", op=3))
        .add(FaultSpec("drop_extent", op=4))
        .add(FaultSpec("io_error", op=5))
    )
    assert [s.kind for s in plan.specs] == [
        "crash",
        "torn_append",
        "bit_flip",
        "drop_extent",
        "io_error",
    ]
    assert sorted(s.kind for s in plan.specs) == sorted(FAULT_KINDS)
    assert len(plan) == 5


def test_rng_for_is_stable_per_op():
    plan = FaultPlan(seed=3)
    assert plan.rng_for(9).integers(1 << 30) == plan.rng_for(9).integers(1 << 30)
    assert plan.rng_for(9).integers(1 << 30) != plan.rng_for(10).integers(1 << 30)
