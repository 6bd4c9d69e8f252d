"""Unit tests for the metrics registry and instruments."""

import pytest

from repro.obs import (
    NULL_REGISTRY,
    MetricsRegistry,
    NullRegistry,
    active,
    get_default_registry,
    set_default_registry,
)


def test_counter_accumulates_and_rejects_negative():
    reg = MetricsRegistry()
    c = reg.counter("x.count")
    c.inc()
    c.inc(4)
    assert c.value == 5
    with pytest.raises(ValueError):
        c.inc(-1)


def test_same_name_and_labels_is_same_instrument():
    reg = MetricsRegistry()
    assert reg.counter("a", rank=1) is reg.counter("a", rank=1)
    assert reg.counter("a", rank=1) is not reg.counter("a", rank=2)
    assert len(reg) == 2


def test_kind_conflict_rejected():
    reg = MetricsRegistry()
    reg.counter("x")
    with pytest.raises(ValueError):
        reg.gauge("x")


def test_gauge_moves_both_ways():
    g = MetricsRegistry().gauge("level")
    g.set(10)
    g.dec(3)
    g.inc()
    assert g.value == 8


def test_histogram_quantiles_interpolated():
    h = MetricsRegistry().histogram("lat")
    for v in range(1, 101):  # 1..100
        h.observe(v)
    assert h.count == 100
    assert h.mean == pytest.approx(50.5)
    assert h.quantile(0.0) == 1
    assert h.quantile(1.0) == 100
    assert h.quantile(0.5) == pytest.approx(50.5)
    assert h.quantile(0.9) == pytest.approx(90.1)
    with pytest.raises(ValueError):
        h.quantile(1.5)


def test_histogram_observe_many_is_observe_in_order():
    reg = MetricsRegistry()
    one, many = reg.histogram("one"), reg.histogram("many")
    values = [3, 0, 1.5, 7, 0, 2]
    for v in values:
        one.observe(v)
    many.observe_many(values)
    many.observe_many([])
    assert one._state() == many._state()
    null = NullRegistry().histogram("c")
    null.observe_many(values)
    assert null.count == 0


def test_empty_histogram_is_all_zero():
    h = MetricsRegistry().histogram("empty")
    assert h.count == 0 and h.mean == 0.0 and h.quantile(0.5) == 0.0


def test_merge_adds_rank_labels_and_sums():
    world = MetricsRegistry("world")
    for rank in range(4):
        local = MetricsRegistry()
        local.counter("pipeline.records").inc(100 * (rank + 1))
        local.histogram("lat").observe(rank)
        world.merge(local, rank=rank)
    assert len(world) == 8  # 4 ranks x 2 series
    assert world.total("pipeline.records") == 1000
    assert world.total("pipeline.records", rank=2) == 300


def test_rollup_drops_label_and_combines():
    world = MetricsRegistry()
    for rank in range(4):
        world.counter("c", rank=rank, format="filterkv").inc(10)
        world.histogram("h", rank=rank).observe(rank)
    rolled = world.rollup("rank")
    assert len(rolled) == 2
    assert rolled.counter("c", format="filterkv").value == 40
    assert rolled.histogram("h").count == 4
    # original untouched
    assert len(world) == 8


def test_null_registry_accumulates_nothing():
    null = NullRegistry()
    null.counter("a").inc(5)
    null.gauge("b").set(3)
    null.histogram("c").observe(1)
    assert len(null) == 0
    assert null.counter("a").value == 0
    assert null.histogram("c").count == 0
    assert null.rollup("rank") is null
    assert null.merge(MetricsRegistry()) is null


def test_active_normalizes_none():
    assert active(None) is NULL_REGISTRY
    reg = MetricsRegistry()
    assert active(reg) is reg


def test_default_registry_install_and_restore():
    assert get_default_registry() is NULL_REGISTRY
    reg = MetricsRegistry("run")
    prev = set_default_registry(reg)
    try:
        assert get_default_registry() is reg
    finally:
        set_default_registry(prev)
    assert get_default_registry() is NULL_REGISTRY
    # None clears back to the null registry
    set_default_registry(MetricsRegistry())
    set_default_registry(None)
    assert get_default_registry() is NULL_REGISTRY


def test_histogram_summary_quantiles():
    reg = MetricsRegistry()
    h = reg.histogram("lat")
    for v in range(1, 101):
        h.observe(float(v))
    assert h.count == 100
    assert h.quantile(0.5) == pytest.approx(50.5)
    assert h.quantile(0.95) == pytest.approx(95.05)
    assert h.quantile(0.99) == pytest.approx(99.01)
    assert h.max == 100.0


def test_rollup_pools_histogram_observations_for_quantiles():
    reg = MetricsRegistry()
    reg.histogram("lat", rank=0).observe(1.0)
    reg.histogram("lat", rank=1).observe(3.0)
    pooled = reg.rollup("rank").histogram("lat")
    assert pooled.count == 2
    assert pooled.quantile(0.5) == pytest.approx(2.0)
    assert pooled.quantile(0.95) == pytest.approx(2.9)
