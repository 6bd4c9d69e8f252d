"""Windowed telemetry ring: the serving hub."""

import pytest

from repro.obs import TimeseriesHub


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


# -- TimeseriesHub ------------------------------------------------------------

STATUSES = ("ok", "not_found", "overloaded")


def _hub(clock):
    return TimeseriesHub(
        STATUSES, answered=("ok", "not_found"), shed=("overloaded",), window_s=10.0, clock=clock
    )


def test_hub_counts_rates_and_shed_rate():
    clock = FakeClock()
    hub = _hub(clock)
    for i in range(8):
        clock.now = i * 0.5
        hub.record("ok", 0.001)
    clock.now = 4.0
    hub.record("overloaded", 0.0)
    hub.record("not_found", 0.002)
    snap = hub.snapshot()
    assert snap["requests"] == 10
    assert snap["counts"] == {"ok": 8, "not_found": 1, "overloaded": 1}
    assert snap["shed_rate"] == pytest.approx(0.1)
    assert snap["qps"] == pytest.approx(10 / 4.0, rel=0.01)


def test_hub_latency_quantiles_cover_answered_only():
    clock = FakeClock()
    hub = _hub(clock)
    hub.record("ok", 0.001)
    hub.record("not_found", 0.003)
    hub.record("overloaded", 9.0)  # sheds must not pollute latency
    lat = hub.snapshot()["latency_ms"]
    assert lat["count"] == 2
    assert lat["max"] == pytest.approx(3.0)
    assert set(lat) >= {"p50", "p95", "p99", "mean"}


def test_hub_window_override_and_aging():
    clock = FakeClock()
    hub = _hub(clock)
    clock.now = 0.0
    hub.record("ok", 0.001)
    clock.now = 8.0
    hub.record("ok", 0.001)
    assert hub.snapshot()["requests"] == 2  # both inside 10 s
    assert hub.snapshot(window_s=5.0)["requests"] == 1
    clock.now = 30.0
    assert hub.snapshot()["requests"] == 0
    assert hub.snapshot()["shed_rate"] == 0.0


def test_hub_rejects_unknown_statuses():
    with pytest.raises(ValueError):
        TimeseriesHub(())
    with pytest.raises(ValueError):
        TimeseriesHub(("ok",), shed=("nope",))
    hub = _hub(FakeClock())
    with pytest.raises(KeyError):
        hub.record("mystery", 0.0)
