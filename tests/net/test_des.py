"""Unit tests for the discrete-event simulation engine."""

import pytest

from repro.net.des import Event, Resource, SimulationError, Simulator


def run_all(sim, procs):
    """Spawn every generator, run the simulation dry, return the results
    (every process must have finished)."""
    handles = [sim.spawn(g) for g in procs]
    sim.run()
    assert all(h.fired for h in handles), "a process never finished"
    return [h.value for h in handles]


def test_timeout_advances_clock():
    sim = Simulator()
    log = []

    def proc():
        yield sim.timeout(1.5)
        log.append(sim.now)
        yield sim.timeout(0.5)
        log.append(sim.now)

    sim.spawn(proc())
    end = sim.run()
    assert log == [1.5, 2.0]
    assert end == 2.0


def test_event_wakes_waiters_with_value():
    sim = Simulator()
    ev = Event(sim)
    got = []

    def waiter():
        v = yield ev
        got.append((sim.now, v))

    def firer():
        yield sim.timeout(3.0)
        ev.succeed("payload")

    sim.spawn(waiter())
    sim.spawn(firer())
    sim.run()
    assert got == [(3.0, "payload")]


def test_waiting_on_already_fired_event():
    sim = Simulator()
    ev = Event(sim)
    ev.succeed(42)
    results = run_all(sim, [iter_wait(ev)])
    assert results == [42]


def iter_wait(ev):
    v = yield ev
    return v


def test_process_join_returns_value():
    sim = Simulator()

    def child():
        yield sim.timeout(2.0)
        return "done"

    def parent():
        v = yield sim.spawn(child())
        return (sim.now, v)

    assert run_all(sim, [parent()]) == [(2.0, "done")]


def test_double_fire_rejected():
    sim = Simulator()
    ev = Event(sim)
    ev.succeed()
    with pytest.raises(SimulationError):
        ev.succeed()


def test_bad_yield_type_rejected():
    sim = Simulator()

    def bad():
        yield 42

    sim.spawn(bad())
    with pytest.raises(SimulationError):
        sim.run()


def test_spawn_requires_generator():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.spawn(lambda: None)


def test_negative_delay_rejected():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.timeout(-1)


def test_run_until_stops_early():
    sim = Simulator()
    fired = []

    def proc():
        yield sim.timeout(10.0)
        fired.append(sim.now)

    sim.spawn(proc())
    assert sim.run(until=5.0) == 5.0
    assert fired == []
    sim.run()
    assert fired == [10.0]


def test_fifo_ordering_at_same_time():
    sim = Simulator()
    order = []

    def proc(tag):
        yield sim.timeout(1.0)
        order.append(tag)

    for tag in ("a", "b", "c"):
        sim.spawn(proc(tag))
    sim.run()
    assert order == ["a", "b", "c"]


def test_resource_serializes_access():
    sim = Simulator()
    res = Resource(sim, capacity=1)
    spans = []

    def worker(tag):
        yield res.request()
        start = sim.now
        yield sim.timeout(1.0)
        res.release()
        spans.append((tag, start, sim.now))

    run_all(sim, [worker(i) for i in range(3)])
    assert [s[1:] for s in spans] == [(0.0, 1.0), (1.0, 2.0), (2.0, 3.0)]


def test_resource_capacity_two():
    sim = Simulator()
    res = Resource(sim, capacity=2)
    done = []

    def worker(tag):
        yield res.request()
        yield sim.timeout(1.0)
        res.release()
        done.append((tag, sim.now))

    run_all(sim, [worker(i) for i in range(4)])
    assert [t for _, t in done] == [1.0, 1.0, 2.0, 2.0]


def test_resource_release_without_request():
    sim = Simulator()
    res = Resource(sim, capacity=1)
    with pytest.raises(SimulationError):
        res.release()


def test_resource_invalid_capacity():
    sim = Simulator()
    with pytest.raises(ValueError):
        Resource(sim, capacity=0)


def test_deadlock_detection():
    sim = Simulator()

    def stuck():
        yield Event(sim)  # never fired

    handle = sim.spawn(stuck())
    sim.run()  # drains: nothing is left to wake the process
    assert not handle.fired
