"""A small discrete-event simulation engine (generator coroutines).

The RPC microbenchmarks (paper Fig. 1) are reproduced by *simulating* the
message exchange rather than timing real sockets: per-message CPU costs,
wire latency, serialization and context switches are charged explicitly.
This module provides the event loop those simulations run on.

Processes are Python generators that ``yield`` the thing they wait for:

* ``sim.timeout(dt)`` — resume after ``dt`` simulated seconds;
* an `Event` — resume when somebody calls ``event.succeed(value)``;
* another `Process` — resume when it finishes (join), receiving its
  return value;
* a `Resource.request()` — resume once the resource is acquired.

Example::

    sim = Simulator()

    def pinger(sim, link):
        yield sim.timeout(1.0)
        link.succeed("ping @ %.1f" % sim.now)

    link = Event(sim)
    sim.spawn(pinger(sim, link))
    sim.run()
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, Generator

__all__ = ["Simulator", "Event", "Process", "Resource", "SimulationError"]


class SimulationError(RuntimeError):
    """Raised for illegal simulator operations (double-fire, bad yields)."""


class Event:
    """A one-shot occurrence processes can wait on."""

    __slots__ = ("sim", "_value", "_fired", "_waiters")

    def __init__(self, sim: "Simulator"):
        self.sim = sim
        self._value: Any = None
        self._fired = False
        self._waiters: list[Process] = []

    @property
    def fired(self) -> bool:
        return self._fired

    @property
    def value(self) -> Any:
        return self._value

    def succeed(self, value: Any = None) -> "Event":
        """Fire the event, waking every waiter at the current time."""
        if self._fired:
            raise SimulationError("event already fired")
        self._fired = True
        self._value = value
        waiters, self._waiters = self._waiters, []
        for proc in waiters:
            self.sim._schedule(0.0, proc._advance, value)
        return self

    def _add_waiter(self, proc: "Process") -> None:
        if self._fired:
            self.sim._schedule(0.0, proc._advance, self._value)
        else:
            self._waiters.append(proc)


class Process(Event):
    """A running coroutine; also an Event that fires when it returns."""

    __slots__ = ("_gen", "name")

    def __init__(self, sim: "Simulator", gen: Generator, name: str = "proc"):
        super().__init__(sim)
        if not isinstance(gen, Generator):
            raise SimulationError(f"spawn() needs a generator, got {type(gen).__name__}")
        self._gen = gen
        self.name = name

    def _advance(self, sent: Any = None) -> None:
        try:
            target = self._gen.send(sent)
        except StopIteration as stop:
            self.succeed(stop.value)
            return
        if isinstance(target, Event):
            target._add_waiter(self)
        else:
            raise SimulationError(
                f"process {self.name!r} yielded {type(target).__name__}; "
                "yield an Event, Process, or sim.timeout(...)"
            )


class Resource:
    """A counted resource (e.g. a CPU core or NIC DMA engine).

    ``request()`` returns an Event that fires when a unit is granted;
    ``release()`` hands the unit to the next waiter (FIFO).
    """

    def __init__(self, sim: "Simulator", capacity: int = 1):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.sim = sim
        self.capacity = capacity
        self._in_use = 0
        self._queue: list[Event] = []

    def request(self) -> Event:
        ev = Event(self.sim)
        if self._in_use < self.capacity:
            self._in_use += 1
            ev.succeed()
        else:
            self._queue.append(ev)
        return ev

    def release(self) -> None:
        if self._in_use <= 0:
            raise SimulationError("release() without matching request()")
        if self._queue:
            self._queue.pop(0).succeed()
        else:
            self._in_use -= 1


class Simulator:
    """Event loop with a virtual clock."""

    def __init__(self):
        self._now = 0.0
        self._seq = 0
        self._heap: list[tuple[float, int, Callable, tuple]] = []

    @property
    def now(self) -> float:
        return self._now

    def _schedule(self, delay: float, fn: Callable, *args: Any) -> None:
        if delay < 0:
            raise SimulationError(f"cannot schedule into the past (delay={delay})")
        self._seq += 1
        heapq.heappush(self._heap, (self._now + delay, self._seq, fn, args))

    def timeout(self, delay: float) -> Event:
        """An event that fires ``delay`` simulated seconds from now."""
        ev = Event(self)
        self._schedule(delay, ev.succeed)
        return ev

    def spawn(self, gen: Generator, name: str = "proc") -> Process:
        """Start a coroutine process immediately (at the current time)."""
        proc = Process(self, gen, name=name)
        self._schedule(0.0, proc._advance, None)
        return proc

    def run(self, until: float | None = None) -> float:
        """Drain events; returns the final clock value.

        With ``until``, stops once the next event lies beyond it and leaves
        that event queued (the clock advances to exactly ``until``).
        """
        while self._heap:
            t, _, fn, args = self._heap[0]
            if until is not None and t > until:
                self._now = until
                return self._now
            heapq.heappop(self._heap)
            self._now = t
            fn(*args)
        if until is not None:
            self._now = max(self._now, until)
        return self._now
