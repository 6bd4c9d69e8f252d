"""The router's burst walk against one `get` per key, under faults.

`FleetRouter.get_burst` walks a whole burst hop by hop, one `get_burst`
call per shard, epoch and deadline; `FleetRouter.get` is the same walk of
one request.  Whatever the faults, the two must agree key for key: the
same answers, the same ``fleet.router.*`` counters and the same outcomes
fed to each shard's breaker.  The sweep is seeded from
`FAULT_SEED_OFFSET`, like the other fault sweeps, so CI's matrix sweeps
disjoint seeds.
"""

import asyncio
import os
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

from repro.fleet import CircuitBreaker
from repro.fleet import router as router_mod
from repro.obs import TraceContext
from repro.serve import ANY_EPOCH, ERR_INTERNAL, ERROR, ServeResponse

from .conftest import absent_keys, build_fleet, run
from .test_router import ROUTER_COUNTERS, _Overloaded

SEED_OFFSET = int(os.environ.get("FAULT_SEED_OFFSET", "0"))

NSHARDS, RF = 6, 3


class _Flaky:
    """A shard that answers each key's first ask with a retryable shard
    fault (``internal``) and every later ask as the shard itself."""

    def __init__(self, inner):
        self._inner = inner
        self._asked: set[int] = set()

    async def get_burst(self, requests):
        fresh = [r[0] not in self._asked for r in requests]
        self._asked.update(r[0] for r in requests)
        answered = iter(await self._inner.get_burst([r for r, f in zip(requests, fresh) if not f]))
        return [
            ServeResponse(ERROR, key, epoch, detail="injected", code=ERR_INTERNAL)
            if f else next(answered)
            for (key, epoch, *_), f in zip(requests, fresh)
        ]


class _Reset:
    """A shard whose link resets under the first burst it carries: over
    TCP the real transport is aborted while that burst is in flight; in
    process every call raises the reset."""

    def __init__(self, inner, tcp: bool):
        self._inner = inner
        self._tcp = tcp

    async def get_burst(self, requests):
        if not self._tcp:
            raise ConnectionResetError("injected reset")
        transport = self._inner._writer.transport if self._inner._writer else None
        if transport is not None:
            asyncio.get_running_loop().call_soon(transport.abort)
        return await self._inner.get_burst(requests)


def _requests(keys, rng):
    """Mixed epochs (newest, any, each committed one, one never
    committed), deadlines (none, generous, expired) and a few traced."""
    out = []
    for i, key in enumerate(keys):
        epoch = rng.choice([None, ANY_EPOCH, ANY_EPOCH, 0, 1, 99], p=[0.2, 0.3, 0.2, 0.1, 0.1, 0.1])
        deadline = rng.choice([None, 5.0, 0.0], p=[0.6, 0.35, 0.05])
        trace = TraceContext(f"{i:016x}", f"{i:08x}") if rng.random() < 0.06 else None
        out.append((key, None if epoch is None else int(epoch),
                    None if deadline is None else float(deadline), trace))
    return out


def _tally(router) -> Counter:
    """Count every outcome fed to each shard's breaker."""
    tally = Counter()
    for sid, breaker in router.breakers.items():
        def record(ok, sid=sid, inner=breaker.record):
            tally[sid, ok] += 1
            inner(ok)
        breaker.record = record
    return tally


@pytest.fixture
def sweep_router(monkeypatch):
    """Retry fast, and trip no breaker on faults: when a tripped breaker
    starts to skip a shard depends on how the faults interleave with the
    walks, not on the walk's rules.  The breaker the sweep opens, it opens
    by hand."""
    monkeypatch.setattr(router_mod, "BACKOFF_S", 0.0005)
    monkeypatch.setattr(CircuitBreaker, "THRESHOLD", 1 << 30)


@pytest.mark.usefixtures("sweep_router")
@pytest.mark.parametrize("tcp", [False, True], ids=["inproc", "tcp"])
@pytest.mark.parametrize("case", range(3))
def test_burst_walk_equals_one_get_per_key_under_faults(case, tcp):
    seed = 71 + 17 * case + SEED_OFFSET
    rng = np.random.default_rng(seed)
    flaky, reset, refusing, blocked, missing = (int(s) for s in rng.permutation(NSHARDS)[:5])

    async def answer(burst: bool):
        fleet, dumps, truth = build_fleet(nshards=NSHARDS, rf=RF, epochs=2, records=160,
                                          seed=seed, tcp=tcp)
        async with fleet:
            router = fleet.router
            clients = fleet.clients
            clients[flaky] = _Flaky(clients[flaky])
            clients[reset] = _Reset(clients[reset], tcp)
            clients[refusing] = _Overloaded(clients[refusing])
            breaker = router.breakers[blocked]
            breaker.open_until = breaker.clock() + 3600
            del clients[missing]
            tally = _tally(router)
            keys = sorted(truth)[::3] + absent_keys(truth, n=12, seed=seed)
            requests = _requests(keys, np.random.default_rng(seed + 1))
            if burst:
                responses = await asyncio.wait_for(router.get_burst(requests), 30)
            else:
                responses = await asyncio.wait_for(
                    asyncio.gather(*(router.get(*r) for r in requests)), 30
                )
            stats = router.stats()
            return responses, {name: stats[name] for name in ROUTER_COUNTERS}, tally, requests

    async def main():
        one, one_counters, one_tally, requests = await answer(burst=False)
        many, many_counters, many_tally, _ = await answer(burst=True)
        assert [replace(r, trace=None) for r in many] == [replace(r, trace=None) for r in one]
        assert [r.trace is None for r in many] == [r.trace is None for r in one]
        assert many_counters == one_counters
        assert many_tally == one_tally
        # Every rule of the walk was exercised.
        for name in ("failovers", "retries", "breaker_skips"):
            assert many_counters[name] > 0, name
        assert many_tally[reset, False] > 0 and many_tally[flaky, True] > 0
        traced = [r for r, (*_, trace) in zip(many, requests) if trace is not None]
        assert any(r.trace for r in traced)
        assert {r.status for r in many} >= {"ok", "not_found", "overloaded", "error"}

    run(main())


def test_a_healthy_burst_starts_one_task_per_shard_epoch_and_deadline():
    """A burst starts no task per key: the router's walk starts one task
    per (shard, epoch, deadline) group of first hops, and the in-process
    shards none."""
    fleet, dumps, truth = build_fleet(nshards=3, rf=2, epochs=2, seed=59)
    keys = sorted(truth)[::2]
    requests = [
        (k, (None, ANY_EPOCH)[i % 2], (None, 5.0)[i % 3 == 0], None) for i, k in enumerate(keys)
    ]
    primaries = fleet.ring.owners_many(np.asarray(keys, dtype=np.uint64), fleet.rf)[:, 0]
    groups = {(p, epoch, deadline) for p, (_, epoch, deadline, _) in zip(primaries.tolist(), requests)}

    async def go():
        async with fleet:
            loop = asyncio.get_running_loop()
            started = []

            def factory(loop, coro, **kwargs):
                started.append(coro)
                return asyncio.Task(coro, loop=loop, **kwargs)

            loop.set_task_factory(factory)
            try:
                responses = await fleet.router.get_burst(requests)
            finally:
                loop.set_task_factory(None)
            assert fleet.router.stats()["failovers"] == 0
            assert {r.status for r in responses} == {"ok", "not_found"}
            return started

    started = run(go())
    assert len(keys) > 10 * len(groups)
    assert len(started) <= len(groups) + 1, [c.__qualname__ for c in started]
