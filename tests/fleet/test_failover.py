"""Failover: replica promotion, recovery, deadlines, TCP parity.

Crash semantics come from ``repro.faults``: a crashed shard's device
fails every probe, its service answers typed errors, and the router's
breaker + ring order must promote the replicas — emergently, with no
leader election — while every answer stays byte-correct.  The
`FAULT_SEED_OFFSET` environment knob widens the seeded sweep in CI.
"""

import asyncio
import os
import time

import pytest

from repro.fleet import CircuitBreaker, FleetRouter, HashRing
from repro.fleet import router as router_mod
from repro.serve import ANY_EPOCH, DEADLINE_EXCEEDED, OK, ServeResponse

from ..serve.conftest import GatedService

from .conftest import TINY_CACHES, absent_keys, build_fleet, run

SEED_OFFSET = int(os.environ.get("FAULT_SEED_OFFSET", "0"))


@pytest.fixture
def failover_router(monkeypatch):
    """Retry fast, and keep a tripped breaker open for the whole test, so
    the crashed shard stays skipped once its breaker opens."""
    monkeypatch.setattr(router_mod, "BACKOFF_S", 0.0005)
    monkeypatch.setattr(CircuitBreaker, "COOLDOWN_S", 30.0)


@pytest.mark.usefixtures("failover_router")
@pytest.mark.parametrize("case", range(3))
def test_replica_promotion_under_crash(case):
    seed = 17 + 13 * case + SEED_OFFSET
    fleet, dumps, truth = build_fleet(
        nshards=3,
        rf=2,
        epochs=1,
        seed=seed,
        service_kwargs=TINY_CACHES,
    )
    victim = case % 3
    keys = sorted(truth)[::3]
    victim_keys = [k for k in keys if victim in fleet.ring.owners(k, fleet.rf)]
    assert victim_keys, "seeded dataset left the victim shard empty?"
    primary_keys = [k for k in victim_keys if fleet.ring.owners(k, fleet.rf)[0] == victim]
    assert primary_keys, "seeded dataset made the victim primary of nothing?"

    async def go():
        async with fleet:
            router = fleet.router
            fleet.crash_shard(victim)
            for k in keys:
                r = await router.get(k, epoch=ANY_EPOCH)
                assert r.status == OK, (k, r)
                assert r.value == truth[k], f"key {k} wrong during crash"
            st = router.stats()
            assert st["failovers"] > 0
            assert st["breakers"][str(victim)] == "open"
            assert st["requests"]["error"] == 0

            await fleet.recover_shard(victim)
            st = router.stats()
            assert st["breakers"][str(victim)] == "closed"
            assert fleet.shards[victim].last_recovery is not None
            for k in victim_keys:
                r = await router.get(k, epoch=ANY_EPOCH)
                assert r.status == OK and r.value == truth[k], (
                    f"key {k} wrong after recovery"
                )
            # The recovered shard serves again: its breaker closed, so ring
            # order sends it the keys it is primary for, and only those.
            served = fleet.shards[victim].service.stats()["requests"]
            assert served[OK] == sum(served.values()) == len(primary_keys)

    run(go())


@pytest.mark.usefixtures("failover_router")
def test_crash_with_rf1_loses_availability_not_correctness():
    """Sanity check on the replication claim itself: with rf=1 there is
    no replica to promote, so a crashed primary's keys become typed
    errors — never wrong bytes."""
    fleet, dumps, truth = build_fleet(
        nshards=2,
        rf=1,
        epochs=1,
        seed=61,
        service_kwargs=TINY_CACHES,
    )

    async def go():
        async with fleet:
            fleet.crash_shard(0)
            statuses = {}
            for k in sorted(truth)[::5]:
                r = await fleet.router.get(k, epoch=ANY_EPOCH)
                statuses.setdefault(r.status, 0)
                statuses[r.status] += 1
                if r.status == OK:
                    assert r.value == truth[k]
                else:
                    assert r.status == "error"
                    assert fleet.ring.owners(k, 1) == [0]
            assert statuses.get("error", 0) > 0, statuses
            assert statuses.get(OK, 0) > 0, statuses

    run(go())


def test_deadline_read_waits_on_a_slow_primary_alone():
    """A routed read carries its deadline to the shard: a primary that
    sits on it answers its own ``deadline_exceeded`` within the deadline
    plus scheduling slack, and the walk stops there — the replica is not
    asked."""
    fleet, dumps, truth = build_fleet(nshards=2, rf=2, epochs=1, seed=23)
    key = next(iter(sorted(truth)))
    primary, replica = fleet.ring.owners(key, fleet.rf)
    deadline_s = 0.2

    async def go():
        # The primary's dispatcher waits for a gate nobody opens, so the
        # key's probe stays queued until its deadline timer answers it.
        fleet.shards[primary].service = GatedService(fleet.shards[primary].store)
        async with fleet:
            router = fleet.router
            t0 = time.perf_counter()
            r = await router.get(key, epoch=ANY_EPOCH, deadline_s=deadline_s)
            elapsed = time.perf_counter() - t0
            assert r.status == DEADLINE_EXCEEDED, r
            assert deadline_s <= elapsed < deadline_s + 0.5
            st = router.stats()
            assert st["failovers"] == 0 and st["retries"] == 0
            assert sum(fleet.shards[replica].service.stats()["requests"].values()) == 0
            assert fleet.shards[primary].service.stats()["requests"][DEADLINE_EXCEEDED] == 1

    run(go())


class _Answering:
    """A shard client that answers every key."""

    async def get(self, key, epoch=None, deadline_s=None, trace=None):
        return ServeResponse(OK, int(key), epoch, value=b"v")


def test_deadline_read_skips_an_owner_without_a_client():
    """A ring owner with no client has no breaker either: a read with a
    deadline skips it as a read without one does, instead of raising."""
    client = _Answering()
    router = FleetRouter({0: client, 1: client}, HashRing([0, 1, 2]), rf=2)
    assert router.ring.owners(6, 2) == [2, 0]
    for deadline_s in (None, 1.0):
        r = run(router.get(6, deadline_s=deadline_s))
        assert (r.status, r.value) == (OK, b"v"), (deadline_s, r)


def test_tcp_fleet_matches_truth():
    """Same drill over real sockets: shards behind `ServeServer`, the
    router speaking the sealed-frame protocol on both sides."""
    fleet, dumps, truth = build_fleet(
        nshards=2, rf=2, epochs=1, records=150, seed=19, tcp=True
    )
    keys = sorted(truth)[::4] + absent_keys(truth, n=8)

    async def go():
        async with fleet:
            for k in keys:
                r = await fleet.router.get(k, epoch=ANY_EPOCH)
                if k in truth:
                    assert r.status == OK and r.value == truth[k]
                else:
                    assert r.status == "not_found"
            assert fleet.router.stats()["failovers"] == 0
            # Rollup sanity: shard serve.* totals surface as fleet.*.
            rolled = fleet.rollup()
            assert rolled.total("fleet.requests") >= len(keys)

    run(go())


@pytest.mark.usefixtures("failover_router")
def test_reset_shard_connection_fails_over_tcp():
    """A shard whose TCP link was reset is a transport fault, not a hang:
    every call on the dead client raises at once, the breaker opens, and
    the replica answers every key."""
    fleet, dumps, truth = build_fleet(
        nshards=2,
        rf=2,
        epochs=1,
        records=150,
        seed=29,
        tcp=True,
    )
    victim = 0
    keys = sorted(truth)[::4]

    async def go():
        async with fleet:
            router, client = fleet.router, fleet.clients[victim]
            client._writer.transport.abort()
            await asyncio.wait_for(asyncio.shield(client._pump), 5)
            for k in keys:
                # No deadline on purpose: a wedged call would hang the walk.
                r = await asyncio.wait_for(router.get(k, epoch=ANY_EPOCH), 5)
                assert r.status == OK and r.value == truth[k], (k, r)
            st = router.stats()
            assert st["breakers"][str(victim)] == "open"
            assert st["failovers"] > 0 and st["requests"]["error"] == 0
            assert client._waiting == {} and client._runs == [] and client._batches == {}

    run(go())
