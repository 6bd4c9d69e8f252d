"""Router correctness: sharding must be invisible.

The core contract under test: a fleet answers every query byte-identically
to one unsharded store holding the same dumps — for every registered aux
backend, for legacy cuckoo epochs beside csf ones, for absent keys, and for epochs
committed behind a live router (every ring owner holds its keys, so the
router needs no state that a commit could leave behind).
"""

import asyncio
from dataclasses import replace

import numpy as np
import pytest

from repro.core.auxtable import AUX_BACKENDS
from repro.core.kv import random_kv_batch
from repro.cli import _render_fleet_top_frame
from repro.fleet import CircuitBreaker
from repro.serve import (
    ANY_EPOCH,
    ERR_BAD_REQUEST,
    ERR_EPOCH_RETIRED,
    ERROR,
    NOT_FOUND,
    OK,
    OVERLOADED,
    ServeResponse,
)

from ..legacy import store_seals
from .conftest import VB, absent_keys, build_fleet, make_dumps, merged_store, run

BACKENDS = sorted(AUX_BACKENDS)


async def _assert_matches_oracle(fleet, oracle, truth, keys):
    async with fleet:
        for k in keys:
            r = await fleet.router.get(k, epoch=ANY_EPOCH)
            want = oracle.lookup(int(k))[0]
            if want is None:
                assert k not in truth
                assert r.status == NOT_FOUND, (k, r)
            else:
                assert r.status == OK, (k, r)
                assert r.value == want == truth[k], f"key {k} diverged"
        return fleet.router.stats()


@pytest.mark.parametrize("backend", BACKENDS)
def test_fleet_matches_merged_store(backend):
    with store_seals(backend):
        fleet, dumps, truth = build_fleet(seed=11)
        oracle = merged_store(dumps, seed=11)
    keys = sorted(truth)[::7] + absent_keys(truth)
    stats = run(_assert_matches_oracle(fleet, oracle, truth, keys))
    # Every owner holds its keys, so a healthy fleet never fails over.
    assert stats["failovers"] == 0
    oracle.close()


def test_a_healthy_fleet_asks_each_key_of_its_ring_primary_alone():
    """Every ring owner is a full replica, so a healthy fleet asks each key
    of its ring primary and of no one else: each shard serves exactly the
    keys it is primary for, nothing fails over, and every answer is the
    merged store's, present or absent."""
    fleet, dumps, truth = build_fleet(nshards=3, rf=2, epochs=4, seed=37)
    oracle = merged_store(dumps, seed=37)
    keys = sorted(truth)[::2] + absent_keys(truth, n=64)
    primaries = fleet.ring.owners_many(np.asarray(keys, dtype=np.uint64), fleet.rf)[:, 0]

    async def go():
        async with fleet:
            responses = await fleet.router.get_burst([(k, ANY_EPOCH, None, None) for k in keys])
            asked = {
                sid: sum(node.service.stats()["requests"].values())
                for sid, node in fleet.shards.items()
            }
            return responses, asked, fleet.router.stats()

    responses, asked, stats = run(go())
    assert asked == {sid: int((primaries == sid).sum()) for sid in fleet.shards}
    assert stats["failovers"] == 0
    for k, r in zip(keys, responses):
        want = oracle.lookup(int(k))[0]
        assert (r.status, r.value) == ((NOT_FOUND, None) if want is None else (OK, want)), k
    oracle.close()


def test_mixed_backend_epochs_match_merged_store():
    """Legacy cuckoo epochs live beside csf ones: each shard reads each
    epoch's aux tables as their blobs name them, so a fleet whose epochs
    alternate the two routes like any other."""
    per_epoch = ["cuckoo", "csf", "cuckoo"]
    fleet, dumps, truth = build_fleet(seed=31, epochs=len(per_epoch), ingest=False)
    oracle = merged_store(dumps[:0], seed=31)
    for backend, dump in zip(per_epoch, dumps):
        with store_seals(backend):
            fleet.ingest(dump)
            writer = np.arange(len(dump)) % 2
            oracle.write_epoch([dump.select(writer == r) for r in range(2)])
    for store in [node.store for node in fleet.shards.values()] + [oracle]:
        sealed = [{t.backend for t in store.engine(e).aux_tables} for e in store.epochs]
        assert sealed == [{backend} for backend in per_epoch]
    keys = sorted(truth)[::9] + absent_keys(truth, n=8)
    run(_assert_matches_oracle(fleet, oracle, truth, keys))
    oracle.close()


def test_commit_behind_a_live_router_is_answered_and_pulls_nothing():
    """A commit behind a live router is answered byte-correctly with
    nothing pulled or refreshed: the router holds no per-epoch state, and
    the ring owners hold the new epoch's keys."""
    fleet, dumps, truth = build_fleet(seed=13, epochs=1)

    async def go():
        async with fleet:
            router = fleet.router
            extra = random_kv_batch(120, VB, np.random.default_rng(77))
            fleet.ingest(extra)
            new_truth = {int(k): extra.value_of(i) for i, k in enumerate(extra.keys)}
            for k in sorted(new_truth)[:20]:
                r = await router.get(k, epoch=ANY_EPOCH)
                assert r.status == OK and r.value == new_truth[k]
            for k in sorted(truth)[:20]:
                r = await router.get(k, epoch=ANY_EPOCH)
                assert r.status == OK and r.value == truth[k]

    run(go())


class _Overloaded:
    """A shard that is alive but refuses everything."""

    def __init__(self, inner):
        self._inner = inner

    async def get_burst(self, requests):
        return [ServeResponse(OVERLOADED, int(key), epoch) for key, epoch, *_ in requests]

    def __getattr__(self, name):
        return getattr(self._inner, name)


ROUTER_COUNTERS = ("scatter", "failovers", "retries", "breaker_skips", "requests")


@pytest.mark.parametrize("tcp", [False, True], ids=["inproc", "tcp"])
def test_get_burst_equals_one_get_per_key(tcp):
    """`FleetRouter.get_burst` answers a burst, and counts it, exactly as
    one `get` per key does — with one shard behind an open breaker and one
    shard answering ``overloaded``."""
    blocked, refusing = 0, 1

    async def answer(burst: bool):
        fleet, dumps, truth = build_fleet(nshards=4, rf=2, epochs=2, seed=43, tcp=tcp)
        async with fleet:
            router = fleet.router
            breaker = router.breakers[blocked]
            breaker.open_until = breaker.clock() + 3600
            fleet.clients[refusing] = _Overloaded(fleet.clients[refusing])
            keys = sorted(truth)[::5] + absent_keys(truth, n=12)
            requests = [
                (k, ANY_EPOCH if i % 3 else None, 5.0 if i % 11 == 0 else None, None)
                for i, k in enumerate(keys)
            ]
            before = router.stats()
            if burst:
                responses = await router.get_burst(requests)
            else:
                responses = await asyncio.gather(*(router.get(*r) for r in requests))
            after = router.stats()
            counters = {name: after[name] for name in ROUTER_COUNTERS}
            assert before["requests"] == dict.fromkeys(before["requests"], 0)
            owners = [fleet.ring.owners(k, fleet.rf) for k in keys]
            return responses, counters, requests, owners, truth

    async def main():
        one, one_counters, requests, owners, truth = await answer(burst=False)
        many, many_counters, *_ = await answer(burst=True)
        assert many == one
        assert many_counters == one_counters
        # Every rule of the walk was exercised.
        for name in ("scatter", "failovers", "breaker_skips"):
            assert many_counters[name] > 0, name
        statuses = many_counters["requests"]
        assert statuses[OVERLOADED] > 0 and statuses[OK] > 0 and statuses[NOT_FOUND] > 0
        for (key, epoch, *_), shards, r in zip(requests, owners, many):
            if set(shards) == {blocked, refusing}:
                assert r.status == OVERLOADED
            elif epoch == ANY_EPOCH:
                assert (r.status, r.value) == ((OK, truth[key]) if key in truth else (NOT_FOUND, None))

    run(main())


def test_burst_reaches_each_shard_as_one_get_many_per_run():
    """Over TCP, one router burst reaches each shard as exactly one
    ``GET_MANY`` per (epoch, deadline) of the keys whose first hop it is:
    the router sends each shard one `get_burst` per epoch and deadline,
    and each shard's client packs it into one run.  The burst mixes two epochs and keys with and
    without a deadline, and answers as one `get` per key does."""
    fleet, dumps, truth = build_fleet(nshards=4, rf=2, epochs=2, seed=47, tcp=True)
    keys = sorted(truth)[::4] + absent_keys(truth, n=12)
    third = len(keys) // 3
    requests = [
        (k, None if i < third else ANY_EPOCH, 5.0 if i >= 2 * third else None, None)
        for i, k in enumerate(keys)
    ]

    async def go():
        async with fleet:
            router = fleet.router
            frames = {}  # shard -> {(epoch, deadline_s): [keys of each GET_MANY]}
            for sid, node in fleet.shards.items():
                serve, seen = node.server._serve_burst, frames.setdefault(sid, {})

                async def counted(reads, writer, serve=serve, seen=seen):
                    for r in reads:
                        seen.setdefault((r["epoch"], r["deadline_s"]), []).append(len(r["keys"]))
                    await serve(reads, writer)

                node.server._serve_burst = counted
            want = {sid: {} for sid in fleet.shards}  # shard -> {(epoch, deadline_s): keys}
            primaries = fleet.ring.owners_many(np.asarray(keys, dtype=np.uint64), fleet.rf)[:, 0]
            for (key, epoch, deadline_s, _), primary in zip(requests, primaries.tolist()):
                hops = want[primary]
                hops[epoch, deadline_s] = hops.get((epoch, deadline_s), 0) + 1
            # Some shard is the first hop of keys at more than one (epoch, deadline).
            assert sum(len(hops) for hops in want.values()) > len(want)
            burst = await router.get_burst(requests)
            assert router.stats()["failovers"] == 0  # first hops only
            for sid, seen in frames.items():
                assert seen == {group: [n] for group, n in want[sid].items()}, sid
            one = [await router.get(*r) for r in requests]  # the shards' caches answer these
            assert [replace(r, cached=False) for r in one] == burst
            for (key, epoch, *_), r in zip(requests, burst):
                if epoch == ANY_EPOCH:
                    want = (OK, truth[key]) if key in truth else (NOT_FOUND, None)
                    assert (r.status, r.value) == want

    run(go())


@pytest.mark.parametrize(
    "key, epoch", [(-1, None), (1 << 64, None), (3, "0")], ids=["negative", "past-u64", "str-epoch"]
)
def test_malformed_request_is_refused_at_the_router(key, epoch):
    """A burst holding one key that is no u64 (or an epoch that is no int)
    answers it ``bad_request`` without asking a shard, and routes its good
    keys as usual: no exception out of `get_burst`, no retry, no breaker
    fed a fault."""
    fleet, dumps, truth = build_fleet(nshards=3, rf=2, epochs=1, seed=53)
    good = sorted(truth)[:5]

    async def go():
        async with fleet:
            router = fleet.router
            requests = [(k, ANY_EPOCH, None, None) for k in good]
            requests.insert(3, (key, epoch, None, None))
            responses = await router.get_burst(requests)
            bad = responses.pop(3)
            assert (bad.status, bad.code) == (ERROR, ERR_BAD_REQUEST), bad
            assert [(r.status, r.value) for r in responses] == [(OK, truth[k]) for k in good]
            st = router.stats()
            assert st["retries"] == st["failovers"] == 0
            assert st["requests"][ERROR] == 1
            assert set(st["breakers"].values()) == {"closed"}
            asked = sum(
                sum(node.service.stats()["requests"].values()) for node in fleet.shards.values()
            )
            assert asked == len(good)

    run(go())


def test_a_retired_epoch_is_final_at_the_router():
    """A shard refuses a retired epoch id ``epoch_retired``; every replica
    would say the same, so the router returns the refusal from the first
    owner it asks, with no retry and no failover.  An id no shard ever
    committed (``unknown_epoch``) still fails over to the other owner."""
    fleet, dumps, truth = build_fleet(nshards=3, rf=2, epochs=2, seed=53)
    for node in fleet.shards.values():
        node.store.compact()  # retires 0 and 1 into 2
    key = sorted(truth)[0]

    def asked():
        return sum(
            sum(node.service.stats()["requests"].values()) for node in fleet.shards.values()
        )

    async def go():
        async with fleet:
            router = fleet.router
            r = await router.get(key, epoch=0)
            assert (r.status, r.code) == (ERROR, ERR_EPOCH_RETIRED), r
            st = router.stats()
            assert st["retries"] == st["failovers"] == 0
            assert set(st["breakers"].values()) == {"closed"}
            assert asked() == 1
            r = await router.get(key, epoch=2)
            assert (r.status, r.value) == (OK, truth[key])
            r = await router.get(key, epoch=999)
            assert (r.status, r.code) == (ERROR, "unknown_epoch")
            assert router.stats()["failovers"] >= 1 and asked() == 2 + 2

    run(go())


@pytest.mark.parametrize("deadline", ["x", float("nan"), True], ids=["str", "nan", "bool"])
def test_malformed_deadline_is_refused_at_the_router(deadline):
    """A deadline that is no number of seconds is answered ``bad_request``
    by the router itself, as its docstring promises, and the burst's other
    member is routed as usual.  A str once raised TypeError out of the
    walks' ``gather``, and a NaN rode to the shard."""
    fleet, dumps, truth = build_fleet(nshards=3, rf=2, epochs=1, seed=53)
    k1, k2 = sorted(truth)[:2]

    async def go():
        async with fleet:
            responses = await fleet.router.get_burst(
                [(k1, ANY_EPOCH, None, None), (k2, ANY_EPOCH, deadline, None)]
            )
            assert (responses[0].status, responses[0].value) == (OK, truth[k1])
            assert (responses[1].status, responses[1].code) == (ERROR, ERR_BAD_REQUEST)
            asked = sum(
                sum(node.service.stats()["requests"].values()) for node in fleet.shards.values()
            )
            assert asked == 1

    run(go())


def test_circuit_breaker_lifecycle():
    t = [0.0]
    br = CircuitBreaker(clock=lambda: t[0])
    assert br.state == "closed" and br.allow()
    for _ in range(CircuitBreaker.THRESHOLD - 1):
        br.record(False)
        assert br.state == "closed"
    br.record(True)  # a success resets the count
    for _ in range(CircuitBreaker.THRESHOLD - 1):
        br.record(False)
    assert br.state == "closed"
    br.record(False)
    assert br.state == "open" and not br.allow() and br.trips == 1
    t[0] = CircuitBreaker.COOLDOWN_S
    # Half-open lets every call through until an outcome is recorded.
    assert br.state == "half_open" and br.allow() and br.allow()
    br.record(False)  # the half-open trial failed: re-open immediately
    assert br.state == "open" and br.trips == 2
    t[0] = 2.5 * CircuitBreaker.COOLDOWN_S
    assert br.allow()
    br.record(True)
    assert br.state == "closed"


def test_top_frame_renders_a_live_router():
    """``repro top``'s fleet frame from a live router's `live_stats` and
    `stats`: the failover line and one breaker line per shard."""
    fleet, dumps, truth = build_fleet(nshards=3, epochs=2, seed=23)

    async def go():
        async with fleet:
            router = fleet.router
            for k in sorted(truth)[:10]:
                await router.get(k, epoch=ANY_EPOCH)
            return router.live_stats(), router.stats()

    live, stats = run(go())
    lines = _render_fleet_top_frame(live, stats, "here:1").splitlines()
    assert lines[0].startswith("repro top — fleet router @ here:1")
    (routing,) = [ln for ln in lines if ln.lstrip().startswith("routing")]
    assert routing.split() == ["routing", "failovers", "0"]
    shards = [ln.split() for ln in lines if ln.lstrip().startswith("shard")]
    assert shards == [["shard", str(sid), "breaker", "closed"] for sid in range(3)]
