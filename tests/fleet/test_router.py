"""Router correctness: sharding must be invisible.

The core contract under test: a fleet answers every query byte-identically
to one unsharded store holding the same dumps — for every registered aux
backend, for epochs that mix backends, for absent keys, and whether or
not the router's aux views know every epoch (a view that misses a commit
may cost ordering quality, never answers).
"""

import asyncio
from dataclasses import replace

import numpy as np
import pytest

from repro.core.auxtable import AUX_BACKENDS
from repro.core.kv import random_kv_batch
from repro.cli import _render_fleet_top_frame
from repro.fleet import CircuitBreaker, FleetRouter, ShardAuxView
from repro.serve import (
    ANY_EPOCH,
    ERR_BAD_REQUEST,
    ERROR,
    NOT_FOUND,
    OK,
    OVERLOADED,
    ServeResponse,
    ServeServer,
)

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
    fleet, dumps, truth = build_fleet(seed=11, aux_backends=(backend,))
    oracle = merged_store(dumps, seed=11, aux_backends=(backend,))
    keys = sorted(truth)[::7] + absent_keys(truth)
    stats = run(_assert_matches_oracle(fleet, oracle, truth, keys))
    # FilterKV persists aux tables, so every plan was aux-shaped.
    assert stats["aux_routed"] == len(keys)
    assert stats["scatter"] == 0
    oracle.close()


def test_mixed_backend_epochs_match_merged_store():
    """One epoch per backend family (filter–index hybrid / probed filter /
    static function): the router rebuilds each epoch's tables from its
    blob header alone, so a mixed-backend fleet routes like any other."""
    per_epoch = ["cuckoo", "bloom", "csf"]
    fleet, dumps, truth = build_fleet(seed=31, epochs=len(per_epoch), ingest=False)
    oracle = merged_store(dumps[:0], seed=31)
    for backend, dump in zip(per_epoch, dumps):
        for node in fleet.shards.values():
            node.store.aux_backends = (backend,)
        oracle.aux_backends = (backend,)
        fleet.ingest(dump)
        writer = np.arange(len(dump)) % 2
        oracle.write_epoch([dump.select(writer == r) for r in range(2)])
    for node in fleet.shards.values():
        assert [e.aux_backend for e in node.store.manifest.epochs] == per_epoch
    keys = sorted(truth)[::9] + absent_keys(truth, n=8)
    run(_assert_matches_oracle(fleet, oracle, truth, keys))
    oracle.close()


def test_commit_behind_a_live_router_is_answered_and_pulls_nothing():
    """Views are pulled at start and never chased: a commit behind a live
    router leaves every view at the old epoch set, and the new epoch's keys
    are still answered byte-correctly, because the ring owners hold them
    whatever the router's views say."""
    fleet, dumps, truth = build_fleet(seed=13, epochs=1)

    async def go():
        async with fleet:
            router = fleet.router
            refreshes = router.stats()["aux_refreshes"]
            assert refreshes == len(fleet.shards)
            extra = random_kv_batch(120, VB, np.random.default_rng(77))
            fleet.ingest(extra)
            new_truth = {int(k): extra.value_of(i) for i, k in enumerate(extra.keys)}
            for k in sorted(new_truth)[:20]:
                r = await router.get(k, epoch=ANY_EPOCH)
                assert r.status == OK and r.value == new_truth[k]
            for k in sorted(truth)[:20]:
                r = await router.get(k, epoch=ANY_EPOCH)
                assert r.status == OK and r.value == truth[k]
            assert router.stats()["aux_refreshes"] == refreshes
            assert all(sorted(v.epochs) == [0] for v in router.views.values())

    run(go())


def test_plan_prefers_claimants_and_never_leaves_the_owner_set():
    fleet, dumps, truth = build_fleet(seed=29, epochs=1)

    async def go():
        async with fleet:
            router = fleet.router
            for k in sorted(truth)[::17]:
                owners = fleet.ring.owners(int(k), fleet.rf)
                order, used_aux = router.plan(int(k))
                assert used_aux
                assert sorted(order) == sorted(owners)
                # Replication: every owner holds the key, aux tables have
                # no false negatives, so the front of the plan claims it.
                assert router.views[order[0]].claim(int(k)) >= 0
            # No view at all: planning degrades to pure ring order.
            router.views.clear()
            k = next(iter(truth))
            order, used_aux = router.plan(k)
            assert not used_aux
            assert order == fleet.ring.owners(k, fleet.rf)
            scatter_before = router.stats()["scatter"]
            r = await router.get(k, epoch=ANY_EPOCH)
            assert r.status == OK and r.value == truth[k]
            assert router.stats()["scatter"] == scatter_before + 1

    run(go())


class _Overloaded:
    """A shard that is alive but refuses everything."""

    def __init__(self, inner):
        self._inner = inner

    async def get(self, key, epoch=None, deadline_s=None, trace=None):
        return ServeResponse(OVERLOADED, int(key), epoch)

    async def get_many(self, keys, epoch=None, deadline_s=None, trace=None):
        return [ServeResponse(OVERLOADED, int(k), epoch) for k in keys]

    def __getattr__(self, name):
        return getattr(self._inner, name)


ROUTER_COUNTERS = ("aux_routed", "scatter", "failovers", "retries", "breaker_skips",
                   "requests")


@pytest.mark.parametrize("tcp", [False, True], ids=["inproc", "tcp"])
def test_get_burst_equals_one_get_per_key(tcp):
    """`FleetRouter.get_burst` answers a burst, and counts it, exactly as
    one `get` per key does — with one shard behind an open breaker (and no
    view, as after a failed start), one shard answering ``overloaded`` and
    one more shard without a view, so some keys have no owner with one."""
    blocked, refusing, viewless = 0, 1, 2

    async def answer(burst: bool):
        fleet, dumps, truth = build_fleet(nshards=4, rf=2, epochs=2, seed=43, tcp=tcp)
        async with fleet:
            router = fleet.router
            breaker = router.breakers[blocked]
            breaker.open_until = breaker.clock() + 3600
            router.views.pop(blocked)
            fleet.clients[refusing] = _Overloaded(fleet.clients[refusing])
            router.views.pop(viewless)
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
        for name in ("aux_routed", "scatter", "failovers", "breaker_skips"):
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
    the router walks key by key, and each shard's client packs the hops
    of one loop turn.  The burst mixes two epochs and keys with and
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
            for key, epoch, deadline_s, _ in requests:
                hops = want[router.plan(key, epoch)[0][0]]
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


def test_router_memory_is_aux_sized():
    """The router's data-plane memory is the rebuilt aux tables — the
    same order as the sealed blobs it pulled, nowhere near the data."""
    fleet, dumps, truth = build_fleet(seed=41)

    async def go():
        async with fleet:
            router = fleet.router
            blob = router.aux_blob_bytes
            resident = router.aux_resident_bytes
            assert blob > 0 and resident > 0
            assert resident <= 2 * blob
            data_bytes = sum(len(d) for d in dumps) * (8 + VB) * fleet.rf
            assert resident < data_bytes / 4

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
    assert br.state == "half_open" and br.allow()
    br.record(False)  # the half-open trial failed: re-open immediately
    assert br.state == "open" and br.trips == 2
    t[0] = 2.5 * CircuitBreaker.COOLDOWN_S
    assert br.allow()
    br.record(True)
    assert br.state == "closed"


def test_router_mounted_behind_a_server_pulls_each_view_once():
    """`Fleet.start` starts the router, and a `ServeServer` mounting it
    starts it again: the second start pulls nothing."""
    fleet, dumps, truth = build_fleet(nshards=2, epochs=1, seed=17)

    async def go():
        async with fleet:
            server = await ServeServer(fleet.router).start()
            try:
                assert fleet.router.stats()["aux_refreshes"] == len(fleet.shards)
            finally:
                await server.close()

    run(go())


def test_an_export_without_aux_tables_leaves_that_shard_without_a_view():
    """A ``None`` row (a shard persisting no aux tables) is refused: that
    shard gets no view, and keys whose owners all lack one scatter."""
    fleet, dumps, truth = build_fleet(nshards=2, rf=2, epochs=1, seed=19)

    class _NoAux:
        def __init__(self, inner):
            self._inner = inner

        async def aux_state(self):
            state = await self._inner.aux_state()
            return {**state, "epochs": dict.fromkeys(state["epochs"])}

        def __getattr__(self, name):
            return getattr(self._inner, name)

    with pytest.raises(ValueError):
        ShardAuxView(1, {"nranks": 2, "epochs": {"0": None}})

    async def go():
        async with fleet:
            k = sorted(truth)[0]
            one = {**fleet.clients, 1: _NoAux(fleet.clients[1])}
            router = await FleetRouter(one, fleet.ring, rf=fleet.rf).start()
            assert sorted(router.views) == [0]
            assert router.plan(k) == ([0, 1], True)  # shard 0 claims k, shard 1 keeps its place
            both = {sid: _NoAux(client) for sid, client in fleet.clients.items()}
            router = await FleetRouter(both, fleet.ring, rf=fleet.rf).start()
            assert router.views == {}
            assert router.plan(k) == (fleet.ring.owners(k, fleet.rf), False)
            r = await router.get(k, epoch=ANY_EPOCH)
            assert (r.status, r.value) == (OK, truth[k])
            assert router.stats()["scatter"] == 1

    run(go())


def test_top_frame_renders_a_live_router():
    """``repro top``'s fleet frame from a live router's `live_stats` and
    `stats`: the routing line and one line per shard."""
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
    assert routing.split() == [
        "routing", "aux", "10", "scatter", "0", "failovers", "0", "refreshes", "3",
    ]
    shards = [ln.split() for ln in lines if ln.lstrip().startswith("shard")]
    assert shards == [
        ["shard", str(sid), "breaker", "closed", "epochs", "[0,", "1]"] for sid in range(3)
    ]
