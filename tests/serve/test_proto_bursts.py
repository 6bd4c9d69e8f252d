"""The wire changes nothing but the transport: same answers through
`TCPClient` and the `QueryService` itself, and the burst rules —
one ``GET_MANY`` per client run, one reply write per read burst — pinned
where they could be felt: frames on the wire, deadlines, damage mid-burst,
a peer that stops reading.
"""

import asyncio
import socket
from dataclasses import replace

from repro.core.formats import FMT_FILTERKV
from repro.obs import TraceContext
from repro.serve import (
    ANY_EPOCH,
    DEADLINE_EXCEEDED,
    ERROR,
    NOT_FOUND,
    OK,
    OVERLOADED,
    QueryService,
    ServeResponse,
    ServeServer,
    TCPClient,
)
from repro.serve.proto import (
    _RUN_BYTES,
    ERR_CLOSED,
    ERR_UNKNOWN_EPOCH,
    FrameReader,
    ProtocolError,
    _reply_frame,
    encode_frame,
    read_frame,
)

from .conftest import GatedService, run, shared_store, until

CONTEXT = TraceContext("ab" * 8, "cd" * 4, True)


async def _surface(kind: str, store, script, service_cls=QueryService, **service_kwargs):
    """Run ``script(client, service)`` against a fresh ``service_cls``
    reached through one surface: a `TCPClient`, or the service itself."""
    service = service_cls(store, **service_kwargs)
    if kind == "tcp":
        server = await ServeServer(service).start()
        try:
            async with TCPClient(server.host, server.port) as client:
                return await script(client, service)
        finally:
            await server.close()
    try:
        return await script(service, service)
    finally:
        await service.close()


def _comparable(response):
    """A response minus what legitimately differs between two runs: span
    ids and clocks inside a trace (the span *names* must agree)."""
    names = None if response.trace is None else sorted(s["name"] for s in response.trace)
    return replace(response, trace=names)


def _same_answers(store, script, service_cls=QueryService, **service_kwargs):
    """The script's responses agree field for field across the surfaces."""

    async def main():
        got = {
            kind: [
                _comparable(r)
                for r in await _surface(kind, store, script, service_cls, **service_kwargs)
            ]
            for kind in ("service", "tcp")
        }
        assert got["tcp"] == got["service"]
        return got["tcp"]

    return run(main())


def test_same_answers_on_every_surface(fmt):
    store, truth = shared_store(fmt, epochs=2)
    old, new = list(truth[0])[:3], list(truth[1])[:3]

    async def script(client, service):
        out = []
        for key in new + new[:1]:  # the repeat is a result-cache hit
            out.append(await client.get(key))
        for key in old:
            out.append(await client.get(key, epoch=0))
            out.append(await client.get(key, epoch=ANY_EPOCH))
        out.append(await client.get(old[0]))  # newest epoch does not hold it
        out.append(await client.get(1, epoch=ANY_EPOCH))
        out.append(await client.get(new[0], epoch=99))
        out.append(await client.get(new[1], epoch=1, trace=CONTEXT))  # one sampled request
        return out

    answers = _same_answers(store, script)
    assert [r.status for r in answers[:4]] == [OK] * 4
    assert [r.cached for r in answers[:4]] == [False, False, False, True]
    assert all(r.value == truth[0][k] for k, r in zip(old, answers[4:10:2]))
    assert [r.status for r in answers[-4:]] == [NOT_FOUND, NOT_FOUND, ERROR, OK]
    assert answers[-2].code == ERR_UNKNOWN_EPOCH and "99" in answers[-2].detail
    assert "serve.get" in answers[-1].trace and answers[-1].value == truth[1][new[1]]


def test_refusals_are_the_same_on_every_surface(fmt):
    store, truth = shared_store(fmt)
    a, b, c = list(truth[0])[:3]

    async def overloaded(client, service):
        # One admission slot, three concurrent misses: two are shed.
        return await asyncio.gather(client.get(a), client.get(b), client.get(c))

    statuses = [r.status for r in _same_answers(store, overloaded, max_inflight=1)]
    assert statuses == [OK, OVERLOADED, OVERLOADED]

    async def deadline(client, service):
        # A window held shut against a 10 ms deadline.
        return [await client.get(a, deadline_s=0.01)]

    (r,) = _same_answers(store, deadline, GatedService)
    assert r.status == DEADLINE_EXCEEDED and r.value is None

    async def closed(client, service):
        await service.close()
        return [await client.get(a), await client.get(b, epoch=ANY_EPOCH)]

    for r in _same_answers(store, closed):
        assert r.status == ERROR and r.code == ERR_CLOSED and r.detail == "service closed"


TOTALS = [
    ("serve.coalesced", {}),
    ("serve.result_cache.hits", {}),
    ("serve.result_cache.misses", {}),
    ("serve.batches", {}),
    *(("serve.requests", {"status": s}) for s in (OK, NOT_FOUND, OVERLOADED, DEADLINE_EXCEEDED, ERROR)),
]


def test_pipelined_gets_count_like_inproc_gets(fmt):
    """n frames pipelined on one connection are n concurrent gets: same
    answers, same coalescing, same cache traffic, same request totals."""
    store, truth = shared_store(fmt)
    present = list(truth[0])[:20]
    keys = present + present[:10] + [1, 2, 3] + present[5:8]  # duplicates coalesce

    async def script(client, service):
        first = await asyncio.gather(*(client.get(k) for k in keys))
        second = await asyncio.gather(*(client.get(k, epoch=ANY_EPOCH) for k in keys[:12]))
        third = await asyncio.gather(*(client.get(k) for k in keys))  # now all hits
        totals = [service.metrics.total(name, **labels) for name, labels in TOTALS]
        return first + second + third, totals

    async def main():
        tcp, tcp_totals = await _surface("tcp", store, script)
        inproc, inproc_totals = await _surface("service", store, script)
        assert tcp == inproc
        assert dict(zip(map(str, TOTALS), tcp_totals)) == dict(zip(map(str, TOTALS), inproc_totals))
        assert tcp_totals[0] == 13 and tcp_totals[1] >= len(keys)  # it did coalesce and hit
        for key, r in zip(keys, tcp):
            assert r.value == truth[0].get(key)

    run(main())


BURST_TOTALS = TOTALS + [
    ("serve.sheds", {}),
    ("serve.deadline_dropped", {}),
    ("reader.queries", {}),
]


def test_one_pipelined_burst_equals_one_get_per_request(fmt):
    """Every kind of burst member in one write — hits, misses, coalesced
    duplicates, an unknown epoch, an overloaded member, deadline members
    and a sampled trace — is answered field for field as `QueryService.get`
    answers the same requests one call each, with the same ``serve.*``
    totals.  The server answers a burst's deadline members apart from (and
    before) the rest, so the calls are made in that order too."""
    store, truth = shared_store(fmt, epochs=2)
    old, new = list(truth[0])[:6], list(truth[1])[:8]
    warm = new[:3]
    timed = [(new[3], None, 0.02, None), (new[4], ANY_EPOCH, 5.0, None)]
    untimed = [
        *((k, None, None, None) for k in warm),  # result-cache hits
        (new[5], None, None, None),
        (old[0], 0, None, None),
        (old[1], ANY_EPOCH, None, None),
        (new[5], None, None, None),  # coalesces onto the miss above
        (old[0], 0, None, None),  # and onto this one
        (new[6], 99, None, None),  # unknown epoch
        (new[6], 1, None, CONTEXT),  # sampled
        (1, ANY_EPOCH, None, None),  # absent
        (old[2], 0, None, None),  # past max_inflight: overloaded
    ]
    # Admitted before the last member: the timed pair and seven of the
    # untimed (hits and the unknown epoch take no slot, a duplicate takes
    # one like any waiter).
    async def through(kind):
        service = GatedService(store, max_inflight=9)

        async def burst(client, get):
            service.gate.set()
            for key in warm:
                await get(client, key)
            service.gate.clear()
            calls = asyncio.gather(
                *(get(client, k, epoch=e, deadline_s=d, trace=t) for k, e, d, t in timed + untimed)
            )
            # The timed member expires while the window holding its
            # burst-mates is shut.
            expired = service.metrics.histogram("serve.latency_seconds", status=DEADLINE_EXCEEDED)
            await until(lambda: expired.count == 1)
            assert not calls.done()
            service.gate.set()
            answers = await calls
            totals = {f"{n}{l}": service.metrics.total(n, **l) for n, l in BURST_TOTALS}
            return [_comparable(r) for r in answers], totals, expired

        if kind == "service":
            async with service:
                return await burst(service, lambda s, k, **kw: s.get(k, **kw))
        async with ServeServer(service) as server:
            async with TCPClient(server.host, server.port) as client:
                return await burst(client, lambda c, k, **kw: c.get(k, **kw))

    async def main():
        tcp, tcp_totals, expired = await through("tcp")
        one, one_totals, _ = await through("service")
        assert tcp == one
        assert tcp_totals == one_totals
        statuses = [r.status for r in tcp]
        assert statuses[:2] == [DEADLINE_EXCEEDED, OK]
        assert statuses[2:] == [OK] * 8 + [ERROR, OK, NOT_FOUND, OVERLOADED]
        assert [r.cached for r in tcp[2:5]] == [True] * 3
        assert tcp_totals["serve.coalesced{}"] == 2 and tcp_totals["serve.sheds{}"] == 1
        assert tcp[-4].code == ERR_UNKNOWN_EPOCH and "serve.get" in tcp[-3].trace
        # The expired member was answered at its own deadline.
        assert expired.count == 1 and 0.02 <= expired.quantile(0.5)
        for (key, epoch, *_), r in zip(timed[1:] + untimed[:7], tcp[1:9]):
            assert r.value == truth[1].get(key, truth[0].get(key)), key

    run(main())


def test_deadline_in_a_burst_is_not_held_by_a_stalled_peer():
    """Three frames in one write against a dispatcher held shut: the
    member carrying a 10 ms deadline is answered at its deadline, not when
    its untimed burst-mates are."""
    store, truth = shared_store(FMT_FILTERKV)
    a, b, c = list(truth[0])[:3]

    async def main():
        service = GatedService(store)
        async with ServeServer(service) as server:
            async with TCPClient(server.host, server.port) as client:
                loop = asyncio.get_running_loop()
                t0 = loop.time()
                patient = [asyncio.ensure_future(client.get(k)) for k in (a, c)]
                hurried = asyncio.ensure_future(client.get(b, deadline_s=0.01))
                r = await asyncio.wait_for(hurried, 5)
                elapsed = loop.time() - t0
                assert r.status == DEADLINE_EXCEEDED
                assert elapsed < 0.3, f"held {elapsed:.3f}s past a 10 ms deadline"
                assert not any(t.done() for t in patient)
                service.gate.set()
                for key, r in zip((a, c), await asyncio.wait_for(asyncio.gather(*patient), 5)):
                    assert r.status == OK and r.value == truth[0][key]

    run(main())


def _not_found(request, n):
    """A ``REPLY_MANY`` with one not-found row per key, each naming the
    ``n`` frames seen."""
    rows = [ServeResponse(NOT_FOUND, key, None, detail=f"frame {n}") for key in request["keys"]]
    return _reply_frame(request["id"], rows)


async def _wire_frames(calls, answer=_not_found):
    """The request frames a fresh `TCPClient` puts on the wire for
    ``calls(client)``, read at a bare peer that answers each with
    ``answer(request, frames seen)``; and the calls' outcomes."""
    seen = []

    async def peer(reader, writer):
        frames = FrameReader(reader)
        while (request := await read_frame(frames)) is not None:
            seen.append(request)
            writer.write(answer(request, len(seen)))
        writer.close()

    server = await asyncio.start_server(peer, "127.0.0.1", 0)
    try:
        async with TCPClient("127.0.0.1", server.sockets[0].getsockname()[1]) as client:
            answers = await asyncio.wait_for(
                asyncio.gather(*calls(client), return_exceptions=True), 5
            )
    finally:
        server.close()
        await server.wait_closed()
    return seen, answers


def test_concurrent_gets_at_one_epoch_and_deadline_ride_one_frame():
    keys = [5, 1, 5, 2**64 - 1, 0, 9, 7, 3]
    for epoch, deadline in ((None, None), (2, 0.5)):
        seen, answers = run(
            _wire_frames(lambda c: [c.get(k, epoch=epoch, deadline_s=deadline) for k in keys])
        )
        (frame,) = seen
        assert frame["op"] == "get_many" and frame["keys"] == keys
        assert (frame["epoch"], frame["deadline_s"]) == (epoch, deadline)
        assert [(r.status, r.key, r.detail) for r in answers] == [
            (NOT_FOUND, k, "frame 1") for k in keys
        ]


def test_a_reply_that_means_nothing_fails_its_run_not_the_connection():
    def answer(request, n):
        if n == 1:  # neither rows nor a status: nothing to hand the run
            return encode_frame({"id": request["id"], "pong": True})
        return _not_found(request, n)

    seen, answers = run(_wire_frames(lambda c: [c.get(1), c.get(2), c.get(3, epoch=0)], answer))
    assert [f["keys"] for f in seen] == [[1, 2], [3]]
    assert [type(a) for a in answers[:2]] == [ProtocolError] * 2
    assert (answers[2].status, answers[2].key) == (NOT_FOUND, 3)  # the pump lives on


def test_a_run_ends_where_the_epoch_or_deadline_changes_or_a_call_goes_alone():
    calls = [
        (1, None, None, None), (2, None, None, None),
        (3, 0, None, None), (4, 0, None, None),
        (5, 0, 0.5, None),
        (6, None, None, None),
        (7, 0, 0.5, None),
        (8, None, None, CONTEXT),  # traced: alone, behind the runs before it
        (9, None, None, None), (10, None, None, None),
        (11, ANY_EPOCH, None, None),
    ]
    seen, answers = run(_wire_frames(
        lambda c: [c.get(k, epoch=e, deadline_s=d, trace=t) for k, e, d, t in calls]
    ))
    assert [f["keys"] for f in seen] == [[1, 2], [3, 4], [5], [6], [7], [8], [9, 10], [11]]
    assert [(f["epoch"], f["deadline_s"]) for f in seen] == [
        (None, None), (0, None), (0, 0.5), (None, None), (0, 0.5), (None, None),
        (None, None), (ANY_EPOCH, None),
    ]
    assert [("trace" in f) for f in seen] == [False] * 5 + [True, False, False]
    assert [r.key for r in answers] == [c[0] for c in calls]


def test_damage_mid_burst_answers_what_came_before_it():
    store, truth = shared_store(FMT_FILTERKV)
    a, b, c = list(truth[0])[:3]

    def get(rid, key):
        return encode_frame(
            {"id": rid, "op": "get_many", "keys": [key], "epoch": None, "deadline_s": None}
        )

    async def main():
        service = QueryService(store)
        async with ServeServer(service) as server:
            reader, writer = await asyncio.open_connection(server.host, server.port)
            damaged = bytearray(get(3, c))
            damaged[-1] ^= 0x10
            writer.write(get(1, a) + get(2, b) + bytes(damaged) + get(4, c))  # one burst
            replies = FrameReader(reader)
            first = await asyncio.wait_for(read_frame(replies), 5)
            second = await asyncio.wait_for(read_frame(replies), 5)
            assert {m["id"]: [r.value for r in m["replies"]] for m in (first, second)} == {
                1: [truth[0][a]], 2: [truth[0][b]],
            }
            # Nothing behind the damage is served: the stream just ends.
            assert await asyncio.wait_for(read_frame(replies), 5) is None
            writer.close()
            assert service.metrics.total("serve.requests", status=OK) == 2
            assert service.metrics.total("serve.proto.bad_frames") == 1

    run(main())


def _stalled_peer(calls, call, slack, counted, high=None):
    """``calls`` concurrent ``call(client)``s against a peer that does not
    read: what the client queues stays within the transport's high-water
    mark plus ``slack`` bytes, and fewer than half the calls get in.  When
    the peer reads (``counted(frame)`` calls per frame), every call's bytes
    arrive.  ``high`` lowers the high-water mark."""

    async def main():
        accepted = asyncio.get_running_loop().create_future()
        done = asyncio.Event()

        async def accept(reader, writer):
            accepted.set_result(reader)
            await done.wait()  # reads only when the test does
            writer.close()
            await writer.wait_closed()

        server = await asyncio.start_server(accept, "127.0.0.1", 0, limit=1 << 12)
        for sock in server.sockets:  # inherited by the accepted socket
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 1 << 12)
        client = await TCPClient("127.0.0.1", server.sockets[0].getsockname()[1]).connect()
        transport = client._writer.transport
        transport.get_extra_info("socket").setsockopt(socket.SOL_SOCKET, socket.SO_SNDBUF, 1 << 12)
        if high is not None:
            transport.set_write_buffer_limits(high=high)
        high_water = transport.get_write_buffer_limits()[1]

        def registered():
            runs = [*client._batches.values(), *client._runs]
            return len(client._waiting) + sum(len(r.keys) for r in runs)

        callers = [asyncio.ensure_future(call(client)) for _ in range(calls)]
        await asyncio.sleep(0.3)
        # What is queued is one high-water mark and a frame, not all of it.
        queued = transport.get_write_buffer_size() + len(client._outbox) + client._run_bytes
        assert queued <= high_water + slack
        assert registered() < calls // 2 and not any(t.done() for t in callers)

        # The peer starts reading: every waiting caller gets its bytes out.
        peer, arrived = FrameReader(await accepted), 0
        while arrived < calls:
            arrived += counted(await asyncio.wait_for(read_frame(peer), 5))
        assert arrived == registered() == calls and not any(t.done() for t in callers)
        for t in callers:
            t.cancel()
        await asyncio.gather(*callers, return_exceptions=True)
        assert client._waiting == {} and client._runs == [] and client._batches == {}
        await client.close()
        done.set()
        server.close()
        await server.wait_closed()

    run(main())


def test_client_waits_on_flow_control_when_the_server_stops_reading():
    """Callers of a client whose peer is not reading wait; they do not
    pile frames, or the keys of `get` runs, up in memory.  When the peer
    reads again, they proceed."""
    pad = "x" * 16_000
    frame_bytes = len(encode_frame({"id": 1, "op": "ping", "pad": pad}))
    _stalled_peer(
        120, lambda c: c._call({"op": "ping", "pad": pad}), frame_bytes,
        lambda m: int(m["pad"] == pad),
    )
    _stalled_peer(
        20_000, lambda c: c.get(7), _RUN_BYTES + 8, lambda m: m["keys"].count(7), high=4096
    )
