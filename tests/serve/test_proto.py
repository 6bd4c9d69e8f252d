"""Wire protocol: CRC-checked v5 frames, TCP server/clients, in-proc adapter."""

import asyncio
import itertools
import struct
import zlib
from dataclasses import replace

import pytest

from repro.core.formats import FMT_FILTERKV
from repro.obs import TraceCollector, TraceContext
from repro.serve import (
    ANY_EPOCH,
    ERROR,
    NOT_FOUND,
    OK,
    InprocClient,
    QueryService,
    ServeResponse,
    ServeServer,
    TCPClient,
)
from repro.serve.proto import (
    ERR_BAD_REQUEST,
    ERR_UNKNOWN_EPOCH,
    ERR_UNKNOWN_OP,
    ERR_UNSUPPORTED_VERSION,
    MAX_FRAME_BYTES,
    PROTO_VERSION,
    FrameReader,
    ProtocolError,
    _reply_frame,
    _responses,
    encode_frame,
    read_frame,
)

from .conftest import fed_reader as _fed_reader
from .conftest import GatedService, run, shared_store, until

U64 = 2**64 - 1


async def _ping(client):
    """The server's liveness verb, sent as a raw control call."""
    return (await client._call({"op": "ping"}))["pong"]


def test_frame_round_trip():
    get = {"id": 3, "v": PROTO_VERSION, "op": "get_many", "keys": [17], "epoch": None,
           "deadline_s": None}
    reply = {
        "id": 3, "v": PROTO_VERSION,
        "replies": [ServeResponse(OK, 17, 2, b"\x00\xffraw", True)],
    }
    control = {"id": 4, "v": PROTO_VERSION, "op": "stats_live", "window_s": 2.5}

    async def main():
        frames = [encode_frame(m) for m in (get, reply, control)]
        # A one-key read and its answer are fixed binary structs; the value
        # rides raw, not hex-in-JSON.
        assert len(frames[0]) == 42 and len(frames[1]) == 40 + len(b"\x00\xffraw")
        assert b"\x00\xffraw" in frames[1] and b"stats_live" in frames[2]
        reader = _fed_reader(b"".join(frames))
        assert await read_frame(reader) == get
        assert await read_frame(reader) == reply
        assert await read_frame(reader) == control
        assert await read_frame(reader) is None  # clean EOF

    run(main())


def test_corrupted_frame_is_rejected():
    async def main():
        frame = bytearray(encode_frame({"id": 1, "op": "ping"}))
        frame[-1] ^= 0x40  # flip a bit inside the seal checksum
        with pytest.raises(ProtocolError):
            await read_frame(_fed_reader(bytes(frame)))

    run(main())


def test_truncated_frame_is_rejected():
    async def main():
        frame = encode_frame({"id": 1, "op": "ping"})
        with pytest.raises(ProtocolError):
            await read_frame(_fed_reader(frame[:-3]))

    run(main())


def test_a_non_string_error_code_or_detail_is_refused_typed():
    """A reply row's tail, or a whole-frame refusal, whose error ``code``
    or ``detail`` is not a string fails as a `ProtocolError` at decode —
    not later as a `TypeError` in whoever judges the answer (a router's
    whole burst)."""
    row = ServeResponse(ERROR, 17, None, detail="why", code=ERR_UNKNOWN_EPOCH)
    good = _reply_frame(3, [row])

    def resealed(old: bytes, new: bytes) -> bytes:
        body = good[4:-4].replace(old, new)
        return struct.pack("<I", len(body) + 4) + body + struct.pack("<I", zlib.crc32(body))

    async def main():
        assert (await read_frame(_fed_reader(good)))["replies"] == [row]
        for old, new in ((b'"unknown_epoch"', b"[1, 2]"), (b'"why"', b"7")):
            with pytest.raises(ProtocolError):
                await read_frame(_fed_reader(resealed(old, new)))

    run(main())
    refusal = {"id": 3, "v": PROTO_VERSION, "status": ERROR, "detail": "why",
               "error": {"code": ERR_UNKNOWN_EPOCH, "retryable": False}}
    assert _responses(refusal, [17])[0].code == ERR_UNKNOWN_EPOCH
    for bad in ({"error": {"code": [1, 2]}}, {"detail": 7}, {"status": [1]}):
        with pytest.raises(ProtocolError):
            _responses({**refusal, **bad}, [17])


def test_oversized_frame_is_rejected():
    async def main():
        header = (MAX_FRAME_BYTES + 1).to_bytes(4, "little")
        with pytest.raises(ProtocolError):
            await read_frame(_fed_reader(header + b"x" * 16))

    run(main())


def test_tcp_round_trip_all_formats(fmt):
    store, truth = shared_store(fmt)
    expected = truth[0]
    keys = list(expected)[:30]

    async def main():
        service = QueryService(store)
        async with ServeServer(service) as server:
            async with TCPClient(server.host, server.port) as client:
                assert await _ping(client)
                responses = await asyncio.gather(*(client.get(k) for k in keys))
                for key, r in zip(keys, responses):
                    assert r.status == OK and r.value == expected[key]
                miss = await client.get(1)
                assert miss.status == NOT_FOUND and miss.value is None
                stats = await client.stats()
                assert stats["requests"][OK] >= len(keys)

    run(main())


def test_concurrent_requests_on_one_connection_coalesce():
    store, truth = shared_store(FMT_FILTERKV)
    key = next(iter(truth[0]))

    async def main():
        service = QueryService(store)
        async with ServeServer(service) as server:
            async with TCPClient(server.host, server.port) as client:
                responses = await asyncio.gather(*(client.get(key) for _ in range(8)))
                assert all(r.status == OK for r in responses)
                # One connection, eight in-flight frames, one store probe.
                assert service.metrics.total("reader.queries") == 1
                assert service.metrics.total("serve.coalesced") == 7

    run(main())


def test_many_clients_one_server():
    store, truth = shared_store(FMT_FILTERKV)
    expected = truth[0]
    keys = list(expected)[:24]

    async def main():
        service = QueryService(store)
        async with ServeServer(service) as server:
            clients = [
                await TCPClient(server.host, server.port).connect() for _ in range(4)
            ]
            try:
                chunks = [keys[i::4] for i in range(4)]
                results = await asyncio.gather(
                    *(
                        asyncio.gather(*(c.get(k) for k in chunk))
                        for c, chunk in zip(clients, chunks)
                    )
                )
                for chunk, responses in zip(chunks, results):
                    for key, r in zip(chunk, responses):
                        assert r.status == OK and r.value == expected[key]
            finally:
                for c in clients:
                    await c.close()

    run(main())


def test_unknown_op_yields_error_frame():
    store, _ = shared_store(FMT_FILTERKV)

    async def main():
        service = QueryService(store)
        async with ServeServer(service) as server:
            async with TCPClient(server.host, server.port) as client:
                reply = await client._call({"op": "bogus"})
                assert reply["status"] == ERROR and "bogus" in reply["detail"]
                # The connection survives a bad op.
                assert await _ping(client)

    run(main())


def test_unsupported_version_yields_error_frame():
    store, truth = shared_store(FMT_FILTERKV)
    key = next(iter(truth[0]))

    async def main():
        service = QueryService(store)
        async with ServeServer(service) as server:
            async with TCPClient(server.host, server.port) as client:
                # The version is the frame's first byte; the refusal still
                # finds its caller because the id sits at a fixed offset.
                for version in (PROTO_VERSION - 1, PROTO_VERSION + 1):
                    reply = await client._call({"op": "get_many", "keys": [key], "v": version})
                    assert reply["status"] == ERROR
                    assert reply["error"]["code"] == ERR_UNSUPPORTED_VERSION
                    assert not reply["error"]["retryable"]  # caller bug, not shard state
                # Same connection, current version: answered normally.
                r = await client.get(key)
                assert r.status == OK and r.value == truth[0][key]

    run(main())


def test_malformed_request_yields_error_not_crash():
    store, _ = shared_store(FMT_FILTERKV)

    async def main():
        service = QueryService(store)
        async with ServeServer(service) as server:
            async with TCPClient(server.host, server.port) as client:
                reply = await client._call({"op": "get_many"})  # no keys
                assert reply["status"] == ERROR and reply["error"]["code"] == ERR_BAD_REQUEST
                # v3's one-key verb and the aux-blob export are gone: a
                # read is a get_many, and a router holds no aux tables.
                for request in ({"op": "get", "key": 1}, {"op": "aux_state"}):
                    reply = await client._call(request)
                    assert reply["error"]["code"] == ERR_UNKNOWN_OP, request
                    assert await _ping(client)

    run(main())


BAD_CONTROL = [
    {"op": "trace", "n": "x"},
    {"op": "trace", "n": [1]},
    {"op": "trace", "n": -3},
    {"op": "trace", "n": 1.5},
    {"op": "trace", "n": True},
    {"op": "stats_live", "window_s": "x"},
    {"op": "stats_live", "window_s": 0},
    {"op": "stats_live", "window_s": -1.0},
    {"op": "stats_live", "window_s": float("inf")},
    {"op": "stats_live", "window_s": float("nan")},
]


def test_malformed_control_arguments_are_bad_requests():
    """A control verb whose argument means nothing is the caller's bug:
    ``bad_request``, not retryable — never a retryable ``internal`` shard
    fault, and never answered as if it were another argument."""
    store, truth = shared_store(FMT_FILTERKV)
    key = next(iter(truth[0]))

    async def main():
        service = QueryService(store, tracer=TraceCollector(seed=1))
        async with ServeServer(service) as server:
            async with TCPClient(server.host, server.port) as client:
                await client.get(key, trace=TraceContext("t" * 16, "s" * 8, True))
                for request in BAD_CONTROL:
                    reply = await client._call(request)
                    assert reply["status"] == ERROR, request
                    assert reply["error"] == {"code": ERR_BAD_REQUEST, "retryable": False}, request
                assert await client.traces(0) == []
                assert len(await client.traces(1)) == 1
                assert (await client.stats_live(window_s=1e-9))["requests"] == 0
                assert (await client.stats_live())["requests"] == 1
        assert service.recent_traces(0) == []

    run(main())


def test_inproc_client_matches_tcp_surface():
    store, truth = shared_store(FMT_FILTERKV)
    key = next(iter(truth[0]))

    async def main():
        service = QueryService(store)
        async with InprocClient(service) as client:
            r = await client.get(key)
            assert r.status == OK and r.value == truth[0][key]
            assert service.stats()["requests"][OK] == 1
        await service.close()

    run(main())


# -- connection lifetime: lost links, torn prefixes, server shutdown ----------


async def _within(awaitable, seconds=5.0):
    """Bound every wait: these tests exist because something used to hang."""
    return await asyncio.wait_for(awaitable, seconds)


def _assert_nothing_waits(client):
    """No call, run or packed run is left registered on ``client``."""
    assert client._waiting == {} and client._runs == [] and client._batches == {}


def test_call_on_lost_connection_raises_and_leaks_no_waiter():
    async def main():
        server_side = []

        async def accept(reader, writer):
            server_side.append(writer)
            await reader.read()  # hold the connection, answer nothing

        server = await asyncio.start_server(accept, "127.0.0.1", 0)
        port = server.sockets[0].getsockname()[1]
        client = await TCPClient("127.0.0.1", port).connect()
        inflight = asyncio.ensure_future(client.get(1))
        while not server_side:
            await asyncio.sleep(0)
        server_side[0].transport.abort()
        # The call that was waiting on the link fails with it ...
        with pytest.raises(ConnectionError):
            await _within(inflight)
        await _within(asyncio.shield(client._pump))
        # ... and so does every later one, promptly, leaving nothing behind.
        for _ in range(2):
            with pytest.raises(ConnectionError):
                await _within(client.get(2))
            with pytest.raises(ConnectionError):
                await _within(_ping(client))
        _assert_nothing_waits(client)
        await client.close()
        with pytest.raises(ConnectionError):  # closed by its owner: same answer
            await _within(client.get(3))
        server.close()
        await server.wait_closed()

    run(main())


def test_request_ids_past_the_32_bit_wrap_skip_ids_still_waiting():
    """Ids are a counter masked to 32 bits.  Once it wraps, a new call
    used to take the id of a call still waiting, overwrite its future, and
    leave the first caller waiting for ever.  A packed `get` run holds its
    id the same way."""
    store, truth = shared_store(FMT_FILTERKV)
    a, b = list(truth[0])[:2]

    async def main():
        async with ServeServer(QueryService(store)) as server:
            async with TCPClient(server.host, server.port) as client:
                client._ids = itertools.count(5)
                first = asyncio.ensure_future(_ping(client))
                await asyncio.sleep(0)  # registered, not yet answered
                client._ids = itertools.count(5 + 2**32)
                second = asyncio.ensure_future(_ping(client))
                assert await _within(asyncio.gather(first, second)) == [True, True]
                _assert_nothing_waits(client)

                client._ids = itertools.count(9)
                first = asyncio.ensure_future(client.get(a))
                await asyncio.sleep(0)  # joined a run ...
                await asyncio.sleep(0)  # ... which the turn's flush packed as frame 9
                assert list(client._batches) == [9]
                client._ids = itertools.count(9 + 2**32)
                second = asyncio.ensure_future(client.get(b, epoch=ANY_EPOCH))
                await asyncio.sleep(0)
                await asyncio.sleep(0)
                assert list(client._batches) == [9, 10]
                got = await _within(asyncio.gather(first, second))
                assert [r.value for r in got] == [truth[0][a], truth[0][b]]
                _assert_nothing_waits(client)

    run(main())


def test_cancelling_one_get_of_a_run_leaves_the_others_answered():
    store, truth = shared_store(FMT_FILTERKV)
    keys = list(truth[0])[:5]

    async def main():
        async with ServeServer(QueryService(store)) as server:
            async with TCPClient(server.host, server.port) as client:
                # Cancelled while the run is pending, then once it is packed.
                for turns in (1, 2):
                    calls = [asyncio.ensure_future(client.get(k)) for k in keys]
                    for _ in range(turns):
                        await asyncio.sleep(0)
                    assert len(client._runs) == 2 - turns and len(client._batches) == turns - 1
                    calls[2].cancel()
                    got = await _within(asyncio.gather(*calls, return_exceptions=True))
                    assert isinstance(got.pop(2), asyncio.CancelledError)
                    for key, r in zip(keys[:2] + keys[3:], got):
                        assert r.status == OK and r.value == truth[0][key]
                    _assert_nothing_waits(client)
                # Every call of a packed run cancelled: its id is released
                # without waiting for the reply.
                calls = [asyncio.ensure_future(client.get(k)) for k in keys]
                await asyncio.sleep(0)
                await asyncio.sleep(0)
                for call in calls:
                    call.cancel()
                await asyncio.gather(*calls, return_exceptions=True)
                _assert_nothing_waits(client)
                assert (await _within(client.get(keys[0]))).value == truth[0][keys[0]]

    run(main())


def test_gets_of_a_run_not_yet_flushed_fail_when_the_client_closes():
    store, _ = shared_store(FMT_FILTERKV)

    async def main():
        async with ServeServer(QueryService(store)) as server:
            client = await TCPClient(server.host, server.port).connect()
            calls = [asyncio.ensure_future(client.get(k)) for k in range(8)]
            await asyncio.sleep(0)  # all eight joined one run; its flush is still to come
            assert len(client._runs) == 1 and len(client._runs[0].keys) == 8
            await _within(client.close())
            for outcome in await _within(asyncio.gather(*calls, return_exceptions=True)):
                assert isinstance(outcome, ConnectionError)
            _assert_nothing_waits(client)

    run(main())


def test_get_many_answers_like_one_get_per_key():
    store, truth = shared_store(FMT_FILTERKV, epochs=2)
    old, new = list(truth[0])[:4], list(truth[1])[:4]
    keys = new + old + [1, new[0]]  # absent and repeated keys too

    async def main():
        service = QueryService(store)
        async with ServeServer(service) as server:
            async with TCPClient(server.host, server.port) as client:
                for epoch in (None, 0, ANY_EPOCH, 99):
                    many = await _within(client.get_many(keys, epoch=epoch))
                    one = [await _within(client.get(k, epoch=epoch)) for k in keys]
                    # The gets came second, so they are result-cache hits.
                    assert [replace(r, cached=True) for r in many] == [
                        replace(r, cached=True) for r in one
                    ], epoch
                    assert one == await _within(client.get_many(keys, epoch=epoch))
                assert [r.value for r in one[:8]] == [None] * 8 and one[0].code == "unknown_epoch"
                any_epoch = await client.get_many(keys, epoch=ANY_EPOCH)
                direct = await service.get_burst([(k, ANY_EPOCH, None, None) for k in keys])
                assert direct == any_epoch
                assert [r.value for r in any_epoch] == [
                    truth[1].get(k, truth[0].get(k)) for k in keys
                ]
                assert await client.get_many([]) == []
                # A request refused as a whole is one typed error per key.
                (refused,) = await client.get_many([U64 + 1])
                assert refused.status == ERROR and refused.code == ERR_BAD_REQUEST
                assert refused.key == U64 + 1

    run(main())


def test_torn_length_prefix_is_not_clean_eof():
    async def main():
        assert await read_frame(_fed_reader(b"")) is None  # ended between frames
        for torn in (b"\x10", b"\x10\x00", b"\x10\x00\x00"):
            with pytest.raises(ProtocolError):
                await read_frame(_fed_reader(torn))
        whole = encode_frame({"id": 1, "op": "ping"})
        reader = _fed_reader(whole + whole[:2])
        assert (await read_frame(reader))["op"] == "ping"
        with pytest.raises(ProtocolError):
            await read_frame(reader)

    run(main())


def test_bad_frame_is_counted_and_closes_only_its_stream():
    store, truth = shared_store(FMT_FILTERKV)
    key = next(iter(truth[0]))

    async def main():
        service = QueryService(store)
        async with ServeServer(service) as server:
            reader, writer = await asyncio.open_connection(server.host, server.port)
            good = encode_frame({"id": 7, "op": "ping"})
            bad = bytearray(good)
            bad[6] ^= 0x01
            writer.write(good + bytes(bad) + good)
            replies = FrameReader(reader)
            # The frame before the damage is answered, then the stream ends.
            assert (await _within(read_frame(replies)))["pong"] is True
            assert await _within(read_frame(replies)) is None
            writer.close()
            assert service.metrics.total("serve.proto.bad_frames") == 1
            async with TCPClient(server.host, server.port) as client:
                r = await _within(client.get(key))
                assert r.status == OK and r.value == truth[0][key]
            assert service.metrics.total("serve.proto.bad_frames") == 1

    run(main())


def test_server_close_flushes_then_closes_live_connections():
    store, truth = shared_store(FMT_FILTERKV)
    keys = list(truth[0])[:6]

    async def main():
        # A shut gate: the requests are admitted but unanswered when
        # close() is called, so their replies are the ones to flush.
        service = GatedService(store)
        server = await ServeServer(service).start()
        client = await TCPClient(server.host, server.port).connect()
        inflight = [asyncio.ensure_future(client.get(k)) for k in keys]
        await until(lambda: service._inflight == len(keys))
        closing = asyncio.ensure_future(server.close())
        await until(lambda: not server._server.is_serving())
        service.gate.set()
        await _within(closing)
        for key, r in zip(keys, await _within(asyncio.gather(*inflight))):
            assert r.status == OK and r.value == truth[0][key]
        # The connection did not outlive the server.
        with pytest.raises(ConnectionError):
            await _within(client.get(keys[0]))
        _assert_nothing_waits(client)
        assert not server._connections
        await client.close()

    run(main())
