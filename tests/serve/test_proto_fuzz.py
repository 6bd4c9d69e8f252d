"""Hostile bytes against the v5 frame decoder, and the round-trip property.

Whatever arrives on a connection, `read_frame` has three outcomes: a
message, clean EOF, or `ProtocolError` — never another exception, a hang,
or memory sized by a length nobody verified.  The deterministic sweeps
(every truncation, every flipped byte, every bad length) always run; each
hypothesis property has a fast entry for tier-1 and a ``_full`` twin under
``-m slow`` for the CI ``serve`` job.
"""

import asyncio
import struct
import tracemalloc
import zlib
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.formats import FMT_FILTERKV
from repro.obs import TraceContext
from repro.serve import ANY_EPOCH, ERROR, OK, QueryService, ServeResponse, ServeServer, TCPClient
from repro.serve.proto import (
    ERR_BAD_REQUEST,
    ERR_CLOSED,
    ERR_INTERNAL,
    ERR_UNKNOWN_EPOCH,
    ERR_UNSUPPORTED_VERSION,
    MAX_FRAME_BYTES,
    PROTO_VERSION,
    FrameReader,
    ProtocolError,
    _decode_frame,
    _reply_frame,
    encode_frame,
    error_frame,
    read_frame,
)
from repro.serve.service import STATUSES

from .conftest import fed_reader as feed
from .conftest import run, shared_store

U64 = 2**64 - 1
V3, V4 = 3, 4  # the versions before this one
HEAD = struct.Struct("<BBI")  # version, kind, id
V3_GET = struct.Struct("<BBIQqd")  # v3's one-key kinds, gone in v4
V3_REPLY = struct.Struct("<BBIQqBBqqI")
V4_REPLY_MANY = struct.Struct("<BBIqqI")  # v4 led its rows with a state token, gone in v5
GET_MANY = struct.Struct("<BBIqdI")
REPLY_MANY = struct.Struct("<BBII")
ROW = struct.Struct("<QqBBI")


def frame(body: bytes) -> bytes:
    """A frame with a *valid* length and checksum around any body, so the
    decoder is exercised past its first two gates."""
    return struct.pack("<I", len(body) + 4) + body + struct.pack("<I", zlib.crc32(body))


def both_profiles(check, *strategies, quick: int, full: int):
    """One property, two pytest entries: the fast profile for tier-1 and
    its ``slow``-marked twin for the CI ``serve`` job."""
    fast = settings(max_examples=quick, deadline=None)(given(*strategies)(check))
    slow = settings(max_examples=full, deadline=None)(given(*strategies)(check))
    return fast, pytest.mark.slow(slow)


def drain(data: bytes) -> tuple[list[dict], bool]:
    """Every message `data` decodes to, and whether the stream ended in a
    `ProtocolError`.  Anything else — another exception, a read that does
    not return — fails the test."""

    async def main():
        frames, messages = feed(data), []
        try:
            while (message := await asyncio.wait_for(read_frame(frames), 5)) is not None:
                assert isinstance(message, dict) and isinstance(message["id"], int)
                messages.append(message)
        except ProtocolError:
            return messages, True
        return messages, False

    return run(main())


SPANS = [{"name": "serve.get", "start": 0.25, "end": 0.5, "attrs": {"key": 7}, "parent_id": None}]
CONTEXT = TraceContext("t" * 16, "s" * 8, True)

def get(rid, key, epoch=None, deadline_s=None, **tail):
    """A one-key read: a ``get_many`` of one key."""
    return {"id": rid, "op": "get_many", "keys": [key], "epoch": epoch, "deadline_s": deadline_s,
            **tail}


def reply(rid, *rows):
    """A ``REPLY_MANY`` of ``rows``."""
    return {"id": rid, "replies": list(rows)}


# One valid message of every shape the wire carries.
MESSAGES = {
    "get": get(1, 17),
    "get-timed-any-epoch": get(2, U64, ANY_EPOCH, 0.25),
    "get-traced": get(3, 0, 4, trace=CONTEXT.to_wire()),
    "get-unfit-key": get(4, -5),
    "reply-ok": reply(5, ServeResponse(OK, 17, 2, b"\x00\xffvalue" * 6, True)),
    "reply-empty-value": reply(6, ServeResponse(OK, 0, 0, b"", False)),
    "reply-not-found": reply(7, ServeResponse("not_found", U64, ANY_EPOCH)),
    "reply-traced-error": reply(8, ServeResponse(
        ERROR, 9, None, detail="no such epoch 9 — ünïcode", code=ERR_UNKNOWN_EPOCH, trace=SPANS,
    )),
    "error-without-key": error_frame(9, ERR_BAD_REQUEST, "bad get_many request"),
    "control": {"id": 10, "op": "stats_live", "window_s": 2.5},
    "control-reply": {"id": 11, "aux": {"format": "filterkv", "epochs": {"0": ["00ff"]}}},
    "other-version": {"id": 12, "v": PROTO_VERSION + 1, "op": "get_many", "keys": [1]},
    "get-many": {"id": 13, "op": "get_many", "keys": [17, 0, U64, 17], "epoch": None,
                 "deadline_s": None},
    "get-many-timed-traced": {"id": 14, "op": "get_many", "keys": [5], "epoch": ANY_EPOCH,
                              "deadline_s": 0.5, "trace": CONTEXT.to_wire()},
    "get-many-empty": {"id": 15, "op": "get_many", "keys": [], "epoch": 3, "deadline_s": None},
    "reply-many": reply(
        16,
        ServeResponse(OK, 17, 2, b"\x00\xffvalue", True),
        ServeResponse("not_found", U64, ANY_EPOCH),
        ServeResponse(OK, 0, 0, b"", False, trace=SPANS),
        ServeResponse(ERROR, 9, None, detail="no such epoch 9 — ünïcode", code=ERR_UNKNOWN_EPOCH),
    ),
    "reply-many-empty": reply(17),
}


def test_every_message_shape_decodes_to_itself():
    for name, message in MESSAGES.items():
        (decoded,), broken = drain(encode_frame(message))
        assert not broken, name
        if name == "other-version":
            # Only the head of another version's frame is interpreted.
            assert decoded == {"id": 12, "v": PROTO_VERSION + 1}
            continue
        want = {"v": PROTO_VERSION, **message}
        assert {k: decoded[k] for k in want} == want, name
        # Nothing appears that was not sent, bar absent optional fields.
        assert all(decoded[k] is None for k in decoded.keys() - want.keys()), name


@pytest.mark.parametrize("name", sorted(MESSAGES))
def test_every_truncation_and_every_flipped_byte_is_refused(name):
    whole = encode_frame(MESSAGES[name])
    for cut in range(len(whole)):
        messages, broken = drain(whole[:cut])
        assert messages == [] and broken == (cut > 0), (name, cut)
    for at in range(len(whole)):
        for mask in (0x01, 0x80, 0xFF):
            damaged = bytearray(whole)
            damaged[at] ^= mask
            messages, broken = drain(bytes(damaged))
            assert messages == [] and broken, (name, at, mask)
    # A damaged frame behind a good one: the good one is still delivered.
    messages, broken = drain(whole + whole[:-1] + bytes([whole[-1] ^ 0xFF]))
    assert len(messages) == 1 and broken


@pytest.mark.parametrize("length", [0, 1, HEAD.size + 4 - 1, MAX_FRAME_BYTES + 1, 2**32 - 1])
def test_length_out_of_bounds_is_refused_before_any_wait(length):
    async def main():
        # No EOF and no further bytes: a decoder that waited for `length`
        # bytes, or made room for them, would hang or balloon here.
        frames = feed(struct.pack("<I", length) + b"\x03\x03", eof=False)
        with pytest.raises(ProtocolError):
            await asyncio.wait_for(read_frame(frames), 1)
        assert len(frames.buffer) <= 6

    run(main())


def test_largest_frame_passes_and_one_byte_more_does_not():
    def reply_ok(value):
        (row,) = MESSAGES["reply-ok"]["replies"]
        return {**MESSAGES["reply-ok"], "replies": [replace(row, value=value)]}

    fixed = len(encode_frame(reply_ok(b"")))
    fits = reply_ok(bytes(MAX_FRAME_BYTES + 4 - fixed))
    (decoded,), broken = drain(encode_frame(fits))
    assert not broken and decoded["replies"] == fits["replies"]
    with pytest.raises(ProtocolError):  # the sender holds the bound too
        encode_frame(reply_ok(fits["replies"][0].value + b"\x00"))

    async def main():
        # A length inside the bound with the bytes never arriving: refused
        # at EOF, having buffered only what was sent.
        frames = feed(struct.pack("<I", MAX_FRAME_BYTES) + b"\x03" * 10)
        with pytest.raises(ProtocolError):
            await asyncio.wait_for(read_frame(frames), 1)
        assert len(frames.buffer) == 14

    run(main())


def _get_many_body(nkeys: int, payload: bytes) -> bytes:
    return GET_MANY.pack(PROTO_VERSION, 4, 1, 0, 0.5, nkeys) + payload


def _reply_many_body(nrows: int, payload: bytes) -> bytes:
    return REPLY_MANY.pack(PROTO_VERSION, 5, 1, nrows) + payload


def _row(nvalue: int, flags: int, payload: bytes = b"", status: int = 0) -> bytes:
    return ROW.pack(17, 0, status, flags, nvalue) + payload


def as_version(version: int, body: bytes) -> bytes:
    """The same bytes from a peer speaking ``version``."""
    return bytes([version]) + body[1:]


def other_versions(bodies: list[bytes]) -> list[bytes]:
    """``bodies`` as a v3 and as a v4 peer would send them."""
    return [as_version(version, b) for version in (V3, V4) for b in bodies]


def refused(body: bytes, decode) -> bool:
    """Whether ``decode(body)`` refused a v5 ``body`` as malformed or, for
    another version's ``body``, interpreted nothing but its head (which
    the server answers with a typed ``unsupported_version`` error)."""
    if body[0] == PROTO_VERSION:
        return decode(body) == ([], True)
    return decode(body) == ([{"id": 1, "v": body[0]}], False)


MALFORMED = [
    HEAD.pack(PROTO_VERSION, 0, 1),  # unknown kinds
    HEAD.pack(PROTO_VERSION, 6, 1) + b"{}",
    HEAD.pack(PROTO_VERSION, 255, 1),
    # v3's one-key GET and REPLY are unknown kinds in v4, however well-formed.
    V3_GET.pack(PROTO_VERSION, 1, 1, 17, 0, 0.5),
    V3_GET.pack(PROTO_VERSION, 1, 1, 17, 0, 0.5) + b'{"trace": null}',
    V3_REPLY.pack(PROTO_VERSION, 2, 1, 17, 0, 0, 2, 0, 0, 3) + b"abc",
    HEAD.pack(PROTO_VERSION, 3, 1),  # JSON kind without a payload
    HEAD.pack(PROTO_VERSION, 3, 1) + b"\xff\xfe{}",
    HEAD.pack(PROTO_VERSION, 3, 1) + b'{"op": "ping"',
    HEAD.pack(PROTO_VERSION, 3, 1) + b"[1, 2]",
    HEAD.pack(PROTO_VERSION, 3, 1) + b"3",
    HEAD.pack(PROTO_VERSION, 3, 1) + b"null",
    HEAD.pack(PROTO_VERSION, 3, 1) + b"[" * 100_000,  # would blow the parser's stack
    HEAD.pack(PROTO_VERSION, 3, 1) + b'{"replies": []}',  # rows ride only in a REPLY_MANY
    HEAD.pack(PROTO_VERSION, 4, 1) + b"{}",  # GET_MANY shorter than its struct
    _get_many_body(1, b""),  # keys run past the frame
    _get_many_body(3, bytes(16)),
    _get_many_body(2**32 - 1, bytes(8)),
    _get_many_body(1, bytes(8) + b"\xff\xfe"),  # tail, bad UTF-8
    _get_many_body(0, b"[1]"),  # tails must be objects
    _get_many_body(0, b'{"replies": [{"status": "ok"}]}'),
    HEAD.pack(PROTO_VERSION, 5, 1) + bytes(3),  # REPLY_MANY shorter than its struct
    _reply_many_body(1, b""),  # rows run past the frame
    _reply_many_body(2, _row(0, 0)),
    _reply_many_body(2**32 - 1, _row(0, 0)),
    _reply_many_body(1, _row(9, 2, b"12345678")),  # value runs past the frame
    _reply_many_body(1, _row(2**32 - 1, 2, b"x")),
    _reply_many_body(1, _row(3, 0, b"abc")),  # value bytes but no has-value flag
    _reply_many_body(2, _row(3, 2, b"abc") + _row(3, 0, b"abc")),
    _reply_many_body(1, _row(0, 2, status=len(STATUSES))),  # no such status
    _reply_many_body(1, _row(3, 2, b"abcdef")),  # leftover that is no JSON tail
    _reply_many_body(1, _row(0, 2) + b'["detail"]'),
    _reply_many_body(1, _row(0, 2) + b'{"rows": [{"detail": "x"}]}'),  # row tails: an object
    _reply_many_body(1, _row(0, 2) + b'{"rows": {"1": {"detail": "x"}}}'),  # for no row
    _reply_many_body(1, _row(0, 2) + b'{"rows": {"-0": {}}}'),
    _reply_many_body(1, _row(0, 2) + b'{"rows": {"\xd9\xa0": {}}}'),  # a non-ASCII digit
    _reply_many_body(1, _row(0, 2) + b'{"rows": {"' + b"0" * 5000 + b'": {}}}'),
    _reply_many_body(1, _row(0, 2) + b'{"rows": {"0": "detail"}}'),
    _reply_many_body(1, _row(0, 2) + b'{"rows": {"0": {"error": "closed"}}}'),  # error: an object
    _reply_many_body(1, _row(0, 2) + b'{"rows": {"0": {"error": {"code": [1, 2]}}}}'),  # strings
    _reply_many_body(1, _row(0, 2) + b'{"rows": {"0": {"detail": 7}}}'),
]


@pytest.mark.parametrize("body", MALFORMED + other_versions(MALFORMED))
def test_checksummed_but_malformed_bodies_are_refused(body):
    assert refused(body, lambda b: drain(frame(b)))


OVERCOUNTED = [
    _get_many_body(2**32 - 1, bytes(8)),
    _get_many_body(2**31, bytes(64)),
    _reply_many_body(2**32 - 1, _row(0, 2)),
    _reply_many_body(2**31, _row(0, 2) * 4),
    _reply_many_body(1, _row(2**32 - 1, 2, b"x")),
    _reply_many_body(2, _row(0, 2) + _row(2**31, 2, b"x")),
]


@pytest.mark.parametrize("body", OVERCOUNTED + other_versions(OVERCOUNTED))
def test_counts_that_disagree_with_the_frame_allocate_nothing(body):
    """A key count, row count or value length is checked against the
    frame before anything is sized by it."""

    def decode(b):
        try:
            return [_decode_frame(b, zlib.crc32(b))], False
        except ProtocolError:
            return [], True

    tracemalloc.start()
    try:
        assert refused(body, decode)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024


def test_v3_one_key_kinds_are_unknown_kinds_in_v4():
    for body in MALFORMED[3:6]:
        with pytest.raises(ProtocolError, match="unknown frame kind"):
            _decode_frame(body, zlib.crc32(body))


def test_a_v3_get_is_refused_by_version_and_addressed_to_its_id():
    store, _ = shared_store(FMT_FILTERKV)

    async def main():
        async with ServeServer(QueryService(store)) as server:
            reader, writer = await asyncio.open_connection(server.host, server.port)
            writer.write(frame(V3_GET.pack(V3, 1, 77, 17, 0, float("nan"))))
            answer = await asyncio.wait_for(read_frame(FrameReader(reader)), 5)
            writer.close()
        assert answer["id"] == 77 and answer["status"] == ERROR
        assert answer["error"] == {"code": ERR_UNSUPPORTED_VERSION, "retryable": False}

    run(main())


def test_a_v4_peer_is_refused_by_version_and_addressed_to_its_id():
    """v4 read frames: a ``GET_MANY`` (laid out as in v5) is answered
    ``unsupported_version``; a ``REPLY_MANY`` (a state token before its
    rows) is interpreted no further than its head."""
    v4_reply = V4_REPLY_MANY.pack(V4, 5, 41, 3, 9, 1) + _row(0, 2)
    assert drain(frame(v4_reply)) == ([{"id": 41, "v": V4}], False)
    store, _ = shared_store(FMT_FILTERKV)

    async def main():
        async with ServeServer(QueryService(store)) as server:
            reader, writer = await asyncio.open_connection(server.host, server.port)
            writer.write(frame(GET_MANY.pack(V4, 4, 78, 0, float("nan"), 1) + struct.pack("<Q", 17)))
            answer = await asyncio.wait_for(read_frame(FrameReader(reader)), 5)
            writer.close()
        assert answer["id"] == 78 and answer["status"] == ERROR
        assert answer["error"] == {"code": ERR_UNSUPPORTED_VERSION, "retryable": False}

    run(main())


def test_other_versions_are_answered_not_parsed():
    for version in (0, 1, 2, V3, V4, PROTO_VERSION + 1, 255):
        (decoded,), broken = drain(frame(HEAD.pack(version, 77, 41) + b"\xffwhatever"))
        assert not broken and decoded == {"id": 41, "v": version}


def test_fixed_fields_win_over_a_tail_that_repeats_them():
    body = GET_MANY.pack(PROTO_VERSION, 4, 5, 0, 0.5, 1) + struct.pack("<Q", 17)
    (decoded,), _ = drain(frame(body + b'{"keys": [99], "id": 1, "op": "stats", "x": 1}'))
    assert (decoded["id"], decoded["op"], decoded["keys"], decoded["x"]) == (5, "get_many", [17], 1)
    # A row tail gives its row the rare fields, never a fixed one.
    tail = b'{"id": 9, "rows": {"0": {"status": "error", "key": 3, "detail": "d"}}}'
    (decoded,), _ = drain(frame(_reply_many_body(1, _row(0, 2)) + tail))
    assert decoded["id"] == 1
    assert decoded["replies"] == [ServeResponse(OK, 17, 0, b"", detail="d")]


# -- properties ----------------------------------------------------------------


def check_arbitrary_stream(data):
    messages, broken = drain(data)
    assert broken or not data or messages


def check_arbitrary_checksummed_bodies(bodies):
    messages, broken = drain(b"".join(frame(b) for b in bodies))
    assert len(messages) <= len(bodies) and (broken or len(messages) == len(bodies))


streams = st.binary(max_size=300)
bodies = st.lists(
    st.one_of(
        st.binary(max_size=120),
        # Mostly-plausible bodies: this version, a real kind, random rest.
        st.builds(
            lambda kind, rid, rest: HEAD.pack(PROTO_VERSION, kind, rid) + rest,
            st.integers(0, 6), st.integers(0, 2**32 - 1), st.binary(max_size=120),
        ),
    ),
    min_size=1, max_size=4,
)

test_arbitrary_stream, test_arbitrary_stream_full = both_profiles(
    check_arbitrary_stream, streams, quick=200, full=5000
)
test_arbitrary_checksummed_bodies, test_arbitrary_checksummed_bodies_full = both_profiles(
    check_arbitrary_checksummed_bodies, bodies, quick=200, full=5000
)

epochs = st.one_of(st.none(), st.just(ANY_EPOCH), st.integers(-(2**63) + 1, 2**63 - 1))
keys = st.one_of(st.just(0), st.just(U64), st.integers(0, U64))
json_leaves = st.one_of(st.none(), st.booleans(), st.integers(-(2**53), 2**53), st.text(max_size=12))
span_trees = st.lists(
    st.dictionaries(st.text(max_size=8), st.one_of(json_leaves, st.lists(json_leaves, max_size=3)),
                    max_size=4),
    max_size=3,
)
responses = st.builds(
    ServeResponse,
    status=st.sampled_from(STATUSES),
    key=keys,
    epoch=epochs,
    value=st.one_of(st.none(), st.just(b""), st.binary(max_size=256)),
    cached=st.booleans(),
    detail=st.text(max_size=40),
    trace=st.one_of(st.none(), span_trees),
    code=st.sampled_from(["", ERR_CLOSED, ERR_INTERNAL, ERR_UNKNOWN_EPOCH, ERR_UNSUPPORTED_VERSION]),
)
requests = st.fixed_dictionaries(
    {
        "id": st.integers(0, 2**32 - 1),
        "op": st.just("get_many"),
        "keys": keys.map(lambda key: [key]),  # a one-key read
        "epoch": epochs,
        "deadline_s": st.one_of(st.none(), st.floats(0, 1e6), st.just(float("inf"))),
    },
    optional={
        "trace": st.builds(
            lambda t, s, sampled: TraceContext(t, s, sampled).to_wire(),
            st.text(min_size=1, max_size=16), st.text(min_size=1, max_size=16), st.booleans(),
        )
    },
)


many_requests = st.fixed_dictionaries(
    {
        "id": st.integers(0, 2**32 - 1),
        "op": st.just("get_many"),
        "keys": st.lists(keys, max_size=40),
        "epoch": epochs,
        "deadline_s": st.one_of(st.none(), st.floats(0, 1e6), st.just(float("inf"))),
    },
    optional={"trace": st.just(CONTEXT.to_wire())},
)


def check_response_round_trip(response, rid):
    """A response rides one row of a ``REPLY_MANY`` and comes back as it
    was."""
    (decoded,), broken = drain(encode_frame(reply(rid, response)))
    assert not broken and decoded == {"v": PROTO_VERSION, **reply(rid, response)}


def check_reply_many_round_trip(batch, rid):
    """The server's packer and `encode_frame` of the same responses decode
    to one message, whose rows are those responses."""
    (decoded,), broken = drain(encode_frame(reply(rid, *batch)))
    assert not broken and decoded == {"v": PROTO_VERSION, **reply(rid, *batch)}
    assert drain(_reply_frame(rid, batch)) == ([decoded], False)


def check_reply_round_trip(response, rid):
    (decoded,), broken = drain(_reply_frame(rid, [response]))
    assert not broken and decoded["replies"] == [response]


def check_request_round_trip(request):
    (decoded,), broken = drain(encode_frame(request))
    assert not broken and decoded == {"v": PROTO_VERSION, **request}
    if "trace" in request:
        assert TraceContext.from_wire(decoded["trace"]) == TraceContext.from_wire(request["trace"])


test_response_round_trip, test_response_round_trip_full = both_profiles(
    check_response_round_trip, responses, st.integers(0, 2**32 - 1), quick=150, full=3000
)
test_request_round_trip, test_request_round_trip_full = both_profiles(
    check_request_round_trip, requests, quick=150, full=3000
)
test_many_request_round_trip, test_many_request_round_trip_full = both_profiles(
    check_request_round_trip, many_requests, quick=150, full=3000
)
test_reply_many_round_trip, test_reply_many_round_trip_full = both_profiles(
    check_reply_many_round_trip, st.lists(responses, max_size=12), st.integers(0, 2**32 - 1),
    quick=100, full=2000,
)
test_reply_round_trip, test_reply_round_trip_full = both_profiles(
    check_reply_round_trip, responses, st.integers(0, 2**32 - 1), quick=100, full=2000,
)


def test_epoch_that_collides_with_the_none_sentinel_still_round_trips():
    request = {**MESSAGES["get"], "epoch": -(2**63)}
    (decoded,), _ = drain(encode_frame(request))
    assert decoded["epoch"] == -(2**63)


# -- a live server under the same streams --------------------------------------


def check_server_survives(streams_):
    """Each hostile stream on its own connection; afterwards, and in
    between, a well-behaved client is still answered."""
    store, truth = shared_store(FMT_FILTERKV)
    key = next(iter(truth[0]))

    async def main():
        server = await ServeServer(QueryService(store)).start()
        try:
            for data in streams_:
                reader, writer = await asyncio.open_connection(server.host, server.port)
                writer.write(data)
                writer.write_eof()
                replies = FrameReader(reader)
                try:
                    # Whatever comes back is itself well-formed, and the
                    # server ends the stream instead of hanging on it.
                    while await asyncio.wait_for(read_frame(replies), 5) is not None:
                        pass
                finally:
                    writer.close()
                async with TCPClient(server.host, server.port) as client:
                    r = await asyncio.wait_for(client.get(key), 5)
                    assert r.status == OK and r.value == truth[0][key]
        finally:
            await asyncio.wait_for(server.close(), 5)
        assert not server._connections

    run(main())


hostile = st.lists(
    st.one_of(
        streams,
        bodies.map(lambda bs: b"".join(frame(b) for b in bs)),
        # Valid traffic with damage spliced in behind it.
        st.builds(
            lambda names, junk: b"".join(encode_frame(MESSAGES[n]) for n in names) + junk,
            st.lists(st.sampled_from(sorted(MESSAGES)), max_size=4), streams,
        ),
    ),
    min_size=1, max_size=3,
)

test_server_survives_hostile_streams, test_server_survives_hostile_streams_full = both_profiles(
    check_server_survives, hostile, quick=25, full=400
)
