"""Wire front end for `QueryService`: framing, server, clients.

Frame v5.  Every message, in both directions, is one little-endian frame::

    u32 length ‖ u8 version ‖ u8 kind ‖ u32 id ‖ kind-specific ‖ u32 CRC-32

``length`` counts everything after itself and is bounded by
`MAX_FRAME_BYTES`; the CRC (`zlib.crc32`) covers everything between the
length and itself.  Both ends check the bound before they wait for the
bytes and the checksum before they use a field, so a torn, flipped or
oversized frame is a `ProtocolError` that closes the stream.  ``version ‖
kind ‖ id`` sit at the same offsets in every version, so a peer speaking
another one is refused with a typed ``unsupported_version`` error
addressed to its request id instead of being misread.

====  ==========  =======================================================
kind  name        kind-specific bytes
====  ==========  =======================================================
3     JSON        one JSON object
4     GET_MANY    i64 epoch ‖ f64 deadline_s ‖ u32 n ‖ n × u64 key ‖
                  [JSON tail]
5     REPLY_MANY  u32 n ‖ n × (u64 key ‖ i64 epoch ‖ u8 status ‖ u8 flags
                  ‖ u32 value length ‖ value) ‖ [JSON tail]
====  ==========  =======================================================

A read is *binary*: a ``GET_MANY`` asks for n keys at one epoch
(i64-min for ``None``) and deadline (NaN for none), and one ``REPLY_MANY``
answers with a row per key, in key order — ``status`` indexes `STATUSES`,
``flags`` say cached / has value, the value is raw bytes.  A one-key
read is a ``GET_MANY`` of one key: v3's one-key kinds 1 and 2 are gone,
and decode as unknown kinds.
Everything rare is *JSON inside the same frame and checksum*: a request's
`TraceContext` and a row's ``detail``, error ``code`` and span tree ride as
a JSON-object tail (a row's under ``"rows": {"<index>": {...}}``); the
control verbs (``stats``, ``stats_live``, ``trace``, ``ping``), their
replies, error replies and any request whose fields do
not fit a fixed slot are kind 3.  To callers a message is still an
id-tagged dict — ``{"id": 8, "v": 5, "op": "get_many", "keys": [1, 2],
"epoch": None, "deadline_s": None}``, ``{"id": 8, "v": 5, "replies":
[ServeResponse, ...]}``, rows decoded straight into responses — and
`encode_frame` / `read_frame` alone know how it is laid out.

One checksum everywhere: frames, like every extent at rest, carry a `zlib.crc32`.

Bursts start at the client.  `TCPClient.get_burst` (and `get`, its
one-request fast path) sends no frame of its own: its untraced
requests join the loop turn's pending *runs* — a run is the maximal
sequence of consecutive requests at one ``(epoch, deadline_s)``, whoever
made them — and the call awaits one future per run it joined.  A traced
request is a run of its own; a control verb's frame queues behind the
runs before it.  At the end of the loop turn `TCPClient._flush` packs
each run into one ``GET_MANY`` and sends all the turn queued with one
write; the reply's rows go to the run's calls, a slice each.
`ServeServer` takes every complete frame already
buffered (a *read burst*), hands every key it reads to one ``get_burst``
call of the mounted service, in the callers' order, and answers with one
write, so a closed loop's requests keep arriving together and fill the
service's dispatch windows by themselves.  The one cost: a cache hit
leaves with the misses it was pipelined with, at most one dispatch window
late; members carrying a deadline are answered apart from those carrying
none, so that wait is bounded by a deadline the service enforces, never
by a hung peer.  Replies are matched by id.

Failures are **typed error frames** — ``{"status": "error", "error":
{"code", "retryable"}, "detail"}`` — telling *the request is wrong*
(``unknown_op``, ``unsupported_version``, ``bad_request``: don't retry)
from *this shard, right now* (``unknown_epoch``, ``closed``: fail
over); ``epoch_retired`` (a compaction merged the epoch away) is final.  A frame refused as a whole is that refusal for every key it
asked for.  An op the server does not know (v3's one-key ``get``, say)
is answered ``unknown_op`` and the connection stays open.

`TCPClient` speaks this over a socket; in process, a `QueryService` is
its own client: both answer ``get`` and ``get_burst`` alike.
"""

from __future__ import annotations

import asyncio
import itertools
import json
import struct
import zlib
from dataclasses import replace

from ..obs import TraceContext
from .service import (
    ERROR, STATUSES, QueryService, ServeResponse, checked_request, checked_window
)

__all__ = [
    "ServeServer",
    "TCPClient",
    "FrameReader",
    "encode_frame",
    "read_frame",
    "error_frame",
    "MAX_FRAME_BYTES",
    "PROTO_VERSION",
    "ERR_UNKNOWN_OP",
    "ERR_UNSUPPORTED_VERSION",
    "ERR_BAD_REQUEST",
    "ERR_UNKNOWN_EPOCH",
    "ERR_EPOCH_RETIRED",
    "ERR_CLOSED",
    "ERR_INTERNAL",
]

MAX_FRAME_BYTES = 1 << 24  # 16 MiB: a point query never comes close
PROTO_VERSION = 5

_LEN = struct.Struct("<I")
_CRC = struct.Struct("<I")
_HEAD = struct.Struct("<BBI")  # version, kind, id: fixed across versions
_GET_MANY = struct.Struct("<BBIqdI")  # + epoch, deadline_s, key count; then the keys
_REPLY_MANY = struct.Struct("<BBII")  # + row count; then the rows
_ROW = struct.Struct("<QqBBI")  # key, epoch, status, flags, value length; then the value
_KEY_BYTES = 8
_RUN_BYTES = _LEN.size + _GET_MANY.size + _CRC.size  # a GET_MANY frame bar its keys
_MIN_FRAME_BYTES = _HEAD.size + _CRC.size
_READ_BYTES = 1 << 16

_KIND_JSON, _KIND_GET_MANY, _KIND_REPLY_MANY = 3, 4, 5
_GET_MANY_KEYS = frozenset(("id", "v", "op", "keys", "epoch", "deadline_s"))
_REPLY_MANY_KEYS = frozenset(("id", "v", "replies"))
_U64_MAX = (1 << 64) - 1
_STATUS_CODE = {status: i for i, status in enumerate(STATUSES)}
_F_CACHED, _F_VALUE = 1, 2
_NO_EPOCH = -(1 << 63)
_NAN = float("nan")
_ID_MASK = 0xFFFFFFFF

# Error codes, grouped by what the caller should do about them.
ERR_UNKNOWN_OP = "unknown_op"              # caller bug: don't retry
ERR_UNSUPPORTED_VERSION = "unsupported_version"  # caller speaks another version: don't retry
ERR_BAD_REQUEST = "bad_request"            # caller bug: don't retry
ERR_UNKNOWN_EPOCH = "unknown_epoch"        # shard cannot resolve the epoch: fail over
ERR_EPOCH_RETIRED = "epoch_retired"        # a merge retired the epoch: don't retry
ERR_CLOSED = "closed"                      # shard draining: fail over
ERR_INTERNAL = "internal"                  # shard-side fault: retry elsewhere
_RETRYABLE = {ERR_CLOSED, ERR_INTERNAL}


class ProtocolError(ValueError):
    """The peer sent something that is not a valid frame."""


def error_frame(rid, code: str, detail: str) -> dict:
    """A typed error response.  ``retryable`` spells out whether the
    failure is about *this request* (malformed, unknown verb — retrying
    is useless) or *this shard right now* (draining, internal fault —
    another replica may answer)."""
    return {
        "id": rid,
        "v": PROTO_VERSION,
        "status": ERROR,
        "key": None,
        "epoch": None,
        "value": None,
        "cached": False,
        "detail": detail,
        "error": {"code": code, "retryable": code in _RETRYABLE},
    }


# -- the frame codec -----------------------------------------------------------


def _json_pack(fields: dict) -> bytes:
    return json.dumps(fields).encode()


def _json_unpack(raw: bytes) -> dict:
    try:
        fields = json.loads(raw)
    except (ValueError, RecursionError) as e:  # bad UTF-8 is a ValueError too
        raise ProtocolError(f"bad JSON payload: {e}") from e
    if not isinstance(fields, dict):
        raise ProtocolError("JSON payload is not an object")
    return fields


def _epoch_slot(epoch) -> int:
    if epoch is None:
        return _NO_EPOCH
    if epoch == _NO_EPOCH:
        raise ValueError("epoch collides with the None sentinel")
    return epoch


def _response_extras(response: ServeResponse) -> dict:
    """The fields of a reply row that ride in its frame's JSON tail."""
    out = {}
    if response.detail:
        out["detail"] = response.detail
    if response.trace is not None:
        out["trace"] = response.trace
    if response.code:
        out["error"] = {"code": response.code, "retryable": response.code in _RETRYABLE}
    return out


def _pack_reply_many(version: int, rid: int, responses, tail: dict) -> bytes:
    """A ``REPLY_MANY`` body: one row per response, and a JSON tail
    holding ``tail`` and the rows' rare fields.  Raises what `struct` and
    the lookups raise when a field does not fit its slot."""
    parts = [_REPLY_MANY.pack(version, _KIND_REPLY_MANY, rid, len(responses))]
    rows = {}
    for i, r in enumerate(responses):
        value = b"" if r.value is None else r.value
        flags = (_F_CACHED if r.cached else 0) | (0 if r.value is None else _F_VALUE)
        parts.append(_ROW.pack(r.key, _epoch_slot(r.epoch), _STATUS_CODE[r.status], flags, len(value)))
        parts.append(value)
        if r.detail or r.code or r.trace is not None:
            rows[str(i)] = _response_extras(r)
    if "rows" in tail:
        raise ValueError("'rows' names the row tails of a REPLY_MANY")
    if rows:
        tail = {**tail, "rows": rows}
    if tail:
        parts.append(_json_pack(tail))
    return b"".join(parts)


def _seal(body: bytes) -> bytes:
    """Length prefix and checksum around one frame body."""
    length = len(body) + _CRC.size
    if length > MAX_FRAME_BYTES:
        raise ProtocolError(f"frame of {length} bytes exceeds {MAX_FRAME_BYTES}")
    return _LEN.pack(length) + body + _CRC.pack(zlib.crc32(body))


def encode_frame(message: dict) -> bytes:
    """The bytes that go on the wire for one message.  A ``get_many``
    whose fields do not fit its slots rides as JSON; ``replies`` (a list
    of `ServeResponse`) only ever ride as a ``REPLY_MANY``."""
    version, rid = message.get("v", PROTO_VERSION), message.get("id") or 0
    if "replies" in message:
        tail = {name: message[name] for name in message.keys() - _REPLY_MANY_KEYS}
        return _seal(_pack_reply_many(version, rid, message["replies"], tail))
    body = None
    if message.get("op") == "get_many":
        try:
            keys, deadline = message["keys"], message.get("deadline_s")
            body = _GET_MANY.pack(
                version, _KIND_GET_MANY, rid, _epoch_slot(message.get("epoch")),
                _NAN if deadline is None else deadline, len(keys),
            ) + struct.pack(f"<{len(keys)}Q", *keys)
        except (struct.error, KeyError, TypeError, ValueError):
            pass  # a field does not fit its slot: the message rides as JSON
        else:
            tail = {name: message[name] for name in message.keys() - _GET_MANY_KEYS}
            if tail:
                body += _json_pack(tail)
    if body is None:
        body = _HEAD.pack(version, _KIND_JSON, rid) + _json_pack(
            {name: message[name] for name in message.keys() - {"id", "v"}}
        )
    return _seal(body)


def _unpack_rows(body: bytes, n: int) -> tuple[list[ServeResponse], int]:
    """The ``n`` rows of a ``REPLY_MANY`` body, as responses, and where
    they end.  Counts and lengths are checked against the body before
    anything is sliced."""
    at = _REPLY_MANY.size
    if at + n * _ROW.size > len(body):
        raise ProtocolError("row count disagrees with the frame")
    rows = []
    for _ in range(n):
        key, epoch, status, flags, nvalue = _ROW.unpack_from(body, at)
        start = at + _ROW.size
        at = start + nvalue
        if at > len(body) or (nvalue and not flags & _F_VALUE):
            raise ProtocolError("value length disagrees with the frame")
        rows.append(ServeResponse(
            STATUSES[status], key, None if epoch == _NO_EPOCH else epoch,
            body[start:at] if flags & _F_VALUE else None, bool(flags & _F_CACHED),
        ))
    return rows, at


def _error_fields(fields: dict) -> tuple[str, str]:
    """The ``detail`` and error ``code`` of a reply row's tail or of a
    refusal; both must be strings (a code is looked up in sets)."""
    error = fields.get("error") or {}
    if not isinstance(error, dict):
        raise ProtocolError("an error that is not an object")
    detail, code = fields.get("detail", ""), error.get("code", "")
    if not (isinstance(detail, str) and isinstance(code, str)):
        raise ProtocolError("an error code or detail that is not a string")
    return detail, code


def _merge_row_tails(rows: list[ServeResponse], tails) -> None:
    """Fold a ``REPLY_MANY`` tail's ``rows`` object into its rows: a row
    takes ``detail``, ``trace`` and the error ``code`` from it, and never
    a fixed field."""
    if not isinstance(tails, dict):
        raise ProtocolError("row tails are not an object")
    for index, fields in tails.items():
        # (A u32 row count has at most 10 digits; the bound also keeps
        # `int` below its digit limit.)
        if not (index.isascii() and index.isdigit() and len(index) <= 10
                and int(index) < len(rows)):
            raise ProtocolError(f"row tail for no row: {index[:16]!r}")
        if not isinstance(fields, dict):
            raise ProtocolError("a row tail is not an object")
        i = int(index)
        detail, code = _error_fields(fields)
        rows[i] = replace(rows[i], detail=detail, trace=fields.get("trace"), code=code)


def _decode_frame(body: bytes, crc: int) -> dict:
    """One length-checked frame body (version up to the CRC) as a message."""
    if zlib.crc32(body) != crc:
        raise ProtocolError("frame checksum mismatch")
    version, kind, rid = _HEAD.unpack_from(body)
    if version != PROTO_VERSION:
        # Only the head is laid out the same in every version: enough to
        # address the refusal, nothing more is interpreted.
        return {"id": rid, "v": version}
    message = {"id": rid, "v": version}
    try:
        if kind == _KIND_GET_MANY:
            _, _, _, epoch, deadline, n = _GET_MANY.unpack_from(body)
            tail = _GET_MANY.size + n * _KEY_BYTES
            if tail > len(body):
                raise ProtocolError("key count disagrees with the frame")
            message.update(
                op="get_many", keys=list(struct.unpack_from(f"<{n}Q", body, _GET_MANY.size)),
                epoch=None if epoch == _NO_EPOCH else epoch,
                deadline_s=None if deadline != deadline else deadline,
            )
        elif kind == _KIND_REPLY_MANY:
            _, _, _, n = _REPLY_MANY.unpack_from(body)
            message["replies"], tail = _unpack_rows(body, n)
        elif kind == _KIND_JSON:
            tail = _HEAD.size  # the payload is not optional here
        else:
            raise ProtocolError(f"unknown frame kind {kind}")
    except (struct.error, IndexError) as e:  # shorter than its kind, or no such status
        raise ProtocolError(f"bad frame: {e}") from e
    if tail < len(body) or kind == _KIND_JSON:
        extra = _json_unpack(body[tail:])
        if "replies" in extra:
            raise ProtocolError("'replies' rides only in a REPLY_MANY's rows")
        if "rows" in extra and kind == _KIND_REPLY_MANY:
            _merge_row_tails(message["replies"], extra.pop("rows"))
        message = {**extra, **message}  # the fixed fields win
    return message


class FrameReader:
    """The receive side of one connection: the stream and the bytes already
    read from it but not yet parsed.  `proto` owns this buffer, so "is
    another complete frame already here" — what makes a read burst — is
    answered without looking inside `asyncio.StreamReader`."""

    __slots__ = ("stream", "buffer")

    def __init__(self, stream: asyncio.StreamReader):
        self.stream = stream
        self.buffer = bytearray()

    def frame_end(self) -> int:
        """Where the first buffered frame ends, or 0 while it is incomplete.
        A length out of bounds is refused here, before anything waits for,
        or makes room for, that many bytes."""
        if len(self.buffer) < _LEN.size:
            return 0
        (length,) = _LEN.unpack_from(self.buffer)
        if not _MIN_FRAME_BYTES <= length <= MAX_FRAME_BYTES:
            raise ProtocolError(
                f"frame length {length} outside [{_MIN_FRAME_BYTES}, {MAX_FRAME_BYTES}]"
            )
        end = _LEN.size + length
        return end if len(self.buffer) >= end else 0


async def read_frame(frames: FrameReader) -> dict | None:
    """Next message on the stream, or ``None`` on clean EOF (the stream
    ended between frames; anything less is a `ProtocolError`)."""
    buffer = frames.buffer
    while not (end := frames.frame_end()):
        try:
            chunk = await frames.stream.read(_READ_BYTES)
        except ConnectionError:
            chunk = b""
        if not chunk:
            if buffer:
                raise ProtocolError("connection dropped mid-frame")
            return None
        buffer += chunk
    body = bytes(buffer[_LEN.size:end - _CRC.size])
    (crc,) = _CRC.unpack_from(buffer, end - _CRC.size)
    del buffer[:end]
    return _decode_frame(body, crc)


def _reply_frame(rid: int, responses: list[ServeResponse]) -> bytes:
    """The ``REPLY_MANY`` answering one ``GET_MANY``, packed straight from
    its responses (it decodes to what `encode_frame` of the same message
    would)."""
    return _seal(_pack_reply_many(PROTO_VERSION, rid, responses, {}))


def _responses(reply: dict, keys: list[int]) -> list[ServeResponse]:
    """The answer to one ``GET_MANY`` as one response per key: its rows,
    or — when the frame was refused as a whole — that refusal per key."""
    if reply["v"] != PROTO_VERSION:
        raise ProtocolError(f"peer answered in v{reply['v']}, not v{PROTO_VERSION}")
    rows = reply.get("replies")
    if rows is None:
        if reply.get("status") not in STATUSES:
            raise ProtocolError("a refusal without a known status")
        detail, code = _error_fields(reply)
        return [
            ServeResponse(
                status=reply["status"], key=key, epoch=reply.get("epoch"),
                detail=detail, trace=reply.get("trace"), code=code,
            )
            for key in keys
        ]
    if len(rows) != len(keys):
        raise ProtocolError(f"{len(rows)} replies to {len(keys)} keys")
    return rows


def _read_members(request: dict) -> list[tuple]:
    """The ``get_burst`` members, ``(key, epoch, deadline_s, trace)``, of
    one ``get_many`` request.  Raises KeyError, TypeError or ValueError
    for a request whose fields mean nothing; one key, epoch or deadline
    that `checked_request` refuses refuses the request."""
    epoch, deadline = request.get("epoch"), request.get("deadline_s")
    keys = request["keys"]
    if not isinstance(keys, list):
        raise TypeError(f"keys is a {type(keys).__name__}, not a list")
    trace = request.get("trace")
    members = []
    for key in keys:
        key, epoch = checked_request(key, epoch, deadline)
        members.append((key, epoch, deadline, trace))
    return members


class ServeServer:
    """Asyncio TCP server mounting one `QueryService`."""

    def __init__(self, service: QueryService, host: str = "127.0.0.1", port: int = 0):
        self.service = service
        self.host = host
        self.port = port  # 0: let the OS pick; read back after start()
        self._server: asyncio.AbstractServer | None = None
        # Live connections: the `_handle` task and the stream it reads.
        self._connections: dict[asyncio.Task, asyncio.StreamReader] = {}
        self._m_bad_frames = service.metrics.counter("serve.proto.bad_frames")

    async def start(self) -> "ServeServer":
        self._server = await asyncio.start_server(self._handle, self.host, self.port)
        self.port = self._server.sockets[0].getsockname()[1]
        return self

    async def close(self) -> None:
        """Stop accepting, answer what established connections already
        sent, close them, then close the service."""
        if self._server is not None:
            self._server.close()
            for reader in self._connections.values():
                # Ends the connection's next read; `_handle` then leaves by
                # its ordinary way out, which flushes the replies in flight.
                reader.set_exception(ConnectionAbortedError("server closing"))
            if self._connections:
                await asyncio.gather(*self._connections, return_exceptions=True)
            await self._server.wait_closed()
            self._server = None
        await self.service.close()

    async def __aenter__(self) -> "ServeServer":
        return await self.start()

    async def __aexit__(self, *exc) -> None:
        await self.close()

    async def serve_forever(self) -> None:
        assert self._server is not None, "call start() first"
        async with self._server:
            await self._server.serve_forever()

    async def _handle(self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter):
        """One connection: read a burst, hand it to a task, repeat."""
        loop = asyncio.get_running_loop()
        connection = asyncio.current_task()
        self._connections[connection] = reader
        frames = FrameReader(reader)
        bursts: set[asyncio.Task] = set()
        try:
            more = True
            while more:
                burst, more = await self._read_burst(frames)
                # Deadline-carrying requests are answered apart from the
                # rest, so what bounds their wait is a deadline the service
                # enforces, never a peer that is willing to wait for ever.
                timed = [r for r in burst if r.get("deadline_s") is not None]
                untimed = [r for r in burst if r.get("deadline_s") is None]
                for part in (timed, untimed):
                    if part:
                        task = loop.create_task(self._serve_burst(part, writer))
                        bursts.add(task)
                        task.add_done_callback(bursts.discard)
                # A client that stops reading replies stops being read.
                await writer.drain()
        except ConnectionError:
            pass  # client went away; nothing to tell it
        finally:
            del self._connections[connection]
            if bursts:
                await asyncio.gather(*bursts, return_exceptions=True)
            writer.close()
            try:
                await writer.wait_closed()
            except ConnectionError:
                pass

    async def _read_burst(self, frames: FrameReader) -> tuple[list[dict], bool]:
        """The next request and every complete one buffered behind it, and
        whether the stream can be read again afterwards."""
        burst: list[dict] = []
        try:
            while True:
                request = await read_frame(frames)
                if request is None:
                    return burst, False
                burst.append(request)
                if not frames.frame_end():
                    return burst, True
        except ProtocolError:
            # Framing is broken: the stream is unrecoverable.  What arrived
            # intact before the break is still answered.
            self._m_bad_frames.inc()
            return burst, False

    async def _serve_burst(self, requests: list[dict], writer: asyncio.StreamWriter) -> None:
        """Answer the requests of one read burst with one write: every key
        they read goes to one ``get_burst`` call of the mounted service,
        every other verb is answered on the spot."""
        replies: list[bytes | None] = [None] * len(requests)
        reads: list[tuple[int, dict, int, int]] = []  # slot, request, first member, count
        members: list[tuple] = []
        for j, request in enumerate(requests):
            if request["v"] != PROTO_VERSION or request.get("op") != "get_many":
                replies[j] = self._answer(request)
                continue
            try:
                read = _read_members(request)
            except (KeyError, TypeError, ValueError) as e:
                replies[j] = encode_frame(
                    error_frame(request["id"], ERR_BAD_REQUEST, f"bad get_many request: {e!r}")
                )
                continue
            reads.append((j, request, len(members), len(read)))
            members += read
        if reads:
            try:
                responses = await self.service.get_burst(members)
            except Exception as e:  # the connection outlives any one burst
                for j, request, _, _ in reads:
                    replies[j] = encode_frame(error_frame(request["id"], ERR_INTERNAL, repr(e)))
            else:
                for j, request, first, n in reads:
                    try:
                        replies[j] = _reply_frame(request["id"], responses[first:first + n])
                    except Exception as e:
                        replies[j] = encode_frame(error_frame(request["id"], ERR_INTERNAL, repr(e)))
        if not writer.transport.is_closing():
            writer.write(b"".join(replies))

    def _answer(self, request: dict) -> bytes:
        """One control verb's reply frame; a failure is a typed error frame."""
        try:
            return encode_frame(self._control(request))
        except Exception as e:  # the connection outlives any one request
            return encode_frame(error_frame(request["id"], ERR_INTERNAL, repr(e)))

    def _control(self, request: dict) -> dict:
        rid, op = request["id"], request.get("op")
        if request["v"] != PROTO_VERSION:
            # Another version's fields may mean something else: refuse
            # explicitly instead of answering with semantics it may misread.
            return error_frame(
                rid,
                ERR_UNSUPPORTED_VERSION,
                f"server speaks v{PROTO_VERSION}, request claims v{request['v']}",
            )
        if op == "stats":
            return {"id": rid, "stats": self.service.stats()}
        if op == "stats_live":
            window_s = request.get("window_s")
            if window_s is not None:
                try:
                    checked_window(window_s)
                except ValueError as e:
                    return error_frame(rid, ERR_BAD_REQUEST, str(e))
            return {"id": rid, "stats": self.service.live_stats(window_s=window_s)}
        if op == "trace":
            n = request.get("n", 8)
            if isinstance(n, bool) or not isinstance(n, int) or n < 0:
                return error_frame(rid, ERR_BAD_REQUEST, f"n {n!r} is no int >= 0")
            return {"id": rid, "traces": self.service.recent_traces(n)}
        if op == "ping":
            return {"id": rid, "pong": True}
        return error_frame(rid, ERR_UNKNOWN_OP, f"unknown op {op!r}")


class _Run:
    """The keys bound for one ``GET_MANY``: consecutive calls' requests at
    one epoch and deadline, or one request nobody joins (a traced one, or
    a key that is no u64).  Each call waits on one future for the reply's
    rows and takes its own slice of them; once packed, the run has its
    frame id."""

    __slots__ = ("epoch", "deadline_s", "trace", "joinable", "keys", "futures", "rid", "left")

    def __init__(self, epoch, deadline_s, trace, joinable: bool):
        self.epoch = epoch
        self.deadline_s = deadline_s
        self.trace = trace
        self.joinable = joinable
        self.keys: list[int] = []
        self.futures: list[asyncio.Future] = []
        self.rid: int | None = None
        self.left = 0  # calls no longer waiting: answered, failed or cancelled

    def answer(self, reply: dict) -> None:
        """Hand one reply's rows to the calls still waiting, in order.  A
        reply that means nothing fails them; it never fails the pump."""
        try:
            rows = _responses(reply, self.keys)
        except ProtocolError as e:
            self.fail(e)
            return
        for future in self.futures:
            if not future.done():
                future.set_result(rows)

    def wait(self) -> asyncio.Future:
        """A future for the reply's rows, for one more call."""
        future = asyncio.get_running_loop().create_future()
        self.futures.append(future)
        return future

    def fail(self, error: Exception) -> None:
        for future in self.futures:
            if not future.done():
                future.set_exception(error)


class TCPClient:
    """Framed-protocol client; safe for many concurrent ``get`` and
    ``get_burst`` calls, whose requests it packs into one ``GET_MANY`` per
    run (module docstring)."""

    def __init__(self, host: str, port: int):
        self.host = host
        self.port = port
        self._reader: asyncio.StreamReader | None = None
        self._writer: asyncio.StreamWriter | None = None
        self._pump: asyncio.Task | None = None
        self._waiting: dict[int, asyncio.Future] = {}  # frame id -> its `_call`
        self._runs: list[_Run] = []  # this loop turn's runs, not yet packed
        self._run_bytes = 0  # what `_runs` will pack to
        self._batches: dict[int, _Run] = {}  # frame id -> a packed run awaiting its reply
        self._ids = itertools.count(1)
        self._outbox = bytearray()  # frames queued this loop turn
        self._lost: Exception | None = None  # why the connection ended
        self._drain_lock = asyncio.Lock()

    async def connect(self) -> "TCPClient":
        self._reader, self._writer = await asyncio.open_connection(self.host, self.port)
        self._pump = asyncio.get_running_loop().create_task(self._pump_responses())
        return self

    async def close(self) -> None:
        if self._writer is not None:
            self._lost = ConnectionError("client closed")
            self._writer.close()
            try:
                await self._writer.wait_closed()
            except ConnectionError:
                pass
            self._writer = None
        if self._pump is not None:
            await self._pump
            self._pump = None

    async def __aenter__(self) -> "TCPClient":
        return await self.connect()

    async def __aexit__(self, *exc) -> None:
        await self.close()

    async def _pump_responses(self) -> None:
        assert self._reader is not None
        frames = FrameReader(self._reader)
        error: Exception = ConnectionError("connection closed")
        try:
            while True:
                message = await read_frame(frames)
                if message is None:
                    break
                run = self._batches.pop(message["id"], None)
                if run is not None:
                    run.answer(message)
                    continue
                future = self._waiting.get(message["id"])
                if future is not None and not future.done():
                    future.set_result(message)
        except ProtocolError as e:
            error = e
        # From here on calls refuse instead of waiting for an answer nobody
        # is left to give; what already waits fails now.
        self._lost = error
        for future in self._waiting.values():
            if not future.done():
                future.set_exception(error)
        runs = [*self._batches.values(), *self._runs]
        self._batches, self._runs, self._run_bytes = {}, [], 0
        for run in runs:
            run.fail(error)

    def _next_id(self) -> int:
        rid = next(self._ids) & _ID_MASK
        while rid in self._waiting or rid in self._batches:  # past the 32-bit wrap
            rid = next(self._ids) & _ID_MASK
        return rid

    def _pack_runs(self) -> None:
        """Queue one ``GET_MANY`` per pending run, in call order."""
        runs, self._runs, self._run_bytes = self._runs, [], 0
        for run in runs:
            if run.left == len(run.futures):
                continue  # every call of it was cancelled
            run.rid = self._next_id()
            message = {
                "id": run.rid, "v": PROTO_VERSION, "op": "get_many", "keys": run.keys,
                "epoch": run.epoch, "deadline_s": run.deadline_s,
            }
            trace = run.trace  # a `TraceContext`, its wire dict, or None
            if trace is not None:
                message["trace"] = trace.to_wire() if isinstance(trace, TraceContext) else trace
            try:
                self._outbox += encode_frame(message)
            except (TypeError, ValueError) as e:  # no frame: fail the run, not the flush
                run.fail(e)
            else:
                self._batches[run.rid] = run

    def _flush(self) -> None:
        """Send every frame and run queued since the last loop turn with
        one write."""
        self._pack_runs()
        frames, self._outbox = self._outbox, bytearray()
        if frames and self._writer is not None and not self._writer.transport.is_closing():
            self._writer.write(frames)

    def _congested(self) -> bool:
        """Whether the bytes queued here and in the transport are past the
        transport's high-water mark."""
        transport = self._writer.transport
        backlog = transport.get_write_buffer_size() + len(self._outbox) + self._run_bytes
        return backlog > transport.get_write_buffer_limits()[1]

    async def _room(self) -> None:
        """Wait while the peer is not reading, on the transport's flow
        control instead of queueing without bound; raise once the
        connection is gone.  (One waiter at a time: before 3.11 `drain()`
        asserts on a second.)"""
        assert self._writer is not None or self._lost is not None, "call connect() first"
        while self._lost is None and self._congested():
            writer = self._writer
            self._flush()
            async with self._drain_lock:
                await writer.drain()
        if self._lost is not None:
            raise ConnectionError(f"connection lost: {self._lost}")

    def _schedule_flush(self) -> None:
        """Flush at the end of this loop turn, once."""
        if not self._outbox and not self._runs:
            asyncio.get_running_loop().call_soon(self._flush)

    async def _call(self, message: dict) -> dict:
        """One frame of its own, behind the runs before it; its reply."""
        await self._room()
        self._pack_runs()
        rid = self._next_id()
        frame = encode_frame({"id": rid, "v": PROTO_VERSION, **message})
        future = self._waiting[rid] = asyncio.get_running_loop().create_future()
        self._schedule_flush()
        self._outbox += frame
        try:
            reply = await future
        finally:
            del self._waiting[rid]
        if reply["v"] != PROTO_VERSION:
            raise ProtocolError(f"peer answered in v{reply['v']}, not v{PROTO_VERSION}")
        return reply

    def _join(self, key: int, epoch, deadline_s, trace) -> _Run:
        """Append one request to the run it joins: the last pending run if
        it is open at this epoch and deadline and the request may join one
        (untraced, a u64 key), else a new run."""
        joinable = trace is None and 0 <= key <= _U64_MAX
        run = self._runs[-1] if self._runs else None
        if not (joinable and run is not None and run.joinable
                and run.epoch == epoch and run.deadline_s == deadline_s):
            self._schedule_flush()
            run = _Run(epoch, deadline_s, trace, joinable)
            self._runs.append(run)
            self._run_bytes += _RUN_BYTES
        run.keys.append(key)
        self._run_bytes += _KEY_BYTES
        return run

    def _leave(self, run: _Run) -> None:
        """One call is done with ``run``: answered, failed or cancelled.
        The last call to leave a packed run releases its id before the
        reply."""
        run.left += 1
        if run.left == len(run.futures) and self._batches.get(run.rid) is run:
            del self._batches[run.rid]

    async def get(self, key: int, epoch: int | None = None, deadline_s: float | None = None,
                  trace: TraceContext | None = None) -> ServeResponse:
        """Point lookup: `get_burst`'s one-request fast path.  It joins its
        run straight through `_join` / `_leave`; going through `get_burst`'s
        burst loop cost `serve-churn` +3.9 % `cpu_us_per_op` (EXPERIMENTS,
        "Router bursts", run (1))."""
        if self._lost is not None or self._congested():
            await self._room()
        run = self._join(int(key), epoch, deadline_s, trace)
        at = len(run.keys) - 1
        future = run.wait()
        try:
            return (await future)[at]
        finally:
            self._leave(run)

    async def get_burst(self, requests) -> list[ServeResponse]:
        """Answer ``(key, epoch, deadline_s, trace)`` requests in request
        order, as `QueryService.get_burst` does.  No frame of its own: each
        stretch of requests at one epoch and deadline joins the loop turn's
        pending run, and the call waits on one future per run it joined.  A
        traced request, or a key that is no u64 (refused on its own, not
        with its run-mates), is a run nobody joins."""
        if self._lost is not None or self._congested():
            await self._room()
        requests = [(int(key), *rest) for key, *rest in requests]  # a bad key joins no run
        joined: list[tuple[_Run, asyncio.Future, int]] = []  # run, future, first row
        for key, epoch, deadline_s, trace in requests:
            run = self._join(key, epoch, deadline_s, trace)
            if not joined or joined[-1][0] is not run:
                joined.append((run, run.wait(), len(run.keys) - 1))
        # A run grows only while it is the last one, so each call's stretch
        # of a run ends where that run ends now.
        ends = [len(run.keys) for run, _, _ in joined]
        out: list[ServeResponse] = []
        try:
            for (_, future, start), end in zip(joined, ends):
                out += (await future)[start:end]
        finally:
            for run, future, _ in joined:
                if not future.done():
                    future.cancel()
                elif not future.cancelled():
                    future.exception()  # a lost link fails every run: seen once is enough
                self._leave(run)
        return out

    async def stats(self) -> dict:
        return (await self._call({"op": "stats"}))["stats"]

    async def stats_live(self, window_s: float | None = None) -> dict:
        return (await self._call({"op": "stats_live", "window_s": window_s}))["stats"]

    async def traces(self, n: int = 8) -> list[list[dict]]:
        return (await self._call({"op": "trace", "n": int(n)}))["traces"]

