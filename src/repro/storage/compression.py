"""Snappy-format LZ77 codec, implemented from scratch.

The paper compresses index data with Google's Snappy (§IV-C, Fig. 7b).
Snappy is unavailable offline, so this module implements the same wire
format (format description v1.1):

* a varint preamble with the uncompressed length, then a token stream;
* literal tokens (tag ``00``) carrying raw bytes;
* copy tokens with 1-byte (tag ``01``), 2-byte (tag ``10``) or 4-byte
  (tag ``11``) little-endian offsets into the already-decoded output.

Like the reference implementation, input is compressed in independent
64 KiB windows so copy offsets fit the 2-byte form.  Match discovery is
vectorized with NumPy (previous occurrence of every 4-gram via a
sort-by-hash pass); the emit loop runs per *token*, not per byte, so
throughput is adequate for the benchmark sample sizes.

`compress` / `decompress` round-trip byte-exactly.
"""

from __future__ import annotations

import numpy as np

from ..obs import get_default_registry

__all__ = ["compress", "decompress", "SnappyError"]

_WINDOW = 1 << 16  # compress in 64 KiB windows, like reference snappy
_MIN_MATCH = 4
_MAX_COPY_LEN = 64


class SnappyError(ValueError):
    """Raised on malformed compressed input."""


# -- varints ---------------------------------------------------------------


def _emit_varint(n: int, out: bytearray) -> None:
    while n >= 0x80:
        out.append((n & 0x7F) | 0x80)
        n >>= 7
    out.append(n)


def _read_varint(data: bytes, pos: int) -> tuple[int, int]:
    result = 0
    shift = 0
    while True:
        if pos >= len(data):
            raise SnappyError("truncated varint preamble")
        b = data[pos]
        pos += 1
        result |= (b & 0x7F) << shift
        if not b & 0x80:
            return result, pos
        shift += 7
        if shift > 35:
            raise SnappyError("varint overflow")


# -- token emission ---------------------------------------------------------


def _emit_literal(data: bytes, start: int, end: int, out: bytearray) -> None:
    length = end - start
    while length > 0:
        chunk = min(length, 0x10000)  # keep extra-length bytes ≤ 2
        n = chunk - 1
        if n < 60:
            out.append(n << 2)
        elif n < 0x100:
            out.append(60 << 2)
            out.append(n)
        else:
            out.append(61 << 2)
            out += n.to_bytes(2, "little")
        out += data[start : start + chunk]
        start += chunk
        length -= chunk


def _emit_copy(offset: int, length: int, out: bytearray) -> None:
    # Longer matches are split into ≤64-byte copy tokens.  Avoid leaving a
    # tail shorter than 4 bytes, which the 1-byte-offset form cannot encode.
    while length > 0:
        chunk = min(length, _MAX_COPY_LEN)
        if length - chunk in (1, 2, 3) and chunk > 4:
            chunk = length - 4
        if 4 <= chunk <= 11 and offset < 2048:
            out.append(0b01 | ((chunk - 4) << 2) | ((offset >> 8) << 5))
            out.append(offset & 0xFF)
        else:
            out.append(0b10 | ((chunk - 1) << 2))
            out += offset.to_bytes(2, "little")
        length -= chunk


# -- match finding -----------------------------------------------------------


def _prev_occurrence(window: np.ndarray) -> np.ndarray:
    """For each position, the most recent earlier position with the same
    4-gram hash (or -1).  Hash collisions are verified by the emit loop."""
    n = window.size
    if n < _MIN_MATCH:
        return np.full(max(0, n), -1, dtype=np.int64)
    grams = (
        window[: n - 3].astype(np.uint32)
        | (window[1 : n - 2].astype(np.uint32) << np.uint32(8))
        | (window[2 : n - 1].astype(np.uint32) << np.uint32(16))
        | (window[3:n].astype(np.uint32) << np.uint32(24))
    )
    order = np.argsort(grams, kind="stable")
    sorted_grams = grams[order]
    prev = np.full(n, -1, dtype=np.int64)
    same = np.empty(order.size, dtype=bool)
    same[0] = False
    same[1:] = sorted_grams[1:] == sorted_grams[:-1]
    prev[order[same]] = order[np.nonzero(same)[0] - 1]
    return prev


def compress(data: bytes) -> bytes:
    """Compress ``data`` into the Snappy wire format."""
    out = bytearray()
    _emit_varint(len(data), out)
    view = bytes(data)
    for base in range(0, len(view), _WINDOW):
        _compress_window(view, base, min(len(view), base + _WINDOW), out)
    if not data:
        pass  # preamble alone encodes the empty stream
    # Pure function, so telemetry goes to the process-wide registry (null
    # unless a run installed one).
    m = get_default_registry()
    m.counter("storage.compress_in_bytes").inc(len(data))
    m.counter("storage.compress_out_bytes").inc(len(out))
    return bytes(out)


def _compress_window(data: bytes, base: int, end: int, out: bytearray) -> None:
    window = np.frombuffer(data, dtype=np.uint8, count=end - base, offset=base)
    prev = _prev_occurrence(window)
    i = base
    literal_start = base
    limit = end - _MIN_MATCH
    while i <= limit:
        j_rel = prev[i - base]
        if j_rel < 0:
            i += 1
            continue
        j = base + int(j_rel)
        if data[j : j + _MIN_MATCH] != data[i : i + _MIN_MATCH]:
            i += 1  # hash collision
            continue
        # Extend the match greedily in growing chunks (memcmp at C speed).
        length = _MIN_MATCH
        while True:
            step = min(64, end - (i + length))
            if step <= 0:
                break
            if data[j + length : j + length + step] == data[i + length : i + length + step]:
                length += step
            else:
                lo, hi = 0, step
                while lo < hi:
                    mid = (lo + hi) // 2 + 1
                    if data[j + length : j + length + mid] == data[i + length : i + length + mid]:
                        lo = mid
                    else:
                        hi = mid - 1
                length += lo
                break
        if literal_start < i:
            _emit_literal(data, literal_start, i, out)
        _emit_copy(i - j, length, out)
        i += length
        literal_start = i
    if literal_start < end:
        _emit_literal(data, literal_start, end, out)


# -- decoding ----------------------------------------------------------------


def decompress(data: bytes) -> bytes:
    """Decode a Snappy stream produced by `compress` (or reference snappy,
    for streams whose copies never cross our decoder's output so far)."""
    expected, pos = _read_varint(bytes(data), 0)
    out = bytearray()
    data = bytes(data)
    n = len(data)
    while pos < n:
        tag = data[pos]
        pos += 1
        kind = tag & 0b11
        if kind == 0b00:  # literal
            length = tag >> 2
            if length >= 60:
                nbytes = length - 59
                if pos + nbytes > n:
                    raise SnappyError("truncated literal length")
                length = int.from_bytes(data[pos : pos + nbytes], "little")
                pos += nbytes
            length += 1
            if pos + length > n:
                raise SnappyError("truncated literal body")
            out += data[pos : pos + length]
            pos += length
            continue
        if kind == 0b01:  # copy, 1-byte offset
            length = ((tag >> 2) & 0b111) + 4
            if pos >= n:
                raise SnappyError("truncated copy offset")
            offset = ((tag >> 5) << 8) | data[pos]
            pos += 1
        elif kind == 0b10:  # copy, 2-byte offset
            length = (tag >> 2) + 1
            if pos + 2 > n:
                raise SnappyError("truncated copy offset")
            offset = int.from_bytes(data[pos : pos + 2], "little")
            pos += 2
        else:  # copy, 4-byte offset
            length = (tag >> 2) + 1
            if pos + 4 > n:
                raise SnappyError("truncated copy offset")
            offset = int.from_bytes(data[pos : pos + 4], "little")
            pos += 4
        if offset == 0 or offset > len(out):
            raise SnappyError(f"copy offset {offset} out of range at {len(out)} bytes")
        start = len(out) - offset
        for k in range(length):  # may self-overlap; must copy byte-serially
            out.append(out[start + k])
    if len(out) != expected:
        raise SnappyError(f"length mismatch: preamble {expected}, decoded {len(out)}")
    m = get_default_registry()
    m.counter("storage.decompress_in_bytes").inc(n)
    m.counter("storage.decompress_out_bytes").inc(len(out))
    return bytes(out)
