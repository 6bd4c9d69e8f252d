"""Sealed extents: self-validating byte envelopes for whole-blob records.

Crash-consistent metadata (the manifest, auxiliary-table snapshots) is
persisted as a *sealed* extent: a magic, the payload length, the payload,
and a trailing `zlib.crc32` (zero-extended to 8 bytes) over everything
before it.  A reader can then
tell a complete record from a torn one without out-of-band state — a torn
append leaves a short blob whose declared length exceeds the bytes
present, and a bit flip anywhere breaks the checksum.

The unit of atomicity in this storage model is the *whole extent*: commit
protocols write a sealed extent under a fresh name and treat "the newest
name whose seal validates" as the promoted version, so a crash at any
byte boundary leaves the previous version intact and discoverable.

Envelopes of the earlier seal (the same frame under a 64-bit NumPy
checksum) are refused by name with `UnsupportedLayoutError`, never taken
for torn or corrupt ones.
"""

from __future__ import annotations

import struct
import zlib

from .checksum import CHECKSUM_BYTES

__all__ = [
    "seal",
    "unseal",
    "try_unseal",
    "SealError",
    "UnsupportedLayoutError",
    "SEAL_OVERHEAD_BYTES",
]

_SEAL_MAGIC = 0x5EA1ED_EC7E_2036  # CRC-32 seal
_SEAL_MAGIC_SUM64 = 0x5EA1ED_EC7E_2025  # its predecessor: a NumPy 64-bit sum
_HEADER = struct.Struct("<QQ")  # magic, payload length
SEAL_OVERHEAD_BYTES = _HEADER.size + CHECKSUM_BYTES


class SealError(ValueError):
    """The blob is not a complete, unmodified sealed extent."""


class UnsupportedLayoutError(ValueError):
    """Stored bytes are intact but in a layout this reader does not read.

    Not corruption: recovery must refuse such a store, never quarantine or
    sweep it.
    """


def seal(payload: bytes) -> bytes:
    """Wrap ``payload`` so completeness and integrity are self-evident."""
    body = _HEADER.pack(_SEAL_MAGIC, len(payload)) + bytes(payload)
    return body + zlib.crc32(body).to_bytes(CHECKSUM_BYTES, "little")


def unseal(blob: bytes) -> bytes:
    """Return the payload, or raise `SealError` if torn or corrupted
    (`UnsupportedLayoutError` for the predecessor seal)."""
    if len(blob) < SEAL_OVERHEAD_BYTES:
        raise SealError(f"blob of {len(blob)} bytes is too short to be sealed")
    magic, length = _HEADER.unpack(blob[: _HEADER.size])
    if magic == _SEAL_MAGIC_SUM64:
        raise UnsupportedLayoutError(
            f"blob is in the 64-bit-sum seal (magic {magic:#x}); this reader supports "
            f"only the CRC-32 seal (magic {_SEAL_MAGIC:#x})"
        )
    if magic != _SEAL_MAGIC:
        raise SealError("bad seal magic")
    expected = SEAL_OVERHEAD_BYTES + length
    if len(blob) != expected:
        raise SealError(f"sealed blob is {len(blob)} bytes, expected {expected} (torn write?)")
    body, stored = blob[:-CHECKSUM_BYTES], blob[-CHECKSUM_BYTES:]
    if zlib.crc32(body) != int.from_bytes(stored, "little"):
        raise SealError("seal checksum mismatch")
    return blob[_HEADER.size : _HEADER.size + length]


def try_unseal(blob: bytes) -> bytes | None:
    """`unseal`, but mapping every validation failure to ``None``; an
    `UnsupportedLayoutError` propagates."""
    try:
        return unseal(blob)
    except SealError:
        return None
