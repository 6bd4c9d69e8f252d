"""Block checksums for the on-storage formats.

Storage formats that survive real deployments carry per-block checksums;
DeltaFS's tables (the paper's substrate) inherit LevelDB-style block CRCs.
This module provides `fastsum64`, a vectorized 64-bit checksum built on
the same splitmix64 mixer as the filters: each 8-byte word is mixed with a
position-dependent multiplier and folded, so bit flips, swaps, and
truncations all change the sum.  `fastsum64_rows` is the same sum taken
over many equal-size slices of one buffer in a single pass — how an
SSTable checks the key groups of a data block.

It is not cryptographic — it defends against corruption, not adversaries.
"""

from __future__ import annotations

import numpy as np

from ..filters.hashing import MASK64, splitmix64, splitmix64_int

__all__ = ["fastsum64", "fastsum64_rows", "CHECKSUM_BYTES"]

CHECKSUM_BYTES = 8
_LEN_SALT = 0x1DA177E4C3F41524

# The position-mix series depends only on (word index, seed); blocks in one
# table share a size, so memoizing it removes half the per-block hash work.
_POS_CACHE: dict[int, np.ndarray] = {}


def _positions(n: int, seed: int) -> np.ndarray:
    cached = _POS_CACHE.get(seed)
    if cached is None or cached.size < n:
        size = max(n, 1024, 2 * cached.size if cached is not None else 0)
        with np.errstate(over="ignore"):
            cached = splitmix64(np.arange(size, dtype=np.uint64) ^ np.uint64(seed))
        _POS_CACHE[seed] = cached
    return cached[:n]


def _fold(words: np.ndarray, seed: int) -> np.ndarray:
    """XOR of the position-mixed 8-byte ``words`` along the last axis."""
    return np.bitwise_xor.reduce(splitmix64(words ^ _positions(words.shape[-1], seed)), axis=-1)


def fastsum64(data, seed: int = 0) -> int:
    """64-bit checksum of ``data`` (vectorized; ~GB/s on NumPy).

    ``data`` is any contiguous buffer (``bytes``, a ``memoryview`` slice,
    a ``uint8`` array) and is read in place.  Equal inputs give equal sums;
    any single-bit flip flips ~half the sum's bits; permuted or truncated
    inputs disagree because words are weighted by position and the length
    is folded in.
    """
    raw = np.frombuffer(data, dtype=np.uint8)
    whole = raw.size & ~7
    folded = int(_fold(raw[:whole].view("<u8"), seed))
    if whole != raw.size:  # the last 1-7 bytes: one zero-extended word more
        last = int.from_bytes(raw[whole:], "little")
        folded ^= splitmix64_int(last ^ int(_positions(whole // 8 + 1, seed)[-1]))
    return splitmix64_int(folded ^ (raw.size * _LEN_SALT & MASK64))


def fastsum64_rows(data, row_bytes: int, rows=None, seed: int = 0) -> np.ndarray:
    """`fastsum64` of each ``row_bytes``-byte slice of ``data``, one pass.

    ``data`` is cut into consecutive rows of ``row_bytes`` bytes, the last
    one shorter when the length is no multiple; element ``i`` of the result
    equals ``fastsum64(data[i * row_bytes : (i + 1) * row_bytes], seed)``.
    ``rows`` (indices, any order) restricts the pass to those rows — the
    cost is that of the bytes selected, not of ``data``.
    """
    if row_bytes < 1:
        raise ValueError(f"row_bytes must be positive, got {row_bytes}")
    raw = np.frombuffer(data, dtype=np.uint8)
    nfull = raw.size // row_bytes
    mat = raw[: nfull * row_bytes].reshape(nfull, row_bytes)
    if rows is None:
        full = slice(0, nfull)
        short = raw.size > nfull * row_bytes
    else:
        rows = np.asarray(rows, dtype=np.intp)
        full = rows < nfull
        short = not full.all()
        mat = mat[rows[full]]
    whole = row_bytes & ~7
    words = mat[:, :whole]
    if whole != row_bytes:  # rows that are not whole words: realign a copy
        words = np.ascontiguousarray(words)
    folded = _fold(words.view("<u8"), seed)
    if whole != row_bytes:
        last = np.zeros((mat.shape[0], 8), dtype=np.uint8)
        last[:, : row_bytes - whole] = mat[:, whole:]
        folded ^= splitmix64(last.view("<u8")[:, 0] ^ _positions(whole // 8 + 1, seed)[-1])
    sums = splitmix64(folded ^ np.uint64(row_bytes * _LEN_SALT & MASK64))
    if not short:
        return sums
    out = np.empty(nfull + 1 if rows is None else rows.size, dtype=np.uint64)
    out[full] = sums
    out[nfull if rows is None else ~full] = fastsum64(raw[nfull * row_bytes :], seed)
    return out
