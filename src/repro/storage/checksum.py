"""Checksums for the on-storage formats.

Storage formats that survive real deployments carry per-block checksums;
DeltaFS's tables (the paper's substrate) inherit LevelDB-style block CRCs.
Here every stored section — an SSTable's key groups, filter, index and
footer, a sealed envelope — carries a `zlib.crc32`, the same checksum
every wire frame carries (`repro.serve.proto`), stored zero-extended in a
`CHECKSUM_BYTES`-byte little-endian slot.

It defends against corruption, not adversaries.
"""

from __future__ import annotations

import zlib

import numpy as np

__all__ = ["crc32_rows", "CHECKSUM_BYTES"]

CHECKSUM_BYTES = 8


def crc32_rows(data, row_bytes: int) -> np.ndarray:
    """`zlib.crc32` of each ``row_bytes``-byte slice of ``data``, as uint64.

    Element ``i`` is the CRC of ``data[i * row_bytes : (i + 1) * row_bytes]``
    (the last row shorter when the length is no multiple).
    """
    if row_bytes < 1:
        raise ValueError(f"row_bytes must be positive, got {row_bytes}")
    view = memoryview(data)
    return np.array(
        [zlib.crc32(view[i : i + row_bytes]) for i in range(0, len(view), row_bytes)],
        dtype=np.uint64,
    )
