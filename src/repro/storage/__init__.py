"""Storage substrate: value logs, SSTables, device models, compression.

Exports:

* `StorageDevice` / `DeviceProfile` / `IOCounters` — charged byte store.
* `ValueLog` / `DataPointer` — indirection logs (paper §III-B).
* `SSTableWriter` / `SSTableReader` — flattened-LSM partition format
  (the one local write of a filterkv rank: `add_many`, then `finish`).
* `compress` / `decompress` — Snappy-wire-format codec (paper §IV-C).
"""

from .blockio import DeviceProfile, ExtentLostError, IOCounters, StorageDevice
from .checksum import CHECKSUM_BYTES
from .envelope import (
    SEAL_OVERHEAD_BYTES,
    SealError,
    UnsupportedLayoutError,
    seal,
    try_unseal,
    unseal,
)
from .manifest import MANIFEST_NAME, MANIFEST_PREFIX, EpochInfo, Manifest, RecoveryReport
from .compression import SnappyError, compress, decompress
from .log import POINTER_BYTES, DataPointer, ValueLog
from .sstable import (
    FOOTER_BYTES,
    CorruptBlockError,
    SSTableReader,
    SSTableWriter,
    TableStats,
)

__all__ = [
    "DeviceProfile",
    "ExtentLostError",
    "IOCounters",
    "StorageDevice",
    "SEAL_OVERHEAD_BYTES",
    "SealError",
    "UnsupportedLayoutError",
    "seal",
    "try_unseal",
    "unseal",
    "MANIFEST_PREFIX",
    "RecoveryReport",
    "SnappyError",
    "compress",
    "decompress",
    "POINTER_BYTES",
    "DataPointer",
    "ValueLog",
    "FOOTER_BYTES",
    "CorruptBlockError",
    "CHECKSUM_BYTES",
    "MANIFEST_NAME",
    "EpochInfo",
    "Manifest",
    "SSTableReader",
    "SSTableWriter",
    "TableStats",
]
