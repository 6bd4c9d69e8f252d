"""Storage substrate: value logs, SSTables, device models, compression.

Exports:

* `StorageDevice` / `DeviceProfile` / `IOCounters` — charged byte store.
* `ValueLog` / `DataPointer` — indirection logs (paper §III-B).
* `SSTableWriter` / `SSTableReader` — flattened-LSM partition format.
* `compress` / `decompress` — Snappy-wire-format codec (paper §IV-C).
"""

from .blockio import DeviceProfile, ExtentLostError, IOCounters, StorageDevice, StorageFile
from .checksum import CHECKSUM_BYTES, fastsum64, fastsum64_rows
from .envelope import SEAL_OVERHEAD_BYTES, SealError, seal, try_unseal, unseal
from .manifest import MANIFEST_NAME, MANIFEST_PREFIX, EpochInfo, Manifest, RecoveryReport
from .compression import SnappyError, compress, decompress
from .log import POINTER_BYTES, DataPointer, ValueLog
from .memtable import MemTable, RunWriter, flatten_runs
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
    "StorageFile",
    "SEAL_OVERHEAD_BYTES",
    "SealError",
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
    "MemTable",
    "RunWriter",
    "flatten_runs",
    "FOOTER_BYTES",
    "CorruptBlockError",
    "CHECKSUM_BYTES",
    "fastsum64",
    "fastsum64_rows",
    "MANIFEST_NAME",
    "EpochInfo",
    "Manifest",
    "SSTableReader",
    "SSTableWriter",
    "TableStats",
]
