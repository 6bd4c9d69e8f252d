"""Per-process value logs and the composite data pointers into them.

Under simple data indirection (paper §III-B, Fig. 3b) each process appends
the value portion of every KV pair to its own log file and ships
``(key, pointer)`` to the partition owner.  A pointer names the log file
(by the writer's rank, 4 bytes) and the byte offset of the value (8 bytes)
— the 12-byte per-key overhead FilterKV sets out to eliminate.

A log is the device extent ``vlog.<rank>``: the writer appends to it and a
reader reads from it by that name, and neither opens anything.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from ..obs.trace import child_span, current_span
from .blockio import ExtentLostError, StorageDevice
from .sstable import value_matrix

__all__ = ["DataPointer", "ValueLog", "POINTER_BYTES"]

POINTER_BYTES = 12  # 4-byte file/rank id + 8-byte offset (paper §III-C)
READ_AHEAD = 4096  # value bytes `ValueLog.read` fetches with the length prefix
_PTR_STRUCT = struct.Struct("<Iq")


@dataclass(frozen=True)
class DataPointer:
    """Composite pointer: which process's log, and where in it."""

    rank: int
    offset: int

    def pack(self) -> bytes:
        return _PTR_STRUCT.pack(self.rank, self.offset)

    @classmethod
    def unpack(cls, data: bytes) -> "DataPointer":
        if len(data) != POINTER_BYTES:
            raise ValueError(f"pointer must be {POINTER_BYTES} bytes, got {len(data)}")
        rank, offset = _PTR_STRUCT.unpack(data)
        return cls(rank, offset)


class ValueLog:
    """Append-only log of length-prefixed values for one process.

    Each record is ``u32 length ‖ value bytes`` so that a pointer to the
    record start is sufficient to read the value back.
    """

    _LEN = struct.Struct("<I")

    def __init__(self, device: StorageDevice, rank: int):
        if rank < 0:
            raise ValueError(f"rank must be non-negative, got {rank}")
        self.rank = rank
        self.device = device
        self.name = self.filename(rank)
        device.create(self.name)
        self._nvalues = 0

    @staticmethod
    def filename(rank: int) -> str:
        return f"vlog.{rank:06d}"

    @classmethod
    def open(cls, device: StorageDevice, rank: int) -> "ValueLog":
        """A reader over the existing log of ``rank`` (no create): a missing
        log is a `FileNotFoundError`."""
        name = cls.filename(rank)
        if not device.exists(name):
            raise FileNotFoundError(f"no such extent: {name!r}")
        log = cls.__new__(cls)
        log.rank = rank
        log.device = device
        log.name = name
        log._nvalues = -1  # unknown for a reader
        return log

    def append_many(self, values: np.ndarray) -> np.ndarray:
        """Append a ``(n, width)`` uint8 matrix of values with one storage
        write.

        Returns the ``uint64`` record-start offsets: ``DataPointer(rank,
        offset)`` recovers each value.
        """
        values = value_matrix(values)
        n, width = values.shape
        if n == 0:
            return np.zeros(0, dtype=np.uint64)
        recs = np.empty((n, self._LEN.size + width), dtype=np.uint8)
        recs[:, : self._LEN.size] = np.frombuffer(self._LEN.pack(width), dtype=np.uint8)
        recs[:, self._LEN.size :] = values
        base = self.device.append(self.name, recs.tobytes())
        self._nvalues += n
        return base + np.arange(n, dtype=np.uint64) * np.uint64(self._LEN.size + width)

    def read(self, pointer: DataPointer) -> bytes:
        """Read the value a pointer refers to.

        A single device read covers the length prefix plus `READ_AHEAD`
        bytes — one storage seek for typical values (the paper's indirection
        costs exactly one extra read op per query); only larger values
        need a second read.
        """
        if pointer.rank != self.rank:
            raise ValueError(f"pointer targets rank {pointer.rank}, log is rank {self.rank}")
        try:
            first = self.device.read(self.name, pointer.offset, self._LEN.size + READ_AHEAD)
        except ExtentLostError as e:
            raise ValueError(f"bad pointer offset {pointer.offset}: {e}") from e
        if len(first) < self._LEN.size:
            raise ValueError(f"bad pointer offset {pointer.offset}")
        (length,) = self._LEN.unpack(first[: self._LEN.size])
        body = first[self._LEN.size : self._LEN.size + length]
        if len(body) < length:
            body += self.device.read(self.name, pointer.offset + len(first), length - len(body))
        return body

    def read_many(self, pointers: list[DataPointer]) -> list[bytes]:
        """Read a batch of pointers, issuing reads in ascending offset order.

        Returns values aligned with ``pointers``.  Each value still costs
        one read (two for values larger than `READ_AHEAD`), but a batch
        sweeps the log monotonically instead of seeking back and forth —
        the access pattern a real device rewards.
        """
        if current_span() is None:  # untraced: skip span-argument setup
            return self._read_many(pointers)
        with child_span("vlog.read_many", rank=self.rank, n=len(pointers)):
            return self._read_many(pointers)

    def _read_many(self, pointers: list[DataPointer]) -> list[bytes]:
        order = sorted(range(len(pointers)), key=lambda i: pointers[i].offset)
        out: list[bytes] = [b""] * len(pointers)
        for i in order:
            out[i] = self.read(pointers[i])
        return out

    def __len__(self) -> int:
        return self._nvalues

    @property
    def size_bytes(self) -> int:
        return self.device.file_size(self.name)
