"""Storage device model: seek + bandwidth costs, with exact I/O accounting.

The paper's read-path evaluation (Fig. 11) reports three quantities per
query: latency, number of storage read operations (seeks), and bytes
fetched.  `StorageDevice` charges a fixed per-operation seek cost plus a
bandwidth-proportional transfer cost, and keeps counters for all three.
Real bytes live in an in-memory extent store, so readers get back exactly
what writers stored — the timing model and the data path are both
exercised.

The device is a map of named extents: `read` and `append` name the extent
they touch, and nothing is opened, so there is no handle to hold or leak.
"""

from __future__ import annotations

import io
from dataclasses import dataclass

from ..obs import MetricsRegistry, active

__all__ = [
    "DeviceProfile",
    "ExtentLostError",
    "IOCounters",
    "StorageDevice",
]


class ExtentLostError(OSError):
    """A read or write hit an extent that was deleted or truncated away.

    Distinguishes *data loss* from an ordinary short read at end-of-file:
    reads that start at or before the extent's current end return whatever
    bytes exist (possibly fewer than requested), while reads that start
    beyond it — the offset referred to bytes that no longer exist — raise
    this instead of silently returning nothing.
    """


@dataclass(frozen=True)
class DeviceProfile:
    """Performance envelope of a storage target.

    Attributes
    ----------
    read_bandwidth / write_bandwidth:
        Sustained transfer rates in bytes/second.
    seek_time:
        Fixed cost charged per read/write operation, seconds.  For the
        paper's burst-buffer + parallel-filesystem stack this models the
        per-request round trip rather than a disk arm.
    """

    name: str = "generic"
    read_bandwidth: float = 1e9
    write_bandwidth: float = 1e9
    seek_time: float = 5e-3

    def __post_init__(self):
        if self.read_bandwidth <= 0 or self.write_bandwidth <= 0:
            raise ValueError("bandwidths must be positive")
        if self.seek_time < 0:
            raise ValueError("seek_time must be non-negative")

    def read_time(self, nbytes: int) -> float:
        return self.seek_time + nbytes / self.read_bandwidth

    def write_time(self, nbytes: int) -> float:
        return self.seek_time + nbytes / self.write_bandwidth


@dataclass
class IOCounters:
    """Cumulative I/O accounting for a device."""

    reads: int = 0
    writes: int = 0
    bytes_read: int = 0
    bytes_written: int = 0
    read_time: float = 0.0
    write_time: float = 0.0

    def snapshot(self) -> "IOCounters":
        return IOCounters(**vars(self))

    def delta(self, since: "IOCounters") -> "IOCounters":
        return IOCounters(
            reads=self.reads - since.reads,
            writes=self.writes - since.writes,
            bytes_read=self.bytes_read - since.bytes_read,
            bytes_written=self.bytes_written - since.bytes_written,
            read_time=self.read_time - since.read_time,
            write_time=self.write_time - since.write_time,
        )


class StorageDevice:
    """A byte-addressable device with cost accounting.

    Files are named extents inside the device.  `read` and `append` name
    the extent; `create` leaves an empty one.  Every read and append is
    charged to this device's counters; `create` is not.
    """

    def __init__(
        self,
        profile: DeviceProfile | None = None,
        metrics: MetricsRegistry | None = None,
    ):
        self.profile = profile or DeviceProfile()
        self.counters = IOCounters()
        self.metrics = active(metrics)
        dev = self.profile.name
        self._m_reads = self.metrics.counter("storage.reads", device=dev)
        self._m_writes = self.metrics.counter("storage.writes", device=dev)
        self._m_bytes_read = self.metrics.counter("storage.bytes_read", device=dev)
        self._m_bytes_written = self.metrics.counter("storage.bytes_written", device=dev)
        self._files: dict[str, io.BytesIO] = {}

    def create(self, name: str) -> None:
        """Make ``name`` an empty extent unless it exists (uncharged): a
        writer's extent is there from its start, before its first append."""
        if name not in self._files:
            self._files[name] = io.BytesIO()

    def append(self, name: str, data: bytes) -> int:
        """Append to extent ``name`` and return the offset the data landed
        at.  The extent must exist: one deleted underneath its writer
        raises `ExtentLostError`."""
        return self._append(name, bytes(data))

    def read(self, name: str, offset: int, size: int) -> bytes:
        """Read ``size`` bytes at ``offset`` of extent ``name``.

        A read that begins at or before the extent's end may come back
        short (plain EOF); a read that begins *past* the end, or against a
        deleted extent, raises `ExtentLostError` — the bytes the offset
        referred to were lost underneath the reader.
        """
        if offset < 0 or size < 0:
            raise ValueError("offset and size must be non-negative")
        return self._read(name, offset, size)

    def exists(self, name: str) -> bool:
        return name in self._files

    def file_size(self, name: str) -> int:
        return len(self._require(name).getbuffer())

    def list_files(self) -> list[str]:
        return sorted(self._files)

    def total_bytes_stored(self) -> int:
        return sum(len(b.getbuffer()) for b in self._files.values())

    # -- fault surface (public; tests and fault injectors use these) ------

    def corrupt(self, name: str, offset: int, delta: int | None = None,
                xor: int | None = None) -> None:
        """Modify one stored byte in place (no I/O charged — this models
        at-rest damage, not an operation the workload performed).

        Exactly one of ``delta`` (byte added mod 256; default 1) or ``xor``
        (mask xored in, e.g. ``1 << bit`` for a single bit flip) applies.
        """
        if delta is not None and xor is not None:
            raise ValueError("pass delta or xor, not both")
        buf = self._require(name).getbuffer()
        if not 0 <= offset < len(buf):
            raise ValueError(f"offset {offset} outside extent {name!r} ({len(buf)} B)")
        if xor is not None:
            buf[offset] ^= xor & 0xFF
        else:
            buf[offset] = (buf[offset] + (1 if delta is None else delta)) % 256

    def truncate(self, name: str, size: int) -> None:
        """Cut an extent down to ``size`` bytes (a torn/partial flush)."""
        buf = self._require(name)
        if size < 0 or size > len(buf.getbuffer()):
            raise ValueError(f"cannot truncate {name!r} to {size} bytes")
        buf.truncate(size)

    def delete(self, name: str) -> None:
        """Drop an extent entirely (a lost file)."""
        self._require(name)
        del self._files[name]

    def _require(self, name: str) -> io.BytesIO:
        buf = self._files.get(name)
        if buf is None:
            raise FileNotFoundError(f"no such extent: {name!r}")
        return buf

    # -- charged primitives, used by `read` and `append` --------------------

    def _charge_read(self, nbytes: int) -> None:
        self.counters.reads += 1
        self.counters.bytes_read += nbytes
        self.counters.read_time += self.profile.read_time(nbytes)
        self._m_reads.inc()
        self._m_bytes_read.inc(nbytes)

    def _charge_write(self, nbytes: int) -> None:
        self.counters.writes += 1
        self.counters.bytes_written += nbytes
        self.counters.write_time += self.profile.write_time(nbytes)
        self._m_writes.inc()
        self._m_bytes_written.inc(nbytes)

    def _read(self, name: str, offset: int, size: int) -> bytes:
        buf = self._files.get(name)
        if buf is None:
            raise ExtentLostError(f"extent {name!r} was deleted underneath a reader")
        with buf.getbuffer() as view:  # exported once per read
            if offset > len(view):
                raise ExtentLostError(
                    f"read at offset {offset} beyond extent {name!r} "
                    f"({len(view)} B) — truncated underneath a reader?"
                )
            data = view[offset : offset + size].tobytes()
        self._charge_read(len(data))
        return data

    def _append(self, name: str, data: bytes) -> int:
        buf = self._files.get(name)
        if buf is None:
            raise ExtentLostError(f"extent {name!r} was deleted underneath a writer")
        buf.seek(0, io.SEEK_END)
        offset = buf.tell()
        buf.write(data)
        self._charge_write(len(data))
        return offset

