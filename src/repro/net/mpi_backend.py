"""Optional mpi4py transport: run the pipelines as a real parallel job.

`SimCluster` executes every rank in one process, which is what an offline
workstation supports.  On a machine with ``mpi4py`` + an MPI runtime, the
same `WriterState`/`ReceiverState` pipelines can run as an actual SPMD
job: this module provides the envelope transport.

* `MpiTransport` — nonblocking mpi4py sends of packed envelopes
  (buffer-based ``Isend``/``Probe``/``Recv``, per the mpi4py guidance of
  preferring buffer-provider objects for bulk data);
* `LoopbackTransport` — the no-MPI fallback: all ranks in one process,
  queues in memory, identical call surface;
* `make_transport()` — picks whichever is available.

`examples/mpi_partition.py` is the runnable entry point::

    mpiexec -n 8 python examples/mpi_partition.py   # real MPI
    python examples/mpi_partition.py                # loopback fallback
"""

from __future__ import annotations

import struct
from collections import deque
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # imported lazily at runtime to avoid a package cycle
    from ..core.pipeline import Envelope

__all__ = [
    "HAVE_MPI",
    "LoopbackTransport",
    "MpiTransport",
    "make_transport",
    "pack_envelope",
    "unpack_envelope",
]

try:  # pragma: no cover - exercised only where mpi4py exists
    from mpi4py import MPI as _MPI

    HAVE_MPI = True
except ImportError:
    _MPI = None
    HAVE_MPI = False

_HDR = struct.Struct("<IIQ")  # src, dest, nrecords
_TAG_DATA = 0x5F
_TAG_DONE = 0x60


def pack_envelope(env: "Envelope") -> bytes:
    return _HDR.pack(env.src, env.dest, env.nrecords) + env.payload


def unpack_envelope(blob: bytes) -> "Envelope":
    from ..core.pipeline import Envelope  # local: avoid a package cycle

    if len(blob) < _HDR.size:
        raise ValueError(f"envelope too short: {len(blob)} bytes")
    src, dest, nrecords = _HDR.unpack(blob[: _HDR.size])
    return Envelope(src, dest, blob[_HDR.size :], int(nrecords))


class LoopbackTransport:
    """All ranks in one process: per-rank FIFO queues.

    Mirrors the MPI transport's surface so driver code is identical; the
    *caller* iterates ranks (SPMD emulation), whereas under MPI each
    process owns exactly one rank.
    """

    def __init__(self, nranks: int):
        if nranks < 1:
            raise ValueError("nranks must be >= 1")
        self.size = nranks
        self._queues: list[deque[bytes]] = [deque() for _ in range(nranks)]
        self.sent = 0
        self.received = 0

    def send(self, env: Envelope) -> None:
        if not 0 <= env.dest < self.size:
            raise ValueError(f"destination {env.dest} out of range")
        self._queues[env.dest].append(pack_envelope(env))
        self.sent += 1

    def poll(self, rank: int) -> list[Envelope]:
        """Drain everything queued for ``rank``."""
        out = []
        q = self._queues[rank]
        while q:
            out.append(unpack_envelope(q.popleft()))
        self.received += len(out)
        return out

    def barrier(self) -> None:  # single process: nothing to synchronize
        pass


class MpiTransport:  # pragma: no cover - needs a real MPI runtime
    """mpi4py-backed envelope transport (one rank per process)."""

    def __init__(self, comm=None):
        if not HAVE_MPI:
            raise RuntimeError("mpi4py is not available; use LoopbackTransport")
        self.comm = comm if comm is not None else _MPI.COMM_WORLD
        self.rank = self.comm.Get_rank()
        self.size = self.comm.Get_size()
        self._inflight: list = []
        self.sent = 0
        self.received = 0

    def send(self, env: Envelope) -> None:
        blob = pack_envelope(env)
        req = self.comm.Isend([blob, _MPI.BYTE], dest=env.dest, tag=_TAG_DATA)
        self._inflight.append((req, blob))  # keep the buffer alive
        self.sent += 1

    def poll(self, rank: int | None = None) -> list[Envelope]:
        out = []
        status = _MPI.Status()
        while self.comm.Iprobe(source=_MPI.ANY_SOURCE, tag=_TAG_DATA, status=status):
            nbytes = status.Get_count(_MPI.BYTE)
            buf = bytearray(nbytes)
            self.comm.Recv([buf, _MPI.BYTE], source=status.Get_source(), tag=_TAG_DATA)
            out.append(unpack_envelope(bytes(buf)))
        self.received += len(out)
        self._inflight = [(r, b) for r, b in self._inflight if not r.Test()]
        return out

    def barrier(self) -> None:
        for req, _ in self._inflight:
            req.Wait()
        self._inflight.clear()
        self.comm.Barrier()


def make_transport(nranks: int | None = None):
    """MPI transport when running under ``mpiexec``; loopback otherwise."""
    if HAVE_MPI and _MPI.COMM_WORLD.Get_size() > 1:
        return MpiTransport()
    return LoopbackTransport(nranks or 1)
