#!/usr/bin/env python3
"""Run the FilterKV write pipeline as an (optionally real) MPI job.

Under ``mpiexec -n <P> python examples/mpi_partition.py`` each MPI process
owns one rank: it generates records, runs the real `WriterState` (its one
rank's shuffle pass), ships its rows as envelopes through mpi4py, and
receives its partition's keys into a cuckoo auxiliary table.  Without
mpi4py the same pipelines run all ranks in-process through the loopback
transport — same results, one host.

Run:  python examples/mpi_partition.py                # loopback
      mpiexec -n 8 python examples/mpi_partition.py   # real MPI
"""

from repro.core.formats import FMT_FILTERKV
from repro.core.kv import random_kv_batch
from repro.core.partitioning import HashPartitioner
from repro.core.pipeline import ReceiverState, WriterState
from repro.net.mpi_backend import HAVE_MPI, MpiTransport, columns, envelopes, make_transport
from repro.storage.blockio import StorageDevice

NRANKS_FALLBACK = 8
RECORDS_PER_RANK = 5_000
VALUE_BYTES = 56


def build_rank(rank: int, nranks: int, transport):
    device = StorageDevice()
    partitioner = HashPartitioner(nranks)
    receiver = ReceiverState(
        rank, nranks, FMT_FILTERKV, device, VALUE_BYTES, aux_backend="cuckoo"
    )
    writer = WriterState(
        [rank], FMT_FILTERKV, partitioner, device, VALUE_BYTES, aux_backend="cuckoo"
    )
    return writer, receiver


def write_phase(writer, rank: int, transport) -> None:
    writer.put_batch(rank, random_kv_batch(RECORDS_PER_RANK, VALUE_BYTES, rng=1000 + rank))
    for env in envelopes(writer.finish()):
        transport.send(env)


def receive_phase(receiver, rank: int, transport) -> tuple[int, int]:
    receiver.deliver(*columns(transport.poll(rank), rank, receiver.record_bytes))
    receiver.finish()
    return receiver.records_received, receiver.aux.size_bytes


def main() -> None:
    transport = make_transport(NRANKS_FALLBACK)
    if HAVE_MPI and isinstance(transport, MpiTransport):
        rank, nranks = transport.rank, transport.size
        writer, receiver = build_rank(rank, nranks, transport)
        write_phase(writer, rank, transport)
        transport.barrier()  # everyone's sends are in flight/delivered
        received, aux_bytes = receive_phase(receiver, rank, transport)
        print(f"[mpi rank {rank}] received {received} keys, aux table {aux_bytes} B")
        return
    # Loopback: SPMD emulation — run everyone's write phase, then
    # everyone's receive phase (the barrier MPI would provide).
    nranks = transport.size
    pairs = [build_rank(r, nranks, transport) for r in range(nranks)]
    for rank, (writer, _) in enumerate(pairs):
        write_phase(writer, rank, transport)
    transport.barrier()
    total = 0
    for rank, (_, receiver) in enumerate(pairs):
        received, aux_bytes = receive_phase(receiver, rank, transport)
        total += received
        print(f"[loopback rank {rank}] received {received} keys, aux {aux_bytes} B")
    assert total == nranks * RECORDS_PER_RANK
    print(
        f"\nOK: {total} records partitioned across {nranks} in-process ranks "
        f"(install mpi4py + mpiexec for a real parallel job)."
    )


if __name__ == "__main__":
    main()
