"""In-process simulated cluster: real pipelines, exact accounting.

`SimCluster` runs one `WriterState` over all its ranks and one
`ReceiverState` per rank, over an in-memory transport: an epoch's shuffle
is one pass over every rank's puts, whose rows a router counts and each
receiver takes in one call.  Everything the paper *counts* — RPC messages,
bytes shuffled, bytes stored, per-partition index sizes — is measured from
real execution of the real data structures; everything the paper *times*
at scale comes from the analytic model in `repro.core.costmodel`, fed with
these counts.

Typical use::

    cluster = SimCluster(nranks=8, fmt=FMT_FILTERKV, value_bytes=56)
    cluster.run_epoch(batches_per_rank)      # generate + shuffle + persist
    stats = cluster.stats                    # messages, bytes, table sizes
    engine = cluster.query_engine()          # read path over the output
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.formats import FMT_FILTERKV, FormatSpec
from ..core.kv import KVBatch, random_kv_batch
from ..core.partitioning import HashPartitioner
from ..core.pipeline import ReceiverState, WriterState, build_aux, epoch_files
from ..core.routing import DirectRouter, ThreeHopRouter
from ..obs import MetricsRegistry, active
from ..storage.blockio import DeviceProfile, StorageDevice

__all__ = ["SimCluster", "ClusterStats"]


@dataclass(frozen=True)
class ClusterStats:
    """Exact counts from one epoch of execution."""

    nranks: int
    records: int
    rpc_messages: int
    shuffle_bytes: int
    storage_bytes: int
    local_storage_bytes: int
    remote_storage_bytes: int
    aux_bytes: int
    local_messages: int = 0

    @property
    def shuffle_bytes_per_record(self) -> float:
        return self.shuffle_bytes / self.records if self.records else 0.0

    @property
    def storage_bytes_per_record(self) -> float:
        return self.storage_bytes / self.records if self.records else 0.0


class SimCluster:
    """A parallel job of ``nranks`` processes executing one output burst.
    Its filterkv partitions seal ``aux_backend``: the paper's cuckoo, or
    the csf a `MultiEpochStore` passes (`auxtable.STORE_AUX_BACKEND`)."""

    def __init__(
        self,
        nranks: int,
        fmt: FormatSpec = FMT_FILTERKV,
        value_bytes: int = 56,
        batch_bytes: int = 16384,
        device_profile: DeviceProfile | None = None,
        device: StorageDevice | None = None,
        block_size: int = 1 << 20,
        epoch: int = 0,
        seed: int = 0,
        routing: str = "direct",
        ppn: int = 1,
        aux_backend: str = "cuckoo",
        metrics: MetricsRegistry | None = None,
    ):
        if nranks < 2:
            raise ValueError("need at least 2 ranks to partition data")
        if routing not in ("direct", "3hop"):
            raise ValueError(f"routing must be 'direct' or '3hop', got {routing!r}")
        self.nranks = nranks
        self.fmt = fmt
        self.value_bytes = value_bytes
        self.batch_bytes = batch_bytes
        self.epoch = epoch
        self.seed = seed
        self.metrics = active(metrics)
        self.device = device if device is not None else StorageDevice(
            device_profile, metrics=self.metrics
        )
        self.partitioner = HashPartitioner(nranks)
        if routing == "3hop":
            self.router = ThreeHopRouter(ppn=ppn, batch_bytes=batch_bytes)
        else:
            self.router = DirectRouter(ppn=ppn)
        self.receivers = [
            ReceiverState(
                r,
                self.nranks,
                self.fmt,
                self.device,
                self.value_bytes,
                aux_backend=aux_backend,
                epoch=self.epoch,
                block_size=block_size,
                aux_seed=self.seed,
                metrics=self.metrics,
            )
            for r in range(self.nranks)
        ]
        self.writer = WriterState(
            list(range(self.nranks)),
            self.fmt,
            self.partitioner,
            self.device,
            self.value_bytes,
            aux_backend=aux_backend,
            batch_bytes=self.batch_bytes,
            epoch=self.epoch,
            block_size=block_size,
            metrics=self.metrics,
        )
        self._finished = False

    @property
    def rpc_messages(self) -> int:
        """Wire messages (node-local hops are shared-memory, not RPCs)."""
        return self.router.wire_messages

    @property
    def shuffle_bytes(self) -> int:
        return self.router.wire_bytes

    # -- driving -----------------------------------------------------------

    def put(self, rank: int, batch: KVBatch) -> None:
        """Write one generated batch on a rank; it ships at `finish_epoch`."""
        self.writer.put_batch(rank, batch)

    def finish_epoch(self) -> None:
        """Shuffle every rank's puts, then persist every partition."""
        if self._finished:
            raise ValueError("epoch already finished")
        rows = self.writer.finish()
        order = self.router.send(rows.src, rows.dest, rows.count * self.writer.record_bytes)
        for receiver, columns in zip(self.receivers, rows.by_dest(order, self.nranks)):
            receiver.deliver(*columns)
        build_aux(self.receivers)  # every partition's aux table, built together
        for r in self.receivers:
            r.finish()
        self._finished = True

    def run_epoch(self, records_per_rank: int, batch_records: int = 4096) -> ClusterStats:
        """Generate random KV pairs on every rank and run the full burst."""
        rng = np.random.default_rng(self.seed)
        for rank in range(self.nranks):
            remaining = records_per_rank
            while remaining > 0:
                n = min(batch_records, remaining)
                self.put(rank, random_kv_batch(n, self.value_bytes, rng))
                remaining -= n
        self.finish_epoch()
        return self.stats

    # -- results -----------------------------------------------------------

    @property
    def stats(self) -> ClusterStats:
        if not self._finished:
            raise ValueError("epoch not finished yet")
        local = self.writer.local_storage_bytes
        aux = sum(
            r.aux.size_bytes for r in self.receivers if r.aux is not None
        )
        total = self.device.total_bytes_stored()
        return ClusterStats(
            nranks=self.nranks,
            records=self.writer.records_written,
            rpc_messages=self.rpc_messages,
            shuffle_bytes=self.shuffle_bytes,
            storage_bytes=total,
            local_storage_bytes=local,
            remote_storage_bytes=total - local,
            aux_bytes=aux,
            local_messages=self.router.local_messages,
        )

    def query_engine(self):
        """Read path over this cluster's persisted output."""
        from ..core.reader import QueryEngine  # local import: avoid cycle

        if not self._finished:
            raise ValueError("finish the epoch before querying")
        return QueryEngine(
            device=self.device,
            fmt=self.fmt,
            nranks=self.nranks,
            partitioner=self.partitioner,
            aux_tables=[r.aux for r in self.receivers],
            epoch=self.epoch,
            files=epoch_files(self.device, self.epoch, self.fmt),
            metrics=self.metrics,
        )
