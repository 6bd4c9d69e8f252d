"""One fleet shard: a recovered `MultiEpochStore` behind a `QueryService`.

A `ShardNode` is the unit the ring places keys on.  Each node owns its
own storage device — always a `FaultyStorageDevice`, so every shard can
be crashed and recovered on schedule — its own store, its own service,
its own ``serve.*`` registry (one for the node's lifetime, handed to every
service it mounts and merged fleet-wide by `Fleet`), and optionally its
own TCP front end.  A node's client is its `TCPClient`, or in process
the service itself: both answer ``get`` alike, so the router never knows
which it is talking to.

Crash/recover is the storage-truth discipline the faults suite
established: `crash` downs the device (every probe raises `CrashPoint`,
which the service surfaces as typed ``error`` responses — exactly what a
router's circuit breaker feeds on), and `recover` revives the device and
re-attaches a *fresh* store from the manifest alone — nothing the dead
service held in memory survives, so recovery exercises the real
crash-consistency path, not a warm restart.
"""

from __future__ import annotations

import numpy as np

from ..core.kv import KVBatch
from ..core.multiepoch import MultiEpochStore
from ..faults import FaultPlan, FaultyStorageDevice
from ..obs import MetricsRegistry
from ..serve import QueryService, ServeServer, TCPClient
from ..storage.manifest import RecoveryReport

__all__ = ["ShardNode"]


class ShardNode:
    """One shard: device + store + service (+ optional TCP server).

    Parameters
    ----------
    shard_id:
        The ring identity.  Also seeds this shard's store (offset from the
        fleet seed) so shards ingest independently.
    nranks:
        Writer ranks *within* the shard — each shard is a full in-situ
        FilterKV dataset with its own partitions and aux tables.
    service_kwargs:
        Passed through to `QueryService` (cache sizes, admission control,
        deadlines).
    """

    def __init__(
        self,
        shard_id: int,
        nranks: int = 4,
        value_bytes: int = 24,
        seed: int = 0,
        service_kwargs: dict | None = None,
    ):
        self.shard_id = int(shard_id)
        self.nranks = int(nranks)
        self.value_bytes = int(value_bytes)
        self.seed = int(seed)
        self.service_kwargs = dict(service_kwargs or {})
        self.device = FaultyStorageDevice(plan=FaultPlan(seed=seed))
        # Outlives every service: a recovered shard keeps counting where
        # the crashed one stopped.
        self.metrics = MetricsRegistry("serve")
        self.store = MultiEpochStore(
            nranks=self.nranks,
            value_bytes=self.value_bytes,
            device=self.device,
            seed=self.seed,
        )
        self.service: QueryService | None = None
        self.server: ServeServer | None = None
        self.client: TCPClient | QueryService | None = None
        self.last_recovery: RecoveryReport | None = None

    # -- ingest ------------------------------------------------------------

    def write_epoch(self, batch: KVBatch) -> int:
        """Commit one epoch holding this shard's slice of a fleet dump.

        The slice is split across the shard's writer ranks round-robin —
        each rank plays one simulated writer process — so the key→rank
        mapping is uncorrelated with the hash partitioner and the aux
        tables face their real workload.  Returns the epoch id.
        """
        per_rank: list[KVBatch] = []
        writer = np.arange(len(batch)) % self.nranks
        for rank in range(self.nranks):
            sel = writer == rank
            per_rank.append(KVBatch(batch.keys[sel], batch.values[sel]))
        epoch = self.store.manifest.next_epoch
        self.store.write_epoch(per_rank)
        return epoch

    # -- lifecycle ---------------------------------------------------------

    async def start(self, tcp: bool = False) -> "ShardNode":
        """Mount the service (and, in TCP mode, the wire front end) and
        connect this node's client: in process, the service itself."""
        if self.service is None:
            self.service = QueryService(self.store, metrics=self.metrics, **self.service_kwargs)
        if tcp:
            self.server = ServeServer(self.service)
            await self.server.start()
            self.client = await TCPClient("127.0.0.1", self.server.port).connect()
        else:
            self.client = self.service
        return self

    async def stop(self) -> None:
        if isinstance(self.client, TCPClient):
            await self.client.close()
        self.client = None
        if self.server is not None:
            await self.server.close()
            self.server = None
        elif self.service is not None:
            await self.service.close()
        self.service = None

    # -- failure and recovery ----------------------------------------------

    def crash(self) -> None:
        """Down the device.  The service object survives but every store
        probe now raises `CrashPoint`, surfacing as typed ``error``
        responses — what the router's breaker and failover act on.
        Idempotent."""
        self.device.crashed = True

    async def recover(self, tcp: bool | None = None) -> "ShardNode":
        """Revive the device and re-attach everything *from storage*.

        The old service and its caches are discarded (its ``serve.*``
        counts stay in the node's registry); `MultiEpochStore.
        recover` replays the manifest against the surviving bytes, so the
        node comes back exactly as crash consistency guarantees — and the
        `RecoveryReport` is kept for tests to assert on.  The client is
        reconnected (same transport as before unless ``tcp`` overrides).
        """
        was_tcp = self.server is not None if tcp is None else tcp
        await self.stop()
        store, report = MultiEpochStore.recover(self.device)
        if store is None:
            raise RuntimeError(
                f"shard {self.shard_id}: no manifest survived the crash"
            )
        self.store = store
        self.last_recovery = report
        return await self.start(tcp=was_tcp)
