"""Fleet assembly: spec → shard nodes + ring + router, plus rollups.

`Fleet` wires the pieces together: ``nshards`` `ShardNode`s placed on a
`HashRing`, an ingest path that splits each fleet dump into per-shard
epochs by ring ownership (every key lands on its primary *and* its
``rf - 1`` replicas, so every owner is a full replica of it and any owner
can serve it), and a `FleetRouter` that walks each key's owners in ring
order over the shard clients.  Observability rolls up the
other way: each shard keeps its own ``serve.*`` registry, and the fleet
merges them under a ``shard`` label, re-exporting the totals as
``fleet.*`` series next to the router's own ``fleet.router.*`` counters.

Everything runs in one process — in-proc clients by default, real TCP
servers with ``tcp=True`` — because the repo simulates at function-call
granularity; the wire format, the placement, and the failure handling
are exactly what a multi-process deployment would use.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..core.kv import KVBatch
from ..obs import MetricsRegistry
from .ring import HashRing
from .router import FleetRouter
from .shard import ShardNode

__all__ = ["Fleet", "FleetSpec"]


@dataclass(frozen=True)
class FleetSpec:
    """Shape of one fleet.

    ``nranks`` is writer ranks *per shard* (each shard is a complete
    in-situ FilterKV dataset); ``rf`` is the replication factor — how many ring
    owners hold each key.  ``service_kwargs`` pass through to every
    shard's `QueryService` untouched.
    """

    nshards: int = 4
    rf: int = 2
    nranks: int = 4
    value_bytes: int = 24
    seed: int = 0
    vnodes: int = 64
    tcp: bool = False
    service_kwargs: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.nshards < 1:
            raise ValueError(f"nshards must be >= 1, got {self.nshards}")
        if not 1 <= self.rf:
            raise ValueError(f"rf must be >= 1, got {self.rf}")


class Fleet:
    """A running (or about-to-run) sharded serving fleet."""

    def __init__(self, spec: FleetSpec):
        self.spec = spec
        self.ring = HashRing(
            list(range(spec.nshards)), vnodes=spec.vnodes, seed=spec.seed
        )
        self.shards: dict[int, ShardNode] = {
            sid: ShardNode(
                sid,
                nranks=spec.nranks,
                value_bytes=spec.value_bytes,
                # Offset per shard so sibling stores ingest independently.
                seed=spec.seed + 1000 * (sid + 1),
                service_kwargs=spec.service_kwargs,
            )
            for sid in range(spec.nshards)
        }
        # The router reads this mapping live; recovery swaps entries in
        # place rather than rebuilding the router.
        self.clients: dict[int, object] = {}
        self.router: FleetRouter | None = None

    @property
    def rf(self) -> int:
        return min(self.spec.rf, self.spec.nshards)

    # -- ingest ------------------------------------------------------------

    def ingest(self, batch: KVBatch) -> int:
        """Commit one fleet dump: every shard gets an epoch holding the
        keys it owns (as primary or replica).  All shards commit every
        epoch — possibly empty — so epoch ids stay in lockstep across the
        fleet.  Returns the epoch id."""
        owners = self.ring.owners_many(batch.keys, rf=self.rf)
        epochs = set()
        for sid, node in self.shards.items():
            mask = (owners == sid).any(axis=1)
            epochs.add(node.write_epoch(batch.select(mask)))
        if len(epochs) != 1:
            raise RuntimeError(f"shard epochs diverged: {sorted(epochs)}")
        return epochs.pop()

    # -- lifecycle ---------------------------------------------------------

    async def start(self) -> FleetRouter:
        """Start every shard (+ TCP front ends when configured) and build
        the router over their clients."""
        for node in self.shards.values():
            await node.start(tcp=self.spec.tcp)
            self.clients[node.shard_id] = node.client
        self.router = FleetRouter(self.clients, self.ring, rf=self.rf)
        return self.router

    async def close(self) -> None:
        if self.router is not None:
            await self.router.close()
        for node in self.shards.values():
            await node.stop()

    async def __aenter__(self) -> "Fleet":
        await self.start()
        return self

    async def __aexit__(self, *exc) -> None:
        await self.close()

    # -- failure/recovery --------------------------------------------------

    def crash_shard(self, shard_id: int) -> None:
        self.shards[shard_id].crash()

    async def recover_shard(self, shard_id: int) -> None:
        """Crash-recover one shard and splice it back into the fleet:
        fresh store from the manifest, fresh service, client swapped into
        the live mapping, and its breaker closed so ring order sends the
        shard its keys again at once."""
        node = self.shards[shard_id]
        await node.recover(tcp=self.spec.tcp)
        self.clients[shard_id] = node.client
        if self.router is not None:
            breaker = self.router.breakers.get(shard_id)
            if breaker is not None:
                breaker.record(True)

    # -- observability -----------------------------------------------------

    def merged_metrics(self) -> MetricsRegistry:
        """Every registry in the fleet, in one place: the router's
        ``fleet.router.*`` series unlabeled, each shard's ``serve.*`` (and
        ``reader.*``/``aux.*``) series under ``shard=<id>``."""
        out = MetricsRegistry("fleet")
        if self.router is not None:
            out.merge(self.router.metrics)
        for sid, node in self.shards.items():
            if node.service is not None:
                out.merge(node.service.metrics, shard=sid)
        return out

    def rollup(self) -> MetricsRegistry:
        """Fleet-wide totals: the merged registry with the ``shard`` label
        dropped, and every ``serve.*`` series re-exported as ``fleet.*``
        (``fleet.requests``, ``fleet.sheds``, …) so dashboards read one
        namespace for the whole tier."""
        rolled = self.merged_metrics().rollup("shard")
        for name, labels, inst in list(rolled.series()):
            if not name.startswith("serve."):
                continue
            fleet_name = "fleet." + name[len("serve."):]
            kw = dict(labels)
            if inst.kind == "counter":
                rolled.counter(fleet_name, **kw).inc(inst.value)
            elif inst.kind == "gauge":
                rolled.gauge(fleet_name, **kw).set(inst.value)
            else:
                for v in inst._values:
                    rolled.histogram(fleet_name, **kw).observe(v)
        return rolled
