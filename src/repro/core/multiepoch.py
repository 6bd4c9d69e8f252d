"""Multi-epoch datasets: the full in-situ simulation workflow.

The paper's macrobenchmark dumps particle state every few timesteps;
scientists then ask for one particle's state *at individual timesteps*
(§V-B).  `MultiEpochStore` runs one `SimCluster` epoch per dump against a
shared storage device, maintains the dataset `Manifest`, and serves both
single-epoch point queries and cross-epoch trajectory queries.

Example::

    store = MultiEpochStore(nranks=8, fmt=FMT_FILTERKV, value_bytes=56)
    for _ in range(4):
        sim.step(5)
        store.write_epoch(sim.dump())
    trajectory = store.trajectory(particle_id)   # [(epoch, value, stats)]
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from ..obs import MetricsRegistry
from ..storage.blockio import DeviceProfile, StorageDevice
from ..storage.envelope import unseal
from ..storage.tiering import TierConfig, TieredStorage

if TYPE_CHECKING:  # imported lazily at runtime to avoid a package cycle
    from ..cluster.simcluster import ClusterStats

    from .reader import CachedQueryEngine
from ..storage.manifest import EpochInfo, Manifest, RecoveryReport
from .auxtable import AuxTable, aux_from_blob
from .compact import CompactionPolicy, CompactionReport, Compactor
from .formats import FMT_FILTERKV, FORMATS, FormatSpec
from .kv import KVBatch
from .partitioning import HashPartitioner
from .pipeline import aux_table_name, main_table_name
from .reader import MetaCache, QueryEngine, QueryStats

__all__ = ["MultiEpochStore"]


def _merge_stats(dst: QueryStats, src: QueryStats) -> None:
    """Fold one epoch probe's costs into a cross-epoch aggregate."""
    dst.found = dst.found or src.found
    dst.latency += src.latency
    dst.reads += src.reads
    dst.bytes_read += src.bytes_read
    dst.partitions_searched += src.partitions_searched
    for k, v in src.breakdown_reads.items():
        dst.breakdown_reads[k] = dst.breakdown_reads.get(k, 0) + v
    for k, v in src.breakdown_bytes.items():
        dst.breakdown_bytes[k] = dst.breakdown_bytes.get(k, 0) + v


class MultiEpochStore:
    """A persisted dataset spanning many dump epochs."""

    def __init__(
        self,
        nranks: int,
        fmt: FormatSpec = FMT_FILTERKV,
        value_bytes: int = 56,
        device_profile: DeviceProfile | None = None,
        batch_bytes: int = 16384,
        block_size: int = 1 << 20,
        seed: int = 0,
        device: StorageDevice | None = None,
        compaction: CompactionPolicy | None = None,
        tiering: TieredStorage | TierConfig | None = None,
        aux_backends: tuple[str, ...] | None = None,
    ):
        self.nranks = nranks
        self.fmt = fmt
        self.value_bytes = value_bytes
        self.batch_bytes = batch_bytes
        self.block_size = block_size
        self.seed = seed
        self.device = device if device is not None else StorageDevice(device_profile)
        self.manifest = Manifest(fmt=fmt.name, nranks=nranks, value_bytes=value_bytes)
        # The paper's cold readers, one per live epoch (`engine`,
        # ``lookup(cached=False)``): they share nothing and re-open
        # everything per query.
        self._engines: dict[int, QueryEngine] = {}
        # Sealed tables are immutable: their verified footer/index/filter
        # stay resident here, shared by every engine below and by
        # `cached_engine`.  Filled lazily; retired epochs are dropped.
        self.meta_cache = MetaCache()
        # Engines behind `get` / `get_many`: handle opened and closed per
        # call (no data block outlives it), metadata from the cache.
        self._resident: dict[int, QueryEngine] = {}
        # Warm per-epoch engines for the store's own repeated read paths
        # (trajectory/lookup); built lazily, closed deterministically.
        self._cached: dict[int, CachedQueryEngine] = {}
        # Compaction: optional size-tiered policy checked after every
        # commit, and a generation counter serving tiers watch to learn
        # that the epoch set changed under them.
        self.compaction_policy = compaction
        # Aux backends to try, in order, for each sealed key→rank set
        # (None: the format's own); the one that built is recorded in the
        # manifest's EpochInfo.aux_backend.
        self.aux_backends = aux_backends
        self.compactions = 0
        self.last_compaction: CompactionReport | None = None
        # Optional burst-buffer/PFS model: dumps land on the burst buffer;
        # compaction output is drained, PFS-resident data.
        if isinstance(tiering, TierConfig):
            tiering = TieredStorage(tiering)
        self.tiering = tiering

    # -- attach / recover ----------------------------------------------------

    @classmethod
    def attach(cls, device: StorageDevice, **kwargs) -> "MultiEpochStore":
        """Reopen a persisted dataset from its manifest alone.

        Rebuilds a query engine for every committed epoch, reloading each
        partition's auxiliary table from its sealed extent — the read side
        of crash consistency: nothing about the dataset lives only in the
        memory of the process that wrote it.
        """
        manifest = Manifest.load(device)
        fmt = FORMATS.get(manifest.fmt)
        if fmt is None:
            raise ValueError(f"manifest names unknown format {manifest.fmt!r}")
        store = cls(
            nranks=manifest.nranks,
            fmt=fmt,
            value_bytes=manifest.value_bytes,
            device=device,
            **kwargs,
        )
        store.manifest = manifest
        for epoch in manifest.epoch_ids:
            store._engines[epoch] = store._attach_engine(epoch)
        return store

    @classmethod
    def recover(
        cls,
        device: StorageDevice,
        deep: bool = False,
        metrics: MetricsRegistry | None = None,
        **kwargs,
    ) -> "tuple[MultiEpochStore | None, RecoveryReport]":
        """Crash-recover the device, then attach to what survived.

        Returns ``(store-or-None, report)`` — None when no valid manifest
        survived (nothing was ever committed).
        """
        from ..faults import FaultyStorageDevice  # local: optional layer

        if isinstance(device, FaultyStorageDevice):
            device.revive()
        manifest, report = Manifest.recover(device, deep=deep, metrics=metrics)
        store = cls.attach(device, **kwargs) if manifest is not None else None
        return store, report

    def _attach_engine(self, epoch: int) -> QueryEngine:
        """Query engine over one committed epoch, aux tables reloaded
        from their sealed extents."""
        aux_tables: list[AuxTable | None] = [None] * self.nranks
        if self.fmt.name == "filterkv":
            for rank in range(self.nranks):
                with self.device.open(aux_table_name(epoch, rank)) as f:
                    aux_tables[rank] = aux_from_blob(
                        unseal(f.read(0, f.size)), metric_labels={"rank": str(rank)}
                    )
        return QueryEngine(
            device=self.device,
            fmt=self.fmt,
            nranks=self.nranks,
            partitioner=HashPartitioner(self.nranks),
            aux_tables=aux_tables,
            epoch=epoch,
        )

    def aux_blobs(self, epoch: int) -> list[bytes] | None:
        """One committed epoch's sealed aux extents, verbatim (rank order).

        This is the router-tier export surface (ROADMAP item 1): a fleet
        router holds *only* these blobs' rebuilt tables — never values or
        SSTables — so what this returns bounds a router's resident memory.
        The bytes are returned still sealed: the same envelope that
        protects the extent at rest rides the wire, and the consumer's
        ``unseal`` is its integrity check.  Returns None for formats that
        persist no aux tables (base/dataptr) — a router then has nothing
        to route with and falls back to ring placement alone.
        """
        if self.fmt.name != "filterkv":
            return None
        epoch = self.resolve_epoch(epoch)
        out: list[bytes] = []
        for rank in range(self.nranks):
            with self.device.open(aux_table_name(epoch, rank)) as f:
                out.append(f.read(0, f.size))
        return out

    # -- writing -----------------------------------------------------------

    @property
    def _next_epoch(self) -> int:
        """Monotone epoch-id watermark, persisted with the manifest.

        Never decreases — not across attach, recover, or compaction — so a
        retired epoch id can never be handed out again and alias stale
        ``(epoch, key)`` cache entries elsewhere in the system.
        """
        return self.manifest.next_epoch

    def write_epoch(self, batches: list[KVBatch]) -> "ClusterStats":
        """Partition and persist one dump (one KVBatch per rank)."""
        from ..cluster.simcluster import SimCluster  # local: avoid cycle

        if len(batches) != self.nranks:
            raise ValueError(f"need {self.nranks} batches, got {len(batches)}")
        epoch = self._next_epoch
        records = sum(len(b) for b in batches)
        cluster = SimCluster(
            nranks=self.nranks,
            fmt=self.fmt,
            value_bytes=self.value_bytes,
            batch_bytes=self.batch_bytes,
            device=self.device,
            block_size=self.block_size,
            epoch=epoch,
            seed=self.seed + epoch,
            aux_backends=self.aux_backends,
        )
        before = self.device.total_bytes_stored()
        for rank, batch in enumerate(batches):
            cluster.put(rank, batch)
        cluster.finish_epoch()
        self._engines[epoch] = cluster.query_engine()
        files = tuple(
            n
            for n in self.device.list_files()
            if n.startswith((f"part.{epoch:03d}.", f"aux.{epoch:03d}.")) or n.startswith("vlog.")
        )
        epoch_bytes = self.device.total_bytes_stored() - before
        self.manifest.add_epoch(
            EpochInfo(
                epoch=epoch,
                records=records,
                files=files,
                bytes=epoch_bytes,
                aux_backend=cluster.aux_backends(),
            )
        )
        self.manifest.save(self.device)
        if self.tiering is not None and epoch_bytes > 0:
            # Each dump lands as a burst on the burst buffer.
            self.tiering.write_burst(epoch_bytes)
            self._observe_tiers()
        # Materialize the (lazily computed) stats before the policy hook:
        # compaction may retire this very epoch and sweep its extents.
        stats = cluster.stats
        if self.compaction_policy is not None:
            picked = self.compaction_policy.select(self.manifest)
            if picked:
                self.compact(picked)
        return stats

    # -- reading -----------------------------------------------------------

    @property
    def epochs(self) -> list[int]:
        return self.manifest.epoch_ids

    def resolve_epoch(self, epoch: int) -> int:
        """Live epoch serving ``epoch``'s data.

        Identity for live epochs; epochs retired by compaction forward to
        the merged epoch that absorbed them (which serves the newest-wins
        union of its sources).  Raises KeyError for ids never committed.
        """
        return self.manifest.resolve_epoch(int(epoch))

    def engine(self, epoch: int) -> QueryEngine:
        epoch = self.resolve_epoch(epoch)
        if epoch not in self._engines:
            raise KeyError(f"no such epoch {epoch} (have {self.epochs})")
        return self._engines[epoch]

    def _mount(self, epoch: int, cls=QueryEngine, **kwargs):
        """A ``cls`` engine over one committed epoch that shares the cold
        engine's aux tables (and, unless told otherwise, its metrics) and
        the store's metadata cache."""
        base = self.engine(epoch)
        kwargs.setdefault("metrics", base.metrics)
        return cls(
            device=self.device,
            fmt=self.fmt,
            nranks=self.nranks,
            partitioner=base.partitioner,
            aux_tables=base.aux_tables,
            epoch=base.epoch,
            meta_cache=self.meta_cache,
            **kwargs,
        )

    def cached_engine(
        self,
        epoch: int,
        metrics: MetricsRegistry | None = None,
        table_cache_entries: int | None = None,
    ) -> "CachedQueryEngine":
        """A warm-cache engine over one committed epoch.

        This is what a long-running serving tier (`repro.serve`) mounts:
        same device/format/aux tables as `engine`, but with the bounded
        reader cache and cache telemetry of `CachedQueryEngine`.
        ``table_cache_entries`` bounds the open handles it keeps (and the
        data blocks their block LRUs pin), not metadata: that lives in
        the store's `meta_cache`.
        """
        from .reader import CachedQueryEngine  # local: keep import surface small

        kwargs = {}
        if table_cache_entries is not None:
            kwargs["table_cache_entries"] = table_cache_entries
        return self._mount(epoch, CachedQueryEngine, metrics=metrics, **kwargs)

    def _pooled_engine(self, epoch: int) -> "CachedQueryEngine":
        """The store's own warm engine for one live epoch.

        Built on first use and reused by every subsequent `trajectory` /
        `lookup` call, so repeated cross-epoch reads don't churn reader
        handles; `close` (or compaction retiring the epoch) releases them.
        """
        resolved = self.resolve_epoch(epoch)
        engine = self._cached.get(resolved)
        if engine is None:
            engine = self.cached_engine(resolved)
            self._cached[resolved] = engine
        return engine

    def _resident_engine(self, epoch: int) -> QueryEngine:
        resolved = self.resolve_epoch(epoch)
        engine = self._resident.get(resolved)
        if engine is None:
            engine = self._mount(resolved)
            self._resident[resolved] = engine
        return engine

    def get(self, key: int, epoch: int) -> tuple[bytes | None, QueryStats]:
        """Point query at one timestep (the paper's Fig. 11 query, with
        table metadata resident after each table's first open)."""
        return self._resident_engine(epoch).get(key)

    def get_many(self, keys, epoch: int) -> tuple[list[bytes | None], list[QueryStats]]:
        """Bulk point queries at one timestep (block-coalesced read path)."""
        return self._resident_engine(epoch).get_many(keys)

    def trajectory(self, key: int) -> list[tuple[int, bytes | None, QueryStats]]:
        """The key's value at every epoch — a particle's trajectory.

        Served from the store's pooled warm engines: repeated trajectory
        calls reuse open readers and loaded aux tables instead of opening
        and closing every partition's handles on each call.
        """
        return [(e, *self._pooled_engine(e).get(key)) for e in self.epochs]

    def lookup(
        self, key: int, cached: bool = True
    ) -> tuple[bytes | None, int | None, QueryStats]:
        """Newest value of ``key`` across all live epochs.

        Walks epochs newest-first with early stop — the read whose cost
        grows linearly with live epoch count, and exactly the view
        compaction preserves (first-write-wins, newest epoch first).
        Returns ``(value, epoch_found, aggregate_stats)``.  With
        ``cached=False`` every probe opens partitions afresh (the paper's
        cold reader), which is what `benchmarks/bench_compact.py` measures.
        """
        agg = QueryStats()
        for epoch in reversed(self.epochs):
            probe = self._pooled_engine(epoch) if cached else self._engines[epoch]
            value, stats = probe.get(key)
            _merge_stats(agg, stats)
            if value is not None:
                return value, epoch, agg
        return None, None, agg

    def lookup_many(
        self, keys, cached: bool = True
    ) -> tuple[list[bytes | None], list[int | None], list[QueryStats]]:
        """Bulk `lookup`: each epoch is probed once with the still-missing
        keys (block-coalesced), newest first."""
        arr = np.asarray(keys, dtype=np.uint64).ravel()
        values: list[bytes | None] = [None] * arr.size
        found: list[int | None] = [None] * arr.size
        agg = [QueryStats() for _ in range(arr.size)]
        remaining = list(range(arr.size))
        for epoch in reversed(self.epochs):
            if not remaining:
                break
            probe = self._pooled_engine(epoch) if cached else self._engines[epoch]
            vals, stats = probe.get_many(arr[remaining])
            still: list[int] = []
            for i, value, st in zip(remaining, vals, stats):
                _merge_stats(agg[i], st)
                if value is not None:
                    values[i] = value
                    found[i] = epoch
                else:
                    still.append(i)
            remaining = still
        return values, found, agg

    # -- compaction ---------------------------------------------------------

    def compact(self, epochs: list[int] | None = None) -> CompactionReport | None:
        """Merge sealed epochs into one and atomically swap the manifest.

        ``epochs`` defaults to what the policy picks (or every live epoch
        when no policy is configured).  Returns None when there is nothing
        to merge.  The store keeps serving throughout: its in-memory state
        flips to the merged manifest only after the on-device swap lands.
        """
        if epochs is None:
            if self.compaction_policy is not None:
                epochs = self.compaction_policy.select(self.manifest)
            else:
                epochs = self.epochs if len(self.epochs) >= 2 else None
        if not epochs or len(epochs) < 2:
            return None
        manifest, report = Compactor(self).run(list(epochs))
        self._apply_compaction(manifest, report)
        return report

    def _apply_compaction(self, manifest: Manifest, report: CompactionReport) -> None:
        """Flip the in-memory view to a swapped-in merged manifest.

        The on-device swap already landed.  Engines over retired epochs
        hold handles on extents the sweep deleted — close them before
        anything probes through them.
        """
        self.manifest = manifest
        for epoch in report.source_epochs:
            self._engines.pop(epoch, None)
            self._resident.pop(epoch, None)
            self.meta_cache.drop_epoch(epoch)
            stale = self._cached.pop(epoch, None)
            if stale is not None:
                stale.close()
        self._engines[report.merged_epoch] = self._attach_engine(report.merged_epoch)
        self.compactions += 1
        self.last_compaction = report
        if self.tiering is not None:
            # Merged output is drained, PFS-resident data: let the model
            # finish draining what the retired bursts left on the BB.
            self.tiering.idle(
                self.tiering.bb_occupancy / self.tiering.config.drain_bandwidth
            )
            self._observe_tiers()

    def _observe_tiers(self) -> None:
        reg = self.device.metrics
        reg.gauge("tiering.bb_bytes").set(self.tiering.bb_occupancy)
        reg.gauge("tiering.pfs_bytes").set(self.tiering.drained_total)

    # -- lifecycle ----------------------------------------------------------

    def close(self) -> None:
        """Release every pooled reader handle and the resident table
        metadata (idempotent; later reads refill lazily)."""
        for engine in self._cached.values():
            engine.close()
        self._cached.clear()
        self._resident.clear()
        self.meta_cache.clear()

    def __enter__(self) -> "MultiEpochStore":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- inventory ---------------------------------------------------------

    def describe(self) -> str:
        """Human-readable dataset summary from the manifest."""
        lines = [
            f"dataset: fmt={self.manifest.fmt} ranks={self.manifest.nranks} "
            f"value_bytes={self.manifest.value_bytes}",
            f"epochs: {len(self.manifest.epochs)}, records: {self.manifest.total_records:,}, "
            f"bytes: {self.device.total_bytes_stored():,}",
        ]
        for e in self.manifest.epochs:
            lines.append(
                f"  epoch {e.epoch}: {e.records:,} records, "
                f"{len(e.files)} files, {e.bytes:,} B"
            )
        if self.manifest.compacted:
            mapping = ", ".join(
                f"{old}->{new}" for old, new in sorted(self.manifest.compacted.items())
            )
            lines.append(f"compacted: {mapping} (next epoch id {self.manifest.next_epoch})")
        if self.tiering is not None:
            lines.append(
                f"tiers: burst buffer {self.tiering.bb_occupancy:,.0f} B, "
                f"PFS {self.tiering.drained_total:,.0f} B drained "
                f"(queryable at t={self.tiering.queryable_after():.2f}s)"
            )
        return "\n".join(lines)
