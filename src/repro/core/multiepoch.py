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

import weakref
from typing import TYPE_CHECKING

import numpy as np

from ..obs import MetricsRegistry
from ..storage.blockio import StorageDevice
from ..storage.envelope import unseal

if TYPE_CHECKING:  # imported lazily at runtime to avoid a package cycle
    from ..cluster.simcluster import ClusterStats
from ..storage.manifest import EpochInfo, Manifest, RecoveryReport
from .auxtable import AUTO_BACKENDS, aux_from_blob
from .compact import CompactionPolicy, CompactionReport, Compactor
from .formats import FMT_FILTERKV, FORMATS, FormatSpec
from .kv import KVBatch
from .partitioning import HashPartitioner
from .pipeline import clear_epoch
from .reader import TABLE_CACHE_ENTRIES, QueryEngine, QueryStats

__all__ = ["MultiEpochStore", "EpochMount", "EpochRetiredError"]


class EpochRetiredError(LookupError):
    """An explicit read of an epoch id a compaction retired.

    The merged epoch holds the newest-wins union of its sources, so it
    cannot answer for one source's timestep: a key overwritten later
    would come back with a later value.  The read fails instead, naming
    the ``merged`` epoch that absorbed ``epoch``."""

    def __init__(self, epoch: int, merged: int):
        super().__init__(f"epoch {epoch} was retired into merged epoch {merged}")
        self.epoch = epoch
        self.merged = merged


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


def _newest_first(
    epochs: list[int], engine, keys
) -> tuple[list[bytes | None], list[int | None], list[QueryStats]]:
    """Newest value of each key across ``epochs`` (oldest first), read
    through ``engine(epoch)``: each epoch is probed once with the
    still-missing keys (block-coalesced), newest first, until none is left.
    Returns ``(values, epochs_found, stats)``, each key's costs aggregated
    over the epochs it walked."""
    arr = np.asarray(keys, dtype=np.uint64).ravel()
    values: list[bytes | None] = [None] * arr.size
    found: list[int | None] = [None] * arr.size
    agg = [QueryStats() for _ in range(arr.size)]
    remaining = list(range(arr.size))
    for epoch in reversed(epochs):
        if not remaining:
            break
        vals, stats = engine(epoch).get_many(arr[remaining])
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


class EpochMount:
    """One reader session over a store's live epochs.

    A sealed epoch is a static object, so a session needs no coherence
    protocol, only "did the set of sealed epochs change".  The mount owns
    the ``live epoch -> view`` memo, the one rule that empties it (the
    store's compaction generation moved: drop every view, since their
    block caches may hold blocks of swept extents) and the two bulk reads.
    Views are `QueryEngine.warm` of the store's engines, so they share
    each epoch's resident metadata: ``table_cache_entries`` 0 keeps no
    data block between calls, >= 1 keeps that many tables' worth.
    """

    def __init__(
        self,
        store: "MultiEpochStore",
        metrics: MetricsRegistry | None = None,
        table_cache_entries: int = 0,
    ):
        self.store = store
        self.metrics = metrics
        self.table_cache_entries = table_cache_entries
        self._engines: dict[int, QueryEngine] = {}
        self._generation = store.compactions

    @property
    def stale(self) -> bool:
        """A compaction swapped the epoch set since the engines were built."""
        return self._generation != self.store.compactions

    def engine(self, epoch: int) -> QueryEngine:
        """The session's engine for live epoch ``epoch`` (a retired id
        raises `EpochRetiredError`, as `MultiEpochStore.engine` does)."""
        if self.stale:
            self.close()
        engine = self._engines.get(epoch)  # keys are live ids, never reused
        if engine is None:
            engine = self._engines[epoch] = self.store.engine(epoch).warm(
                self.metrics, self.table_cache_entries
            )
        return engine

    def get_many(self, keys, epoch: int) -> tuple[list[bytes | None], list[QueryStats]]:
        """Bulk point queries at one timestep (block-coalesced read path)."""
        return self.engine(epoch).get_many(keys)

    def lookup_many(
        self, keys
    ) -> tuple[list[bytes | None], list[int | None], list[QueryStats]]:
        """Newest value of each key across all live epochs (`_newest_first`
        over the session's engines)."""
        return _newest_first(self.store.epochs, self.engine, keys)

    def close(self) -> None:
        """Drop every engine and the blocks it keeps (idempotent; engines
        rebuild lazily against the store's current epoch set)."""
        self._engines.clear()
        self._generation = self.store.compactions


class MultiEpochStore:
    """A persisted dataset spanning many dump epochs.

    Reads go through cold per-epoch engines (`engine`, the paper's
    reader) or through an `EpochMount`: the store's own two, or the one
    `mount` hands a serving tier.  DESIGN.md §6 has the three policies.
    """

    def __init__(
        self,
        nranks: int,
        fmt: FormatSpec = FMT_FILTERKV,
        value_bytes: int = 56,
        block_size: int = 1 << 20,
        seed: int = 0,
        device: StorageDevice | None = None,
        compaction: CompactionPolicy | None = None,
    ):
        self.nranks = nranks
        self.fmt = fmt
        self.value_bytes = value_bytes
        self.block_size = block_size
        self.seed = seed
        self.device = device if device is not None else StorageDevice()
        self.manifest = Manifest(fmt=fmt.name, nranks=nranks, value_bytes=value_bytes)
        # The paper's cold readers, one per live epoch (`engine`,
        # ``lookup(cached=False)``): they share nothing and re-open
        # everything per query.  Each owns its epoch's decoded aux tables
        # and the table metadata its warm views fill, so both go with the
        # epoch.
        self._engines: dict[int, QueryEngine] = {}
        # Compaction: optional size-tiered policy checked after every
        # commit, and a generation counter reader sessions watch to learn
        # that the epoch set changed under them.
        self.compaction_policy = compaction
        # Aux backends to try, in order, for each sealed key→rank set: every
        # store epoch, compaction output, shard and attached store seals
        # csf-first.  The one that built is recorded in the manifest's
        # EpochInfo.aux_backend.  Tests assign it to force one epoch's backend.
        self.aux_backends = AUTO_BACKENDS
        self.compactions = 0
        self.last_compaction: CompactionReport | None = None
        # The store's own sessions.  `get` / `get_many`: no data block
        # outlives a call (read-cold's RSS bound).  `trajectory` /
        # `lookup*`: repeated cross-epoch reads keep data blocks warm.
        # Both see the store through a proxy: a store <-> mount cycle would
        # leave a dropped store to the cycle collector instead of freeing
        # it with its last reference.
        me = weakref.proxy(self)
        self._reads = EpochMount(me)
        self._warm = EpochMount(me, table_cache_entries=TABLE_CACHE_ENTRIES)

    # -- attach / recover ----------------------------------------------------

    @classmethod
    def attach(cls, device: StorageDevice) -> "MultiEpochStore":
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
        )
        store.manifest = manifest
        for info in manifest.epochs:
            store._engines[info.epoch] = store._attach_engine(info)
        return store

    @classmethod
    def recover(
        cls,
        device: StorageDevice,
        deep: bool = False,
        metrics: MetricsRegistry | None = None,
    ) -> "tuple[MultiEpochStore | None, RecoveryReport]":
        """Crash-recover the device, then attach to what survived.

        Returns ``(store-or-None, report)`` — None when no valid manifest
        survived (nothing was ever committed).
        """
        from ..faults import FaultyStorageDevice  # local: optional layer

        if isinstance(device, FaultyStorageDevice):
            device.revive()
        manifest, report = Manifest.recover(device, deep=deep, metrics=metrics)
        store = cls.attach(device) if manifest is not None else None
        return store, report

    def _attach_engine(self, info: EpochInfo) -> QueryEngine:
        """Query engine over one committed epoch, reading the extents its
        manifest entry lists, aux tables reloaded from their sealed
        extents."""
        engine = QueryEngine(
            device=self.device,
            fmt=self.fmt,
            nranks=self.nranks,
            partitioner=HashPartitioner(self.nranks),
            epoch=info.epoch,
            files=info.files,
        )
        if self.fmt.name == "filterkv":
            for rank, name in enumerate(engine.aux_names):
                if name is None:
                    raise ValueError(f"epoch {info.epoch} lists no aux table for rank {rank}")
                blob = self.device.read(name, 0, self.device.file_size(name))
                engine.aux_tables[rank] = aux_from_blob(
                    unseal(blob), metric_labels={"rank": str(rank)}
                )
        return engine

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
        clear_epoch(self.device, epoch)  # what a failed write of this id left
        cluster = SimCluster(
            nranks=self.nranks,
            fmt=self.fmt,
            value_bytes=self.value_bytes,
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
        engine = self._engines[epoch] = cluster.query_engine()
        epoch_bytes = self.device.total_bytes_stored() - before
        self.manifest.add_epoch(
            EpochInfo(
                epoch=epoch,
                records=records,
                files=engine.files,
                bytes=epoch_bytes,
                aux_backend=cluster.aux_backends(),
            )
        )
        self.manifest.commit(self.device)
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
        """Live epoch holding ``epoch``'s rows.

        Identity for live epochs; epochs retired by compaction map to the
        merged epoch that absorbed them (which holds the newest-wins union
        of its sources, so no read is served through this mapping).
        Raises KeyError for ids never committed.
        """
        return self.manifest.resolve_epoch(int(epoch))

    def engine(self, epoch: int) -> QueryEngine:
        """The cold engine of live epoch ``epoch`` (one per live epoch).
        A retired id raises `EpochRetiredError`, an id never committed
        KeyError."""
        engine = self._engines.get(epoch)
        if engine is None:
            raise EpochRetiredError(epoch, self.resolve_epoch(epoch))
        return engine

    def mount(self, metrics=None, table_cache_entries: int = 0) -> EpochMount:
        """A reader session of the caller's own, for the caller to close."""
        return EpochMount(self, metrics, table_cache_entries)

    def get(self, key: int, epoch: int) -> tuple[bytes | None, QueryStats]:
        """Point query at one timestep (the paper's Fig. 11 query, with
        table metadata resident after each table's first open).  The
        epoch must be live: a retired id raises `EpochRetiredError`."""
        return self._reads.engine(epoch).get(key)

    def get_many(self, keys, epoch: int) -> tuple[list[bytes | None], list[QueryStats]]:
        """Bulk point queries at one timestep (block-coalesced read path)."""
        return self._reads.get_many(keys, epoch)

    def trajectory(self, key: int) -> list[tuple[int, bytes | None, QueryStats]]:
        """The key's value at every live epoch — a particle's trajectory.
        A compaction leaves one point for the epochs it merged.

        Served from the store's warm session: repeated trajectory calls
        reuse resident table metadata, loaded aux tables and cached data
        blocks instead of re-reading them on each call.
        """
        return [(e, *self._warm.engine(e).get(key)) for e in self.epochs]

    def lookup(
        self, key: int, cached: bool = True
    ) -> tuple[bytes | None, int | None, QueryStats]:
        """Newest value of ``key`` across all live epochs: `lookup_many` of
        one key, returning ``(value, epoch_found, aggregate_stats)``.

        Walks epochs newest-first with early stop — the read whose cost
        grows linearly with live epoch count, and exactly the view
        compaction preserves (first-write-wins, newest epoch first).  With
        ``cached=False`` the walk goes through the cold engines, so every
        probe opens partitions afresh (the paper's cold reader), which is
        what `tests/core/test_compaction.py` bounds compaction's read
        amplification by.
        """
        engine = self._warm.engine if cached else self.engine
        values, found, stats = _newest_first(self.epochs, engine, [key])
        return values[0], found[0], stats[0]

    def lookup_many(
        self, keys
    ) -> tuple[list[bytes | None], list[int | None], list[QueryStats]]:
        """Bulk `lookup` through the warm session (`EpochMount.lookup_many`),
        with each key's costs aggregated over the epochs it walked."""
        return self._warm.lookup_many(keys)

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
        may keep blocks of extents the sweep deleted: the store's own
        sessions drop theirs now, anyone else's `EpochMount` on its next
        use (the generation moved).
        """
        self.manifest = manifest
        for epoch in report.source_epochs:
            self._engines.pop(epoch, None)
        merged = next(e for e in manifest.epochs if e.epoch == report.merged_epoch)
        self._engines[merged.epoch] = self._attach_engine(merged)
        self.compactions += 1
        self._reads.close()
        self._warm.close()
        self.last_compaction = report

    # -- lifecycle ----------------------------------------------------------

    def close(self) -> None:
        """Drop the store's own views and the live epochs' resident table
        metadata (idempotent; later reads refill lazily)."""
        self._reads.close()
        self._warm.close()
        for engine in self._engines.values():  # in place: views share them
            engine.metas[:] = [None] * self.nranks
            engine.aux_charged.clear()

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
        return "\n".join(lines)
