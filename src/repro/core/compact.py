"""Online epoch compaction: k-way merge plus atomic manifest swap.

`MultiEpochStore` accumulates one sealed epoch per dump, and the
cross-epoch read path fans out over all of them — read amplification
grows linearly with epoch count (the scalability bug this module fixes;
PAPER.md §IV bounds per-query cost *within* an epoch, not across them).
`Compactor` merges k sealed epochs into one:

1. **Merge.**  Each source partition table streams out through
   `SSTableReader.scan_arrays`; chunks concatenate newest-epoch-first and
   `first_occurrence` keeps exactly the record the pre-compaction walk
   (newest epoch first, first hit wins) would have served.  FilterKV
   winners stay on the rank that originally wrote them, and a fresh aux
   table per owner partition is rebuilt from the surviving key→rank pairs
   and sealed.  Value logs are shared across epochs and are never
   rewritten — `dataptr` pointers in merged tables stay valid as-is.
2. **Swap.**  A single `Manifest.commit` publishes the merged epoch,
   retires the sources, and records the id mapping — one sealed
   generation append, atomic by construction.  Until it lands, every new
   extent is an orphan and the source epochs are untouched; a crash at
   any step reverts to the pre-compaction dataset and `Manifest.recover`
   sweeps the partial merge output.
3. **Sweep.**  Source extents no surviving epoch references are deleted;
   a crash before the sweep finishes leaves orphans for recovery.

Retired epoch ids remain addressable: the manifest's ``compacted``
mapping forwards them to the merged epoch (which serves the newest-wins
union view), and the ``next_epoch`` watermark guarantees ids are never
reused, so epoch-versioned caches can never alias.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from ..obs import active
from ..obs.trace import child_span, current_span
from ..storage.compact import (
    concat_values,
    first_occurrence,
    read_table_arrays,
    write_merged_table,
)
from ..storage.envelope import seal
from ..storage.manifest import EpochInfo, Manifest
from .auxtable import aux_to_blob, build_sealed_aux
from .pipeline import aux_table_name, main_table_name

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .multiepoch import MultiEpochStore

__all__ = [
    "CompactionPolicy",
    "CompactionReport",
    "Compactor",
    "MergeSpec",
    "produce_merged_epoch",
]


@dataclass(frozen=True)
class CompactionPolicy:
    """Size-tiered trigger: when too many epochs are live, merge the
    smallest ones first (they cost a walk step each but hold the least
    data, so merging them buys the biggest read-amplification cut per
    byte rewritten).
    """

    max_live_epochs: int = 4
    merge_factor: int = 8

    def __post_init__(self) -> None:
        if self.max_live_epochs < 2:
            raise ValueError(f"max_live_epochs must be >= 2, got {self.max_live_epochs}")
        if self.merge_factor < 2:
            raise ValueError(f"merge_factor must be >= 2, got {self.merge_factor}")

    def select(self, manifest: Manifest) -> list[int] | None:
        """Epoch ids to merge now, or None when the store is within bounds.

        Candidates are *adjacent in data-recency order* — first-write-wins
        merging is only sound for a contiguous run (skipping over a live
        epoch would fold older data on top of it).  Among the contiguous
        windows, the one holding the fewest bytes wins.
        """
        live = manifest.epochs  # already sorted oldest data first
        if len(live) < self.max_live_epochs:
            return None
        width = min(self.merge_factor, len(live))
        best = min(
            (live[i : i + width] for i in range(len(live) - width + 1)),
            key=lambda w: sum(e.bytes for e in w),
        )
        return sorted(e.epoch for e in best)


@dataclass
class CompactionReport:
    """What one compaction run merged, wrote, and reclaimed."""

    merged_epoch: int
    source_epochs: list[int]
    records_in: int
    records_out: int
    bytes_written: int
    bytes_reclaimed: int
    extents_removed: int
    generation: int

    def summary(self) -> str:
        return (
            f"compacted epochs {self.source_epochs} -> {self.merged_epoch} "
            f"(manifest generation {self.generation})\n"
            f"records: {self.records_in:,} in, {self.records_out:,} distinct out\n"
            f"bytes:   {self.bytes_written:,} written, "
            f"{self.bytes_reclaimed:,} reclaimed "
            f"({self.extents_removed} source extent(s) swept)"
        )


@dataclass(frozen=True)
class MergeSpec:
    """Everything the pure merge step needs: the k-way merge is a
    deterministic function of the source partition tables plus these
    parameters."""

    fmt: str
    nranks: int
    block_size: int
    seed: int
    merged: int
    newest_first: tuple[int, ...]
    aux_backends: tuple[str, ...] | None = None


def produce_merged_epoch(spec: MergeSpec, device, metrics=None) -> dict:
    """Run the merge described by ``spec`` against ``device``.

    Pure with respect to the manifest: reads the source partition tables,
    writes the merged epoch's ``part.*`` (and, for filterkv, ``aux.*``)
    extents, and returns ``{"records_out", "aux_backends"}``.  Publishing
    the result — manifest swap, sweep, compaction counters — stays with
    `Compactor.publish`.
    """
    metrics = active(metrics)
    if spec.fmt == "filterkv":
        records_out, aux_backends = _merge_filterkv(spec, device, metrics)
    else:
        records_out, aux_backends = _merge_direct(spec, device), set()
    return {"records_out": records_out, "aux_backends": aux_backends}


def _merge_direct(spec: MergeSpec, device) -> int:
    """base/dataptr: partitions are hash-assigned, so each rank's
    merged table depends only on that rank's source tables."""
    records_out = 0
    for rank in range(spec.nranks):
        if current_span() is None:
            records_out += _merge_one_rank(spec, device, rank)
        else:
            with child_span("compact.merge", rank=rank):
                records_out += _merge_one_rank(spec, device, rank)
    return records_out


def _merge_one_rank(spec: MergeSpec, device, rank: int) -> int:
    key_chunks: list[np.ndarray] = []
    val_chunks: list[np.ndarray] = []
    for epoch in spec.newest_first:
        keys, values = read_table_arrays(device, main_table_name(epoch, rank))
        key_chunks.append(keys)
        val_chunks.append(values)
    keys = np.concatenate(key_chunks)
    winners = first_occurrence(keys)
    write_merged_table(
        device,
        main_table_name(spec.merged, rank),
        keys[winners],
        concat_values(val_chunks)[winners],
        spec.block_size,
    )
    return int(winners.size)


def _merge_filterkv(spec: MergeSpec, device, metrics) -> tuple[int, set[str]]:
    """filterkv: data stays on the rank that wrote it, so winners are
    chosen globally — first occurrence in (recency desc, rank asc)
    order, the same precedence as the pre-compaction probe walk — then
    scattered back to their source ranks and indexed by fresh aux
    tables on the hash owners."""
    merged = spec.merged
    key_chunks: list[np.ndarray] = []
    val_chunks: list[np.ndarray] = []
    rank_chunks: list[np.ndarray] = []
    for epoch in spec.newest_first:
        for rank in range(spec.nranks):
            keys, values = read_table_arrays(device, main_table_name(epoch, rank))
            key_chunks.append(keys)
            val_chunks.append(values)
            rank_chunks.append(np.full(keys.size, rank, dtype=np.int64))
    keys = np.concatenate(key_chunks)
    ranks = np.concatenate(rank_chunks)
    winners = first_occurrence(keys)
    wkeys = keys[winners]
    wranks = ranks[winners]
    wvalues = concat_values(val_chunks)[winners]

    for rank in range(spec.nranks):
        sel = np.flatnonzero(wranks == rank)
        if current_span() is None:
            _write_filterkv_rank(spec, device, rank, wkeys, wvalues, sel)
        else:
            with child_span("compact.merge", rank=rank):
                _write_filterkv_rank(spec, device, rank, wkeys, wvalues, sel)

    # Fresh aux tables on the hash owners, seeded exactly as an
    # ingest-time epoch would be (store seed + epoch + rank), then
    # sealed — torn blobs are detected at recovery like any other.
    # The merged epoch walks the store's backend tuple again on its
    # (merged, deduplicated) key set; mixed-backend source epochs thus
    # converge on one backend after compaction.
    from .formats import FORMATS
    from .partitioning import HashPartitioner

    owners = HashPartitioner(spec.nranks).partition_of(wkeys)
    sels = (np.flatnonzero(owners == part) for part in range(spec.nranks))
    tables = build_sealed_aux(
        ((part, wkeys[sel], wranks[sel].astype(np.uint64)) for part, sel in enumerate(sels)),
        nparts=spec.nranks,
        backends=spec.aux_backends or (FORMATS[spec.fmt].aux_backend or "cuckoo",),
        seed=spec.seed + merged,
        metrics=metrics,
    )
    for part, aux in enumerate(tables):
        aux.record_structure_metrics()
        blob = seal(aux_to_blob(aux))
        with device.open(aux_table_name(merged, part), create=True) as f:
            f.append(blob)
    return int(wkeys.size), {aux.backend for aux in tables}


def _write_filterkv_rank(
    spec: MergeSpec,
    device,
    rank: int,
    wkeys: np.ndarray,
    wvalues: np.ndarray,
    sel: np.ndarray,
) -> None:
    write_merged_table(
        device,
        main_table_name(spec.merged, rank),
        wkeys[sel],
        wvalues[sel],
        spec.block_size,
    )


class Compactor:
    """Merges sealed epochs of one store's dataset.

    Operates on the device and a *copy* of the manifest; the store's
    in-memory state is untouched until `run` returns, so a crash (or
    exception) mid-merge leaves the caller exactly where it started.

    `run` is validate → prepare → produce → publish.
    """

    def __init__(self, store: "MultiEpochStore"):
        self.store = store
        self.device = store.device
        self.metrics = active(store.device.metrics)

    def validate(self, epochs: list[int]) -> list[int]:
        """Normalize and sanity-check the source epoch set."""
        epochs = sorted(set(int(e) for e in epochs))
        if len(epochs) < 2:
            raise ValueError(f"compaction needs >= 2 source epochs, got {epochs}")
        live = set(self.store.manifest.epoch_ids)
        missing = [e for e in epochs if e not in live]
        if missing:
            raise KeyError(f"cannot compact non-live epochs {missing} (have {sorted(live)})")
        # First-write-wins merging is only sound for a run that is
        # contiguous in data-recency order: a live epoch sitting *between*
        # two sources would be shadowed by older data folded above it.
        ordered = [e.epoch for e in self.store.manifest.epochs]
        picked = [i for i, e in enumerate(ordered) if e in set(epochs)]
        if picked[-1] - picked[0] + 1 != len(picked):
            skipped = [ordered[i] for i in range(picked[0], picked[-1]) if ordered[i] not in set(epochs)]
            raise ValueError(
                f"source epochs {epochs} are not adjacent in recency order "
                f"(live epoch(s) {skipped} sit between them)"
            )
        return epochs

    def prepare(self, epochs: list[int]) -> tuple[Manifest, MergeSpec]:
        """A private manifest copy (the live one keeps serving and must
        stay pristine if anything later raises) plus the merge spec."""
        store = self.store
        working = Manifest.from_bytes(store.manifest.to_bytes())
        order_of = {e.epoch: e.order for e in working.epochs}
        spec = MergeSpec(
            fmt=store.fmt.name,
            nranks=store.nranks,
            block_size=store.block_size,
            seed=store.seed,
            merged=working.next_epoch,
            newest_first=tuple(
                sorted(epochs, key=lambda e: order_of[e], reverse=True)
            ),
            aux_backends=store.aux_backends,
        )
        return working, spec

    def run(self, epochs: list[int]) -> tuple[Manifest, CompactionReport]:
        """Merge ``epochs``; returns the swapped-in manifest and a report."""
        epochs = self.validate(epochs)
        if current_span() is None:  # untraced: skip span-argument setup
            return self._run(epochs)
        with child_span("compact.run", epochs=len(epochs)):
            return self._run(epochs)

    def _run(self, epochs: list[int]) -> tuple[Manifest, CompactionReport]:
        working, spec = self.prepare(epochs)
        bytes_before = self.device.total_bytes_stored()
        produced = produce_merged_epoch(spec, self.device, self.metrics)
        bytes_written = self.device.total_bytes_stored() - bytes_before
        return self.publish(working, spec, produced, bytes_written)

    def publish(
        self,
        working: Manifest,
        spec: MergeSpec,
        produced: dict,
        bytes_written: int,
    ) -> tuple[Manifest, CompactionReport]:
        """Commit a produced merge: manifest swap, source sweep, counters.

        ``working``/``spec`` come from `prepare`; ``produced`` from
        `produce_merged_epoch`.
        """
        store = self.store
        merged = spec.merged
        epochs = sorted(spec.newest_first)
        records_out = produced["records_out"]
        order_of = {e.epoch: e.order for e in working.epochs}

        files = [
            n
            for n in self.device.list_files()
            if n.startswith((f"part.{merged:03d}.", f"aux.{merged:03d}."))
        ]
        if store.fmt.name == "dataptr":
            # Merged pointers still dereference into the shared value logs;
            # the merged epoch must reference them or the recovery sweep
            # would reclaim them once the source epochs retire.
            files.extend(n for n in self.device.list_files() if n.startswith("vlog."))

        retired_infos = [working.remove_epoch(e) for e in epochs]
        records_in = sum(info.records for info in retired_infos)
        working.add_epoch(
            EpochInfo(
                epoch=merged,
                records=records_out,
                files=tuple(sorted(files)),
                bytes=bytes_written,
                # The merged data is only as recent as its newest source:
                # it must sit where that source sat in the read walk, not
                # at the front where its fresh id would put it.
                order=max(order_of[e] for e in epochs),
                aux_backend=",".join(sorted(produced["aux_backends"])) or None,
            )
        )
        working.note_compaction(epochs, merged)

        # The swap: one sealed generation append.  Crash before it lands ->
        # the old manifest wins and the merge output above is orphaned.
        if current_span() is None:
            generation = working.commit(self.device)
        else:
            with child_span("compact.swap", merged=merged):
                generation = working.commit(self.device)

        # Source extents nothing live references any more.  A crash in this
        # loop leaves orphans that `Manifest.recover` sweeps.
        keep: set[str] = set()
        for info in working.epochs:
            keep.update(info.files)
        dead = sorted(
            name
            for info in retired_infos
            for name in info.files
            if name not in keep
        )
        bytes_reclaimed = 0
        removed = 0
        for name in set(dead):
            if self.device.exists(name):
                bytes_reclaimed += self.device.file_size(name)
                self.device.delete(name)
                removed += 1

        self.metrics.counter("compaction.runs").inc()
        self.metrics.counter("compaction.epochs_retired").inc(len(epochs))
        self.metrics.counter("compaction.records_in").inc(records_in)
        self.metrics.counter("compaction.records_out").inc(records_out)
        self.metrics.counter("compaction.bytes_written").inc(bytes_written)
        self.metrics.counter("compaction.bytes_reclaimed").inc(bytes_reclaimed)
        self.metrics.histogram("compaction.fan_in").observe(len(epochs))

        report = CompactionReport(
            merged_epoch=merged,
            source_epochs=epochs,
            records_in=records_in,
            records_out=records_out,
            bytes_written=bytes_written,
            bytes_reclaimed=bytes_reclaimed,
            extents_removed=removed,
            generation=generation,
        )
        return working, report
