"""Online epoch compaction: k-way merge plus atomic manifest swap.

`MultiEpochStore` accumulates one sealed epoch per dump, and the
cross-epoch read path fans out over all of them — read amplification
grows linearly with epoch count (the scalability bug this module fixes;
PAPER.md §IV bounds per-query cost *within* an epoch, not across them).
`Compactor` merges k sealed epochs into one:

1. **Merge.**  Each source partition table (named by its epoch's
   manifest entry) streams out through `SSTableReader.scan_arrays`, every
   key group's CRC-32 checked; chunks concatenate newest-epoch-first and
   `first_occurrence` keeps exactly the record the pre-compaction walk
   (newest epoch first, first hit wins) would have served.  Winners stay
   on the rank that originally wrote them.  Each output rank table, and
   for FilterKV each owner partition's aux table, is then *adopted* from
   a source whose extent already holds exactly its rows, or *written*
   fresh (`produce_merged_epoch` states the rule; there is no knob).
   Value logs are shared across epochs and are never rewritten —
   `dataptr` pointers in merged tables stay valid as-is.
2. **Swap.**  A single `Manifest.commit` publishes the merged epoch,
   retires the sources, and records the id mapping — one sealed
   generation append, atomic by construction.  Until it lands, every new
   extent is an orphan and the source epochs are untouched; a crash at
   any step reverts to the pre-compaction dataset and `Manifest.recover`
   sweeps the partial merge output.
3. **Sweep.**  Source extents no surviving epoch lists are deleted (an
   adopted one is listed by the merged epoch, so it stays); a crash
   before the sweep finishes leaves orphans for recovery.

A ``part.``/``aux.`` extent belongs to at most one *live* epoch: it is
listed by the epoch that wrote it until a merge retires that epoch and
lists it instead.  So its name may carry a retired epoch's id, and every
reader takes names from ``EpochInfo.files`` (`pipeline.rank_extents`).

A retired epoch id is refused, not forwarded: a read of it raises
`EpochRetiredError` naming the merged epoch, because the merged epoch's
newest-wins union would answer an overwritten key with a later
timestep's value.  `MultiEpochStore.resolve_epoch` and the manifest's
``compacted`` mapping still map the id to the merged epoch that absorbed
it, and the ``next_epoch`` watermark guarantees ids are never reused, so
epoch-versioned caches can never alias.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from ..obs import active
from ..storage.envelope import seal
from ..storage.manifest import EpochInfo, Manifest
from ..storage.sstable import SSTableReader, SSTableWriter, concat_values
from . import auxtable
from .auxtable import aux_to_blob, build_sealed_aux
from .partitioning import HashPartitioner
from .pipeline import (
    aux_table_name,
    clear_epoch,
    epoch_files,
    main_table_name,
    table_bloom_bits,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .multiepoch import MultiEpochStore
    from .reader import QueryEngine

__all__ = [
    "CompactionPolicy",
    "CompactionReport",
    "Compactor",
    "produce_merged_epoch",
]


@dataclass(frozen=True)
class CompactionPolicy:
    """Trigger: once ``max_live_epochs`` epochs are live, merge the
    contiguous window of ``min(merge_factor, live)`` epochs that holds the
    fewest bytes (`select`).  When the live count is at most
    ``merge_factor`` that window is every live epoch, big run included; a
    tiering rule that leaves a big run alone is ROADMAP item 4(a).
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
    bytes_written: int  # new bytes only: adopted extents are not rewritten
    bytes_reclaimed: int
    extents_removed: int
    generation: int
    extents_out: int  # output tables and aux partitions, adopted or written
    extents_adopted: int
    bytes_adopted: int

    def summary(self) -> str:
        return (
            f"compacted epochs {self.source_epochs} -> {self.merged_epoch} "
            f"(manifest generation {self.generation})\n"
            f"records: {self.records_in:,} in, {self.records_out:,} distinct out\n"
            f"bytes:   {self.bytes_written:,} written, "
            f"{self.bytes_reclaimed:,} reclaimed "
            f"({self.extents_removed} source extent(s) swept)\n"
            f"adopted {self.extents_adopted} of {self.extents_out} extent(s) "
            f"({self.bytes_adopted:,} bytes) from source epochs"
        )


def first_occurrence(keys: np.ndarray) -> np.ndarray:
    """Winning row per distinct key under first-write-wins.

    Returns indices (in ascending key order) of the *first* occurrence of
    each key in ``keys``.  Feed it concatenated chunks ordered newest epoch
    first and the survivors are precisely what the multi-epoch walk serves:
    the stable argsort keeps equal keys in input order, so position in the
    concatenation is the tiebreak.
    """
    if keys.size == 0:
        return np.zeros(0, dtype=np.int64)
    order = np.argsort(keys, kind="stable")
    sorted_keys = keys[order]
    firsts = np.flatnonzero(np.r_[True, sorted_keys[1:] != sorted_keys[:-1]])
    return order[firsts]


def produce_merged_epoch(
    store: "MultiEpochStore", sources: "list[QueryEngine]", merged: int
) -> tuple[int, list[str], list[str]]:
    """Write epoch ``merged`` of ``store``'s device as the merge of
    ``sources``, the source epochs' cold engines, newest data first: their
    ``table_names`` / ``aux_names`` are the extents each epoch lists.

    Pure with respect to the manifest: reads every source partition table
    whole (each key group's CRC-32 verified), writes the merged epoch's
    ``part.*`` (and, for filterkv, ``aux.*``) extents that it cannot
    adopt, and returns ``(records_out, written, adopted)``, the last two
    lists of extent names.  Publishing the result (manifest
    swap, sweep, compaction counters) stays with `Compactor.run`.

    One merge serves every format.  Winners are chosen globally — first
    occurrence in (recency desc, rank asc) order, the same precedence as
    the pre-compaction probe walk — and written back to the rank that
    held them: filterkv data stays on the rank that wrote it, and a
    base/dataptr key only ever lives on its hash partition.

    Each output extent is adopted or written, decided from the winners'
    sources alone:

    * rank ``r``'s table is a source's rank-``r`` table when that table is
      the rank's only contributor and every one of its rows wins — the
      output's rows are then that table's rows, in the same order;
    * aux partition ``p`` is a source's partition-``p`` aux extent when
      every winner the partition owns comes from that source and their
      count equals the source's rows the partition owns — the key→rank
      map is then that source's, down to the rank each key sits on.

    An adopted extent is one the merge has just read whole and verified
    (an aux blob through its engine's decode at attach), and keeps the
    filter block it was written with; a written table carries the one
    ingest would give it (`table_bloom_bits`: none in a store's filterkv
    epoch), and a written aux partition is the store's csf
    (`auxtable.STORE_AUX_BACKEND`), whatever its sources sealed.  Values
    are gathered only when some table is written.
    """
    device = store.device
    n, k = store.nranks, len(sources)
    key_chunks: list[np.ndarray] = []
    val_chunks: list[np.ndarray] = []
    for source in sources:
        for name in source.table_names:
            # A reader that keeps no block: each one is fetched once.
            keys, values = SSTableReader(device, name).scan_arrays()
            key_chunks.append(keys)
            val_chunks.append(values)
    sizes = np.array([c.size for c in key_chunks], dtype=np.int64)
    keys = np.concatenate(key_chunks)
    chunk = np.repeat(np.arange(k * n), sizes)  # source * n + rank of each row
    winners = first_occurrence(keys)
    wkeys = keys[winners]
    wchunk = chunk[winners]
    wranks = wchunk % n
    won = np.bincount(wchunk, minlength=k * n).reshape(k, n)  # winners per table

    written: list[str] = []
    adopted: list[str] = []
    wvalues = None
    backend = auxtable.STORE_AUX_BACKEND  # what ingest seals
    bloom_bits = table_bloom_bits(store.fmt.name, backend)
    for rank in range(n):
        src = _sole_source(won[:, rank])
        if src >= 0 and won[src, rank] == sizes[src * n + rank]:
            adopted.append(sources[src].table_names[rank])
            continue
        if wvalues is None:
            wvalues = concat_values(val_chunks)[winners]
        sel = np.flatnonzero(wranks == rank)
        name = main_table_name(merged, rank)
        # Written even when empty: every rank must own a table in the
        # merged epoch, because aux false positives can name any rank and
        # the direct formats open tables unconditionally.
        writer = SSTableWriter(
            device, name, block_size=store.block_size, bloom_bits_per_key=bloom_bits
        )
        if sel.size:
            writer.add_many(wkeys[sel], wvalues[sel])
        writer.finish()
        written.append(name)
    produced = (int(wkeys.size), written, adopted)
    if store.fmt.name != "filterkv":
        return produced

    owners = HashPartitioner(n).partition_of(keys)
    held = np.bincount(chunk // n * n + owners, minlength=k * n).reshape(k, n)
    wowners = owners[winners]
    owned = np.bincount(wchunk // n * n + wowners, minlength=k * n).reshape(k, n)
    build: list[int] = []
    for part in range(n):
        src = _sole_source(owned[:, part])
        if src >= 0 and owned[src, part] == held[src, part]:
            adopted.append(sources[src].aux_names[part])
        else:
            build.append(part)
    if not build:
        return produced
    # Fresh aux tables on the hash owners, seeded exactly as an
    # ingest-time epoch would be (store seed + epoch + rank), then
    # sealed — torn blobs are detected at recovery like any other.
    sels = [np.flatnonzero(wowners == part) for part in build]
    tables = build_sealed_aux(
        ((part, wkeys[sel], wranks[sel].astype(np.uint64)) for part, sel in zip(build, sels)),
        nparts=n,
        backend=backend,
        seed=store.seed + merged,
        metrics=active(device.metrics),
    )
    for part, aux in zip(build, tables):
        aux.record_structure_metrics()
        name = aux_table_name(merged, part)
        device.create(name)
        device.append(name, seal(aux_to_blob(aux)))
        written.append(name)
    return produced


def _sole_source(counts: np.ndarray) -> int:
    """The one source with a nonzero count, or -1 (none, or several)."""
    nonzero = np.flatnonzero(counts)
    return int(nonzero[0]) if nonzero.size == 1 else -1


class Compactor:
    """Merges sealed epochs of one store's dataset.

    Operates on the device and a *copy* of the manifest; the store's
    in-memory state is untouched until `run` returns, so a crash (or
    exception) mid-merge leaves the caller exactly where it started.
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

    def run(self, epochs: list[int]) -> "tuple[Manifest, CompactionReport, QueryEngine]":
        """Merge ``epochs``; returns the swapped-in manifest, a report and
        the merged epoch's engine."""
        epochs = self.validate(epochs)
        store = self.store
        # A private manifest copy: the live one keeps serving and must stay
        # pristine if anything below raises.
        working = store.manifest.copy()
        order_of = {e.epoch: e.order for e in working.epochs}
        merged = working.next_epoch
        sources = [store.engine(e) for e in sorted(epochs, key=order_of.get, reverse=True)]
        clear_epoch(self.device, merged)  # what a failed merge left
        bytes_before = self.device.total_bytes_stored()
        records_out, written, adopted = produce_merged_epoch(store, sources, merged)
        bytes_written = self.device.total_bytes_stored() - bytes_before
        bytes_adopted = sum(self.device.file_size(name) for name in adopted)

        # The merged epoch lists what it wrote, what it adopted from its
        # sources, and for dataptr the shared value logs its pointers
        # still dereference into (or the recovery sweep would reclaim
        # them once the source epochs retire).
        files = {*epoch_files(self.device, merged, store.fmt), *adopted}

        retired_infos = [working.remove_epoch(e) for e in epochs]
        records_in = sum(info.records for info in retired_infos)
        merged_info = EpochInfo(
            epoch=merged,
            records=records_out,
            files=tuple(sorted(files)),
            # Every byte the epoch lists, written or adopted: what
            # `CompactionPolicy.select` weighs and `describe` shows.
            bytes=bytes_written + bytes_adopted,
            # The merged data is only as recent as its newest source:
            # it must sit where that source sat in the read walk, not
            # at the front where its fresh id would put it.
            order=max(order_of[e] for e in epochs),
        )
        working.add_epoch(merged_info)
        working.note_compaction(epochs, merged)
        # The merged epoch's engine, its aux tables read back from what
        # the epoch lists, before anything commits: a failed read leaves
        # the merge an orphan.
        engine = store._attach_engine(merged_info)

        # The swap: one sealed generation append.  Crash before it lands ->
        # the old manifest wins and the merge output above is orphaned.
        generation = working.commit(self.device)

        # Source extents nothing live references any more.  A crash in this
        # loop leaves orphans that `Manifest.recover` sweeps.
        keep: set[str] = set()
        for info in working.epochs:
            keep.update(info.files)
        dead = sorted({name for info in retired_infos for name in info.files} - keep)
        bytes_reclaimed = 0
        removed = 0
        for name in dead:
            if self.device.exists(name):
                bytes_reclaimed += self.device.file_size(name)
                self.device.delete(name)
                removed += 1

        self.metrics.counter("compaction.runs").inc()
        self.metrics.counter("compaction.epochs_retired").inc(len(epochs))
        self.metrics.counter("compaction.records_in").inc(records_in)
        self.metrics.counter("compaction.records_out").inc(records_out)
        self.metrics.counter("compaction.bytes_written").inc(bytes_written)
        self.metrics.counter("compaction.extents_adopted").inc(len(adopted))
        self.metrics.counter("compaction.bytes_adopted").inc(bytes_adopted)
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
            extents_out=len(written) + len(adopted),
            extents_adopted=len(adopted),
            bytes_adopted=bytes_adopted,
        )
        return working, report, engine
