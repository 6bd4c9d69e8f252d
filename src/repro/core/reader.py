"""The read path: point queries over a persisted, partitioned dataset.

Fig. 11 compares the cost of three query flows.  Here they are one flow,
`QueryEngine.get_many` (`get` is it for one key), which differs by format
only in where a key's candidate partitions come from and what a hit holds:

* **base** — the key's owner partition is its one candidate: open that
  partition's table (footer + index + filter reads), read the candidate
  data block(s).
* **dataptr** — same, but the stored value is a 12-byte pointer, so one
  extra read recovers the value from the writer's log (the paper's
  "one extra read operation per query").
* **filterkv** — read the owner's *auxiliary table* first; its candidate
  source partitions' main tables are probed in ascending order until the
  key is found.  False positives cost extra partition probes (1.88
  partitions/query in the paper's runs).  A store's main tables carry no
  Bloom filter block (its csf aux guard is the key's one filter), so a
  probe goes from the aux table straight to the table's index.  An
  epoch's aux tables are read as one (`EpochAux`): a read step probes all
  its keys, whatever their owners, in one call (for a store's csf epoch,
  one hash and one gather), while the aux fetch is still charged once
  per owner.

Every read is charged to the `StorageDevice`, and `QueryStats` breaks the
cost down by the same categories as Fig. 11b/c: footer, index, aux table,
data blocks, and value log.  A call accumulates into one `ReadBatch`, a
newest-first walk over several epochs included, and builds its keys'
`QueryStats` once, at the end.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import islice

import numpy as np

from ..obs import NULL_REGISTRY, MetricsRegistry, active, child_span, current_span
from ..storage.blockio import StorageDevice
from ..storage.log import DataPointer, ValueLog
from ..storage.sstable import (
    BLOCK_CACHE_BLOCKS,
    FOOTER_BYTES,
    BlockCache,
    SSTableReader,
    TableMeta,
)
from .auxtable import AuxTable, EpochAux
from .formats import FormatSpec
from .partitioning import HashPartitioner
from .pipeline import rank_extents

__all__ = ["QueryEngine", "QueryStats", "ReadBatch"]

# Tables' worth of data blocks (`BLOCK_CACHE_BLOCKS` each) a warm view
# keeps unless its owner says otherwise (the store's warm mount,
# `QueryService`).
TABLE_CACHE_ENTRIES = 64


@dataclass
class QueryStats:
    """Cost accounting for one point query (Fig. 11's three panels)."""

    found: bool = False
    latency: float = 0.0
    reads: int = 0
    bytes_read: int = 0
    partitions_searched: int = 0
    breakdown_reads: dict = field(default_factory=dict)
    breakdown_bytes: dict = field(default_factory=dict)


class _Cost:
    """What one read step charged one lead key: reads and bytes by
    category, and the device time they took."""

    __slots__ = ("latency", "reads", "nbytes")

    def __init__(self):
        self.latency = 0.0
        self.reads: dict[str, int] = {}
        self.nbytes: dict[str, int] = {}


class ReadBatch:
    """One read call's accumulator: `QueryEngine.get_many` of one epoch
    fills it in one step, a newest-first walk over several epochs
    (`multiepoch._newest_first`) in one step per epoch.

    It holds the call's keys and their owner partitions (hashed once per
    call), each key's value and partitions searched so far, and the
    charges of the keys that led a shared read.  ``at`` is the positions
    the current step reads (None: every key).  A step's charges are folded
    into the call's when the step ends, so a key's latency is the sum of
    its per-epoch latencies.  `stats` builds the call's `QueryStats` once.
    """

    __slots__ = ("keys", "owners", "values", "searched", "at", "costs", "step")

    def __init__(self, keys: np.ndarray, owners: np.ndarray):
        self.keys = keys
        self.owners = owners
        self.values: list[bytes | None] = [None] * keys.size
        self.searched = [0] * keys.size
        self.at: list[int] | None = None
        self.costs: dict[int, _Cost] = {}  # the call's, by lead position
        self.step: dict[int, _Cost] = {}  # the current step's

    def charge(self, pos: int, category: str, reads: int, nbytes: int, seconds: float) -> None:
        """Charge key ``pos`` one read of the current step."""
        cost = self.step.get(pos)
        if cost is None:
            cost = self.step[pos] = _Cost()
        cost.reads[category] = cost.reads.get(category, 0) + reads
        cost.nbytes[category] = cost.nbytes.get(category, 0) + nbytes
        cost.latency += seconds

    def charge_since(self, pos: int, category: str, counters, mark) -> None:
        """Charge key ``pos`` what the device ``counters`` counted since
        ``mark`` (`_mark` of them before the read): three integer deltas,
        no counter snapshot."""
        reads, nbytes, seconds = mark
        self.charge(
            pos, category, counters.reads - reads, counters.bytes_read - nbytes,
            counters.read_time - seconds,
        )

    def end_step(self) -> dict[int, _Cost]:
        """Fold the current step's charges into the call's; returns them."""
        step, self.step = self.step, {}
        costs = self.costs
        for pos, cost in step.items():
            total = costs.get(pos)
            if total is None:
                costs[pos] = cost
                continue
            total.latency += cost.latency
            for cat, n in cost.reads.items():
                total.reads[cat] = total.reads.get(cat, 0) + n
            for cat, n in cost.nbytes.items():
                total.nbytes[cat] = total.nbytes.get(cat, 0) + n
        return step

    def stats(self) -> list[QueryStats]:
        """Each key's `QueryStats` for the whole call."""
        out = [
            QueryStats(v is not None, 0.0, 0, 0, s, {}, {})
            for v, s in zip(self.values, self.searched)
        ]
        for pos, cost in self.costs.items():
            st = out[pos]
            st.latency = cost.latency
            st.reads = sum(cost.reads.values())
            st.bytes_read = sum(cost.nbytes.values())
            st.breakdown_reads = cost.reads
            st.breakdown_bytes = cost.nbytes
        return out


def _mark(counters) -> tuple[int, int, float]:
    """A device's read counters before a read, for `ReadBatch.charge_since`."""
    return counters.reads, counters.bytes_read, counters.read_time


class QueryEngine:
    """Point-query executor over one epoch's persisted output.

    ``files`` are the extents the epoch lists (its manifest entry's
    ``EpochInfo.files``), resolved once here into the per-rank
    ``table_names`` and ``aux_names`` every read opens: after a merge an
    epoch may serve a table or aux extent named for a retired epoch.

    Built directly, this is the paper's cold reader: every query opens its
    partitions afresh (footer + index reads), re-fetches the owner's aux
    table, and fetches whole data blocks that nobody keeps.  It also owns
    the epoch's resident state, which the cold reader never reads: one
    verified `TableMeta` slot per rank (``metas``) and the owners whose
    aux fetch has been charged (``aux_charged``).  `warm` hands out views
    that share that state and fill it on their first reads.  A filterkv
    engine also builds its epoch's aux once (``aux``, an `EpochAux`),
    which its views share and every read step probes once.
    A reader reads by name and opens nothing, so an engine builds one per
    table per call and has nothing to close.
    """

    def __init__(
        self,
        device: StorageDevice,
        fmt: FormatSpec,
        nranks: int,
        partitioner: HashPartitioner,
        epoch: int,
        files: tuple[str, ...],
        aux_tables: list[AuxTable | None] | None = None,
        metrics: MetricsRegistry | None = None,
    ):
        self.device = device
        self.fmt = fmt
        self.nranks = nranks
        self.partitioner = partitioner
        self.aux_tables = aux_tables or [None] * nranks
        # The epoch's tables as one, probed once per read step.
        self.aux = EpochAux.over(self.aux_tables) if fmt.name == "filterkv" else None
        self.epoch = epoch
        self.files = tuple(files)
        self.table_names, self.aux_names = rank_extents(self.files, nranks)
        self.metrics = active(metrics)
        self.metas: list[TableMeta | None] = [None] * nranks
        self.aux_charged: set[int] = set()
        # The three fetch rules follow from this: none (the cold reader),
        # whole blocks kept by nobody (Fig. 11b/c counts them); a cache,
        # whole blocks kept in it; a 0-block cache, only the key groups a
        # call decodes.
        self.block_cache: BlockCache | None = None
        fmtl = {"format": fmt.name}
        self._m_queries = self.metrics.counter("reader.queries", **fmtl)
        self._m_hits = self.metrics.counter("reader.hits", **fmtl)
        self._m_partitions = self.metrics.counter("reader.partitions_probed", **fmtl)
        self._m_candidates = self.metrics.counter("reader.candidates", **fmtl)
        self._m_amp = self.metrics.histogram("reader.read_amplification", **fmtl)
        self._m_batch_keys = self.metrics.counter("reader.batch_keys", **fmtl)
        self._m_batch_blocks = self.metrics.histogram("reader.batch_blocks_decoded", **fmtl)
        self._m_batch_coalesce = self.metrics.histogram(
            "reader.batch_coalescing_ratio", **fmtl
        )
        # `reader.storage_reads` / `reader.bytes_read` by category, each
        # looked up on its first charge.
        self._m_by_category: dict[str, tuple] = {}

    def warm(self, metrics: MetricsRegistry | None, table_cache_entries: int) -> "QueryEngine":
        """A view of this epoch that keeps what it reads: it shares the
        epoch's aux tables (and ``aux``, read as one), ``metas`` and
        ``aux_charged``, so a table's metadata is read and verified once by
        whichever view opens it first, and owns a `BlockCache` of
        ``BLOCK_CACHE_BLOCKS × table_cache_entries`` blocks, shared by
        every reader it builds.  At 0 (the store's `get` / `get_many`) it
        keeps no block and its readers fetch only the key groups a call
        decodes; above 0 (warm mounts, `QueryService`, fleet shards) it
        keeps whole blocks between calls.
        """
        view = QueryEngine(
            self.device, self.fmt, self.nranks, self.partitioner,
            self.epoch, self.files, None, metrics,
        )
        view.aux_tables, view.aux = self.aux_tables, self.aux
        view.metas, view.aux_charged = self.metas, self.aux_charged
        view.block_cache = BlockCache(
            BLOCK_CACHE_BLOCKS * table_cache_entries, self.device.metrics
        )
        return view

    # -- helpers -----------------------------------------------------------

    def _open_table(self, rank: int, batch: ReadBatch, lead: int) -> SSTableReader:
        """Open a partition table, charging footer vs index to ``lead``.

        A view serves a resident meta with no device read and charges
        nothing.  Any other open charges exactly what it read, and a view's
        leaves the verified meta in the epoch's slot (a failed open leaves
        nothing).
        """
        name = self.table_names[rank]
        cache = self.block_cache
        meta = self.metas[rank] if cache is not None else None
        if meta is not None:
            return SSTableReader(self.device, name, meta, cache)
        reads, nbytes, seconds = _mark(self.device.counters)
        reader = SSTableReader(self.device, name, cache=cache)
        # The footer is one read of its fixed size; the rest is the index.
        batch.charge(lead, "footer", 1, FOOTER_BYTES, 0.0)
        mark = (reads + 1, nbytes + FOOTER_BYTES, seconds)
        batch.charge_since(lead, "index", self.device.counters, mark)
        if cache is not None:
            self.metas[rank] = reader.meta
        return reader

    def _charge_aux(self, owner: int, batch: ReadBatch, lead: int) -> None:
        """Fetch the owner partition's auxiliary table bytes, charged to
        ``lead``.

        The reader fetches the partition's entire aux table (the paper
        reads ~18 MB per query), then resolves candidates in memory.
        The tables are already decoded, so the read is accounting only:
        an epoch's views pay it once per owner between them.
        """
        warm = self.block_cache is not None
        if warm and owner in self.aux_charged:
            return
        if current_span() is None:  # untraced: skip span-argument setup
            self._fetch_aux(batch, lead, owner)
        else:
            with child_span("aux.fetch", partition=owner):
                self._fetch_aux(batch, lead, owner)
        if warm:
            self.aux_charged.add(owner)

    def _fetch_aux(self, batch: ReadBatch, lead: int, owner: int) -> None:
        name = self.aux_names[owner]
        mark = _mark(self.device.counters)
        self.device.read(name, 0, self.device.file_size(name))
        batch.charge_since(lead, "aux", self.device.counters, mark)

    # -- the read flow -------------------------------------------------------

    def get(self, key: int) -> tuple[bytes | None, QueryStats]:
        """Point lookup, `get_many` of one key; returns (value-or-None,
        cost accounting)."""
        values, stats = self.get_many(np.asarray([key], dtype=np.uint64))
        return values[0], stats[0]

    @staticmethod
    def _groups(values) -> list[tuple[int, list[int]]]:
        """``(value, positions)`` for each distinct value, ascending.

        ``positions`` keeps the original relative order within each group,
        so "first key of a group" is deterministic.  Plain lists: the
        bookkeeping is per key anyway, and a one-key read pays no array
        round trip for it.
        """
        groups: dict[int, list[int]] = {}
        for p, v in enumerate(values):
            groups.setdefault(v, []).append(p)
        return sorted(groups.items())

    def get_many(self, keys, batch: ReadBatch | None = None):
        """Point lookups, the one read flow (`get` is this of one key).

        Every key walks its candidate ranks in ascending order, stopping at
        the first hit: the owner alone for base and dataptr, the owner's
        aux-table candidates for filterkv.  So ``found``, per-key
        ``partitions_searched`` and the aux-table probe/candidate counters
        are those of answering each key on its own.  What a batch shares
        is the physical plan: the aux tables are probed once (one
        `EpochAux` call), each
        partition table (and value log) is opened once per batch, keys
        destined for the same data block are resolved with a single block
        read, and vlog reads sweep each log in offset order.  Shared I/O,
        the owner's aux fetch included, is charged to the *first* key of
        the group that needed it, so per-key breakdowns are an attribution
        (aggregate reads/bytes remain exact, and are <= answering the keys
        one call each — that reduction is the point).

        Returns ``(values, stats)``.  Given ``batch``, a walk's
        `ReadBatch`, the call is that walk's step at this epoch instead:
        ``keys`` are the batch's keys at ``batch.at``, their answers and
        costs go into the batch, and it returns None.
        """
        if batch is None:
            arr = np.ascontiguousarray(np.asarray(keys, dtype=np.uint64).ravel())
            if arr.size == 0:
                return [], []
            batch = ReadBatch(arr, self.partitioner.partition_of(arr))
            self._traced_read(arr, batch)
            return batch.values, batch.stats()
        self._traced_read(keys, batch)
        return None

    def _traced_read(self, keys: np.ndarray, batch: ReadBatch) -> None:
        if current_span() is None:  # untraced: skip span-argument setup
            self._read(keys, batch)
            return
        with child_span(
            "engine.get_many",
            counters=self.metrics,
            prefixes=("reader.",),
            format=self.fmt.name,
            keys=int(keys.size),
        ) as span:
            blocks, probes = self._read(keys, batch)
            if span is not None:
                span.annotate(blocks=blocks, probes=probes)

    def _read(self, keys: np.ndarray, batch: ReadBatch) -> tuple[int, int]:
        """One step: probe ``keys``' candidate tables rank by rank,
        dereference dataptr's pointers, account; returns ``(blocks
        touched, probes)``.

        Processing candidate ranks in ascending order with a per-key
        "found" mask is probe-equivalent to each key walking its own
        candidate list (which is ascending) and stopping at the first hit.
        Positions here are the step's; ``at`` maps them to the batch's.
        """
        at = batch.at
        owners = batch.owners if at is None else batch.owners[at]
        if self.fmt.name == "filterkv":
            plan = self._candidates(keys, owners, batch)
        else:  # the owner is the one candidate: no aux table
            plan = self._groups(owners.tolist())
        n = keys.size
        # A whole-batch step writes the batch's own lists.
        values = batch.values if at is None else [None] * n
        searched = batch.searched if at is None else [0] * n
        deref = self.fmt.name == "dataptr"
        found = [False] * n
        ptrs: list[tuple[int, DataPointer]] = []
        blocks_touched = 0
        probes = 0
        counters = self.device.counters
        for rank, pos in plan:
            pos = [p for p in pos if not found[p]]
            if not pos:
                continue
            lead = pos[0] if at is None else at[pos[0]]
            reader = self._open_table(rank, batch, lead)
            mark = _mark(counters)
            vals, nblocks = reader.get_many(keys[pos])
            batch.charge_since(lead, "data", counters, mark)
            blocks_touched += nblocks
            probes += len(pos)
            for p, v in zip(pos, vals):
                searched[p] += 1
                if v is None:
                    continue
                found[p] = True
                if deref:
                    ptrs.append((p, DataPointer.unpack(v)))
                else:
                    values[p] = v
        if ptrs:  # dataptr: one more read per value, from the writer's log
            for rank, idx in self._groups(pt.rank for _, pt in ptrs):
                group = [ptrs[i] for i in idx]
                lead = group[0][0] if at is None else at[group[0][0]]
                log = ValueLog.open(self.device, rank)
                mark = _mark(counters)
                vals = log.read_many([pt for _, pt in group])
                batch.charge_since(lead, "vlog", counters, mark)
                for (p, _), v in zip(group, vals):
                    values[p] = v
        if at is not None:
            for p, v, s in zip(at, values, searched):
                batch.searched[p] += s
                if v is not None:
                    batch.values[p] = v
        self._observe(batch.end_step(), n, sum(found), searched, blocks_touched, probes)
        return blocks_touched, probes

    def _observe(self, step: dict, n: int, hits: int, searched, blocks: int, probes: int) -> None:
        """Mirror one step into the registry, in sums: ``step`` is its
        charges, ``searched`` each key's partitions searched in it."""
        if self.metrics is NULL_REGISTRY:
            return
        self._m_queries.inc(n)
        self._m_hits.inc(hits)
        self._m_partitions.inc(sum(searched))
        self._m_amp.observe_many(searched)
        reads: dict[str, int] = {}
        nbytes: dict[str, int] = {}
        for cost in step.values():
            for cat, k in cost.reads.items():
                reads[cat] = reads.get(cat, 0) + k
            for cat, k in cost.nbytes.items():
                nbytes[cat] = nbytes.get(cat, 0) + k
        by_category = self._m_by_category
        for cat, k in reads.items():
            pair = by_category.get(cat)
            if pair is None:
                labels = {"format": self.fmt.name, "category": cat}
                pair = by_category[cat] = (
                    self.metrics.counter("reader.storage_reads", **labels),
                    self.metrics.counter("reader.bytes_read", **labels),
                )
            pair[0].inc(k)
            pair[1].inc(nbytes[cat])
        self._m_batch_keys.inc(n)
        self._m_batch_blocks.observe(blocks)
        if blocks:
            self._m_batch_coalesce.observe(probes / blocks)

    def _candidates(
        self, keys: np.ndarray, owners: np.ndarray, batch: ReadBatch
    ) -> list[tuple[int, list[int]]]:
        """Filterkv's probe plan: each owner's aux fetch charged once per
        step, to its first key, and the step's keys probed in one
        `EpochAux` call; then ``(rank, key positions)`` for every
        candidate rank, ascending, each rank's keys owner by owner
        (ascending), in step order within an owner."""
        at = batch.at
        groups = self._groups(owners.tolist())
        for owner, pos in groups:
            if self.aux_tables[owner] is None:
                raise ValueError(f"no auxiliary table for partition {owner}")
            self._charge_aux(owner, batch, pos[0] if at is None else at[pos[0]])
        counts, flat = self.aux.candidates_many(keys, owners)
        self._m_candidates.inc(flat.size)
        # Each key's candidates, cut from ``flat`` in step order.
        ranks = iter(flat.tolist())
        cands = [(next(ranks),) if c == 1 else tuple(islice(ranks, c)) for c in counts.tolist()]
        by_rank: dict[int, list[int]] = {}
        for _, pos in groups:
            for p in pos:
                for r in cands[p]:
                    by_rank.setdefault(r, []).append(p)
        return sorted(by_rank.items())
