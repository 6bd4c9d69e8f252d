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
  probe goes from the aux table straight to the table's index.

Every read is charged to the `StorageDevice`, and `QueryStats` breaks the
cost down by the same categories as Fig. 11b/c: footer, index, aux table,
data blocks, and value log.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..obs import MetricsRegistry, active, child_span, current_span
from ..storage.blockio import StorageDevice
from ..storage.log import DataPointer, ValueLog
from ..storage.sstable import (
    BLOCK_CACHE_BLOCKS,
    FOOTER_BYTES,
    BlockCache,
    SSTableReader,
    TableMeta,
)
from .auxtable import AuxTable
from .formats import FormatSpec
from .partitioning import HashPartitioner
from .pipeline import rank_extents

__all__ = ["QueryEngine", "QueryStats"]

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

    def _charge(self, category: str, reads: int, nbytes: int) -> None:
        self.reads += reads
        self.bytes_read += nbytes
        self.breakdown_reads[category] = self.breakdown_reads.get(category, 0) + reads
        self.breakdown_bytes[category] = self.breakdown_bytes.get(category, 0) + nbytes


class _Charged:
    """Context manager charging a device's I/O deltas to one category."""

    __slots__ = ("counters", "stats", "category", "before")

    def __init__(self, counters, stats: QueryStats, category: str):
        self.counters = counters
        self.stats = stats
        self.category = category

    def __enter__(self) -> "_Charged":
        self.before = self.counters.snapshot()
        return self

    def __exit__(self, *exc) -> None:
        d = self.counters.delta(self.before)
        self.stats._charge(self.category, d.reads, d.bytes_read)
        self.stats.latency += d.read_time


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
    that share that state and fill it on their first reads.  A reader
    reads by name and opens nothing, so an engine builds one per table
    per call and has nothing to close.
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

    def warm(self, metrics: MetricsRegistry | None, table_cache_entries: int) -> "QueryEngine":
        """A view of this epoch that keeps what it reads: it shares the
        epoch's aux tables, ``metas`` and ``aux_charged``, so a table's
        metadata is read and verified once by whichever view opens it
        first, and owns a `BlockCache` of ``BLOCK_CACHE_BLOCKS ×
        table_cache_entries`` blocks, shared by every reader it builds.  At
        0 (the store's `get` / `get_many`) it keeps no block and its readers
        fetch only the key groups a call decodes; above 0 (warm mounts,
        `QueryService`, fleet shards) it keeps whole blocks between calls.
        """
        view = QueryEngine(
            self.device, self.fmt, self.nranks, self.partitioner,
            self.epoch, self.files, self.aux_tables, metrics,
        )
        view.metas, view.aux_charged = self.metas, self.aux_charged
        view.block_cache = BlockCache(
            BLOCK_CACHE_BLOCKS * table_cache_entries, self.device.metrics
        )
        return view

    # -- helpers -----------------------------------------------------------

    def _charged(self, stats: QueryStats, category: str) -> _Charged:
        """Context manager charging device I/O deltas to one category."""
        return _Charged(self.device.counters, stats, category)

    def _open_table(self, rank: int, stats: QueryStats) -> SSTableReader:
        """Open a partition table, splitting footer vs index charges.

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
        before = self.device.counters.snapshot()
        reader = SSTableReader(self.device, name, cache=cache)
        d = self.device.counters.delta(before)
        stats._charge("footer", 1, FOOTER_BYTES)
        stats._charge("index", d.reads - 1, d.bytes_read - FOOTER_BYTES)
        stats.latency += d.read_time
        if cache is not None:
            self.metas[rank] = reader.meta
        return reader

    def _charge_aux(self, owner: int, stats: QueryStats) -> None:
        """Fetch the owner partition's auxiliary table bytes.

        The reader fetches the partition's entire aux table (the paper
        reads ~18 MB per query), then resolves candidates in memory.
        The tables are already decoded, so the read is accounting only:
        an epoch's views pay it once per owner between them.
        """
        warm = self.block_cache is not None
        if warm and owner in self.aux_charged:
            return
        if current_span() is None:  # untraced: skip span-argument setup
            self._fetch_aux(stats, owner)
        else:
            with child_span("aux.fetch", partition=owner):
                self._fetch_aux(stats, owner)
        if warm:
            self.aux_charged.add(owner)

    def _fetch_aux(self, stats: QueryStats, owner: int) -> None:
        name = self.aux_names[owner]
        with self._charged(stats, "aux"):
            self.device.read(name, 0, self.device.file_size(name))

    # -- the read flow -------------------------------------------------------

    def get(self, key: int) -> tuple[bytes | None, QueryStats]:
        """Point lookup, `get_many` of one key; returns (value-or-None,
        cost accounting)."""
        values, stats = self.get_many(np.asarray([key], dtype=np.uint64))
        return values[0], stats[0]

    def _observe(self, stats: QueryStats) -> None:
        """Mirror one query's cost accounting into the registry."""
        self._m_queries.inc()
        if stats.found:
            self._m_hits.inc()
        self._m_partitions.inc(stats.partitions_searched)
        self._m_amp.observe(stats.partitions_searched)
        for cat, n in stats.breakdown_reads.items():
            self.metrics.counter(
                "reader.storage_reads", format=self.fmt.name, category=cat
            ).inc(n)
        for cat, nbytes in stats.breakdown_bytes.items():
            self.metrics.counter(
                "reader.bytes_read", format=self.fmt.name, category=cat
            ).inc(nbytes)

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

    def get_many(self, keys) -> tuple[list[bytes | None], list[QueryStats]]:
        """Point lookups, the one read flow (`get` is this of one key).

        Every key walks its candidate ranks in ascending order, stopping at
        the first hit: the owner alone for base and dataptr, the owner's
        aux-table candidates for filterkv.  So ``found``, per-key
        ``partitions_searched`` and the aux-table probe/candidate counters
        are those of answering each key on its own.  What a batch shares
        is the physical plan: each partition table (and value log) is
        opened once per batch, keys destined for the same data block are
        resolved with a single block read, and vlog reads sweep each log in
        offset order.  Shared I/O is charged to the *first* key of the
        group that needed it, so per-key breakdowns are an attribution
        (aggregate reads/bytes remain exact, and are <= answering the keys
        one call each — that reduction is the point).
        """
        arr = np.ascontiguousarray(np.asarray(keys, dtype=np.uint64).ravel())
        n = int(arr.size)
        values: list[bytes | None] = [None] * n
        stats = [QueryStats() for _ in range(n)]
        if n == 0:
            return values, stats
        if current_span() is None:  # untraced: skip span-argument setup
            self._read(arr, values, stats)
            return values, stats
        with child_span(
            "engine.get_many",
            counters=self.metrics,
            prefixes=("reader.",),
            format=self.fmt.name,
            keys=n,
        ) as span:
            blocks, probes = self._read(arr, values, stats)
            if span is not None:
                span.annotate(blocks=blocks, probes=probes)
        return values, stats

    def _read(
        self,
        keys: np.ndarray,
        values: list[bytes | None],
        stats: list[QueryStats],
    ) -> tuple[int, int]:
        """Probe candidate tables rank by rank, dereference dataptr's
        pointers, account; returns ``(blocks touched, probes)``.

        Processing candidate ranks in ascending order with a per-key
        "found" mask is probe-equivalent to each key walking its own
        candidate list (which is ascending) and stopping at the first hit.
        """
        owners = self.partitioner.partition_of(keys).tolist()
        if self.fmt.name == "filterkv":
            plan = self._candidates(keys, owners, stats)
        else:  # the owner is the one candidate: no aux table
            plan = self._groups(owners)
        deref = self.fmt.name == "dataptr"
        found = [False] * len(values)
        ptrs: list[tuple[int, DataPointer]] = []
        blocks_touched = 0
        probes = 0
        for rank, pos in plan:
            pos = [p for p in pos if not found[p]]
            if not pos:
                continue
            lead = stats[pos[0]]
            reader = self._open_table(rank, lead)
            with self._charged(lead, "data"):
                vals, nblocks = reader.get_many(keys[pos])
            blocks_touched += nblocks
            probes += len(pos)
            for p, v in zip(pos, vals):
                stats[p].partitions_searched += 1
                if v is None:
                    continue
                found[p] = True
                if deref:
                    ptrs.append((p, DataPointer.unpack(v)))
                else:
                    values[p] = v
        if ptrs:  # dataptr: one more read per value, from the writer's log
            for rank, at in self._groups(pt.rank for _, pt in ptrs):
                group = [ptrs[i] for i in at]
                lead = stats[group[0][0]]
                log = ValueLog.open(self.device, rank)
                with self._charged(lead, "vlog"):
                    vals = log.read_many([pt for _, pt in group])
                for (p, _), v in zip(group, vals):
                    values[p] = v
        for st, hit in zip(stats, found):
            st.found = hit
            self._observe(st)
        self._m_batch_keys.inc(len(values))
        self._m_batch_blocks.observe(blocks_touched)
        if blocks_touched:
            self._m_batch_coalesce.observe(probes / blocks_touched)
        return blocks_touched, probes

    def _candidates(
        self, keys: np.ndarray, owners: list[int], stats: list[QueryStats]
    ) -> list[tuple[int, list[int]]]:
        """Filterkv's probe plan: each owner's aux table fetched and probed
        once per batch, then ``(rank, key positions)`` for every candidate
        rank, ascending."""
        by_rank: dict[int, list[int]] = {}
        for owner, pos in self._groups(owners):
            aux = self.aux_tables[owner]
            if aux is None:
                raise ValueError(f"no auxiliary table for partition {owner}")
            self._charge_aux(owner, stats[pos[0]])
            counts, flat = aux.candidates_many(keys[pos])
            self._m_candidates.inc(flat.size)
            flat = flat.tolist()
            at = 0
            for p, c in zip(pos, counts.tolist()):
                for r in flat[at : at + c]:
                    by_rank.setdefault(r, []).append(p)
                at += c
        return sorted(by_rank.items())

