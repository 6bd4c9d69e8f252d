"""Auxiliary tables: key → candidate source ranks (paper §III-C, §IV).

An auxiliary table lives at each data partition and records, for every key
the partition owns, *which process wrote the key's data*.  FilterKV makes
this mapping lossy to make it small.  The interchangeable backends
(`AUX_BACKENDS` is the registry):

`ExactAuxTable`
    The state of the art (Fmt-DataPtr): exact 12-byte pointers
    (4 B rank + 8 B offset).  Amplification is always 1.
`BloomAuxTable`
    §IV-A: opaque ``key‖rank`` mappings in a Bloom filter; queries test
    every candidate rank, so amplification grows with the partition count.
`CuckooAuxTable`
    §IV-B: the filter–index hybrid on partial-key cuckoo hash tables;
    one lookup returns all candidate ranks, amplification bounded by the
    fingerprint width.
`QuotientAuxTable`
    Related-work alternative (§VI): quotient filter probed per rank like
    the Bloom design.  Scalar; used by the backend ablation.
`XorAuxTable`
    Static xor filter over ``key‖rank`` digests, probed per rank.
`CsfAuxTable`
    The maplet view: a compressed static function stores each key's rank
    *directly* (guarded by a fused fingerprint), so present keys resolve
    to exactly one partition — amplification 1.0 at ~1.23·(fp+rank) bits.
`RankXorAuxTable`
    Rank-partitioned compact maplet: one xor-filter bank per rank; a key
    is a member of its owner's bank only.

The last three are *sealed* backends: mappings buffer during the shuffle
and the structure builds at `finalize()` (or first query), matching the
immutable key set an epoch commits.  `AuxBackendPolicy` +
`build_sealed_aux` pick the cheapest backend that builds at flush time.

All byte accounting counts only the *index* data (the paper's Fig. 7b
"per-key space overhead"), not the keys or values themselves.
"""

from __future__ import annotations

import json
import math
import struct
from abc import ABC, abstractmethod

import numpy as np

from ..filters.bloom import BloomFilter
from ..filters.csf import CsfConstructionError, XorMaplet
from ..filters.cuckoo import ChainedCuckooTable, PartialKeyCuckooTable
from ..filters.hashing import hash_pair
from ..filters.quotient import QuotientFilter
from ..filters.xorfilter import XorConstructionError, XorFilter
from ..obs import MetricsRegistry, active

__all__ = [
    "AuxTable",
    "ExactAuxTable",
    "BloomAuxTable",
    "CuckooAuxTable",
    "QuotientAuxTable",
    "XorAuxTable",
    "CsfAuxTable",
    "RankXorAuxTable",
    "AUX_BACKENDS",
    "AuxBackendPolicy",
    "build_sealed_aux",
    "estimate_backend",
    "make_aux_table",
    "aux_to_blob",
    "aux_from_blob",
    "bloom_bits_per_key",
    "csf_fp_bits",
    "rank_bits",
]


def rank_bits(nparts: int) -> int:
    """Bits needed to name one of ``nparts`` partitions (≥1)."""
    return max(1, math.ceil(math.log2(max(2, nparts))))


def bloom_bits_per_key(nparts: int) -> float:
    """The paper's Fig. 7 Bloom budget: ``4 + log2(N)`` bits per key,
    chosen to equal the cuckoo table's per-slot width."""
    return 4.0 + math.log2(max(2, nparts))


def csf_fp_bits(nparts: int) -> int:
    """Default CSF fingerprint width: the widest guard that still undercuts
    the Bloom budget after the xor construction's ~1.23× slot overhead
    (``1.23 · (fp + rank) < bloom_bits_per_key``), floored at 1 bit.  The
    guard only matters for out-of-set keys — present keys always resolve
    to exactly their one true rank."""
    return max(1, int(bloom_bits_per_key(nparts) / 1.23) - rank_bits(nparts))


def _pack_bits(values: np.ndarray, bits: int) -> bytes:
    """Pack each value's low ``bits`` bits into a dense bitstream (the
    on-storage representation used for size and compressibility)."""
    if bits == 0 or values.size == 0:
        return b""
    v = np.asarray(values, dtype=np.uint64)
    bitmat = ((v[:, None] >> np.arange(bits, dtype=np.uint64)) & np.uint64(1)).astype(np.uint8)
    return np.packbits(bitmat, axis=None).tobytes()


def _unpack_bits(data: bytes, count: int, bits: int) -> np.ndarray:
    """Inverse of `_pack_bits`: recover ``count`` values of ``bits`` bits."""
    if bits == 0 or count == 0:
        return np.zeros(count, dtype=np.uint64)
    flat = np.unpackbits(np.frombuffer(data, dtype=np.uint8), count=count * bits)
    bitmat = flat.reshape(count, bits).astype(np.uint64)
    return (bitmat << np.arange(bits, dtype=np.uint64)).sum(axis=1, dtype=np.uint64)


class AuxTable(ABC):
    """Common interface over the four backends.

    Probe accounting lives here: the public `candidate_ranks` /
    `candidate_counts` wrap backend-specific ``_candidate_*`` hooks and
    report probes, candidates returned, and false candidates (everything
    beyond the one true rank) into the optional metrics registry, so
    every backend is measured identically.
    """

    backend = "abstract"

    def __init__(
        self,
        nparts: int,
        metrics: MetricsRegistry | None = None,
        metric_labels: dict | None = None,
    ):
        if nparts < 1:
            raise ValueError(f"nparts must be >= 1, got {nparts}")
        self.nparts = int(nparts)
        self._nkeys = 0
        self.metrics = active(metrics)
        self._labels = {k: str(v) for k, v in (metric_labels or {}).items()}
        labels = dict(backend=self.backend, **self._labels)
        self._m_inserts = self.metrics.counter("aux.inserts", **labels)
        self._m_probes = self.metrics.counter("aux.probes", **labels)
        self._m_candidates = self.metrics.counter("aux.candidates", **labels)
        self._m_false = self.metrics.counter("aux.false_candidates", **labels)

    @abstractmethod
    def insert_many(self, keys: np.ndarray, src_ranks: np.ndarray | int) -> None:
        """Record that each key's data lives at the given source rank."""

    @abstractmethod
    def _candidate_ranks(self, key: int) -> np.ndarray:
        """Backend lookup for `candidate_ranks` (uninstrumented)."""

    @abstractmethod
    def to_bytes(self) -> bytes:
        """Serialized index payload (what lands on storage)."""

    @property
    @abstractmethod
    def size_bytes(self) -> int:
        """On-storage index size in bytes."""

    def finalize(self) -> None:
        """Freeze the table for sealing.  Dynamic backends are built
        incrementally and need nothing here; static backends (xor, csf,
        rankxor) construct their structure from the buffered mappings and
        reject further inserts.  Construction failures (peeling, conflicting
        duplicates) surface here, *before* the blob is sealed — which is what
        lets `build_sealed_aux` fall back to another backend."""

    def _blob_payload(self) -> bytes:
        """Payload bytes for `aux_to_blob`.  Defaults to the on-storage
        index (`to_bytes`); backends whose probing structure needs more than
        the index to rebuild (exact: the keys) override this.  Space
        accounting always uses `size_bytes`, never the blob length."""
        return self.to_bytes()

    def candidate_ranks(self, key: int) -> np.ndarray:
        """Sorted distinct ranks that *may* hold the key (must include the
        true one — no false negatives)."""
        ranks = self._candidate_ranks(int(key))
        self._m_probes.inc()
        n = len(ranks)
        self._m_candidates.inc(n)
        if n > 1:
            self._m_false.inc(n - 1)
        return ranks

    def candidate_counts(self, keys: np.ndarray, **kwargs) -> np.ndarray:
        """Query amplification per key (Fig. 7a's metric)."""
        keys = np.asarray(keys, dtype=np.uint64).ravel()
        counts = self._candidate_counts(keys, **kwargs)
        self._m_probes.inc(keys.size)
        self._m_candidates.inc(int(counts.sum()))
        extra = int(np.maximum(counts - 1, 0).sum())
        if extra:
            self._m_false.inc(extra)
        return counts

    def candidates_many(self, keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Candidate sets for a whole key array — the bulk read path's form.

        Returns ``(counts, flat)`` where ``flat`` concatenates each key's
        sorted distinct candidate ranks and ``counts[i]`` is how many belong
        to key *i* (``flat[counts[:i].sum() : counts[:i+1].sum()]``).  Probe
        accounting is identical to ``keys.size`` `candidate_ranks` calls, so
        counter invariants hold whichever surface a reader uses.
        """
        keys = np.asarray(keys, dtype=np.uint64).ravel()
        counts, flat = self._candidates_many(keys)
        self._m_probes.inc(keys.size)
        self._m_candidates.inc(int(counts.sum()))
        extra = int(np.maximum(counts - 1, 0).sum())
        if extra:
            self._m_false.inc(extra)
        return counts, flat

    def _candidates_many(self, keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Backend hook for `candidates_many`; the default walks per key."""
        parts = [self._candidate_ranks(int(k)) for k in keys]
        counts = np.asarray([len(p) for p in parts], dtype=np.int64)
        flat = (
            np.concatenate(parts).astype(np.int64)
            if parts
            else np.zeros(0, dtype=np.int64)
        )
        return counts, flat

    def _candidate_counts(self, keys: np.ndarray) -> np.ndarray:
        return np.asarray([len(self._candidate_ranks(int(k))) for k in keys], dtype=np.int64)

    def record_structure_metrics(self) -> None:
        """Snapshot structural gauges (called once, when the table is
        persisted).  Subclasses add backend-specific gauges."""
        labels = dict(backend=self.backend, **self._labels)
        self.metrics.gauge("aux.keys", **labels).set(self._nkeys)
        self.metrics.gauge("aux.size_bytes", **labels).set(self.size_bytes)

    def __len__(self) -> int:
        return self._nkeys

    @property
    def bytes_per_key(self) -> float:
        return self.size_bytes / self._nkeys if self._nkeys else 0.0

    def _check_insert(self, keys: np.ndarray, src_ranks) -> tuple[np.ndarray, np.ndarray]:
        keys = np.asarray(keys, dtype=np.uint64).ravel()
        ranks = np.broadcast_to(np.asarray(src_ranks, dtype=np.uint64), keys.shape)
        if ranks.size and int(ranks.max()) >= self.nparts:
            raise ValueError(f"rank {int(ranks.max())} out of range for {self.nparts} partitions")
        self._m_inserts.inc(keys.size)
        return keys, ranks


class ExactAuxTable(AuxTable):
    """Exact pointers (the current state of the art, Fmt-DataPtr).

    Stores 12 bytes per key: a 4-byte rank and an 8-byte offset.  Offsets
    default to each key's running byte position in its source log.
    """

    POINTER_BYTES = 12
    backend = "exact"

    def __init__(self, nparts: int, **obs_kwargs):
        super().__init__(nparts, **obs_kwargs)
        self._key_chunks: list[np.ndarray] = []
        self._rank_chunks: list[np.ndarray] = []
        self._offset_chunks: list[np.ndarray] = []
        self._sorted: tuple[np.ndarray, np.ndarray] | None = None

    def insert_many(
        self,
        keys: np.ndarray,
        src_ranks: np.ndarray | int,
        offsets: np.ndarray | None = None,
    ) -> None:
        keys, ranks = self._check_insert(keys, src_ranks)
        if offsets is None:
            offsets = np.arange(self._nkeys, self._nkeys + keys.size, dtype=np.uint64)
        else:
            offsets = np.asarray(offsets, dtype=np.uint64).ravel()
            if offsets.shape != keys.shape:
                raise ValueError("offsets must match keys")
        self._key_chunks.append(keys.copy())
        self._rank_chunks.append(ranks.astype(np.uint32))
        self._offset_chunks.append(offsets)
        self._nkeys += keys.size
        self._sorted = None

    def _ensure_sorted(self) -> tuple[np.ndarray, np.ndarray]:
        if self._sorted is None:
            keys = (
                np.concatenate(self._key_chunks)
                if self._key_chunks
                else np.zeros(0, dtype=np.uint64)
            )
            ranks = (
                np.concatenate(self._rank_chunks)
                if self._rank_chunks
                else np.zeros(0, dtype=np.uint32)
            )
            order = np.argsort(keys, kind="stable")
            self._sorted = (keys[order], ranks[order])
        return self._sorted

    def _candidate_ranks(self, key: int) -> np.ndarray:
        keys, ranks = self._ensure_sorted()
        lo = np.searchsorted(keys, np.uint64(key), side="left")
        hi = np.searchsorted(keys, np.uint64(key), side="right")
        return np.unique(ranks[lo:hi]).astype(np.int64)

    def _candidate_counts(self, keys: np.ndarray) -> np.ndarray:
        skeys, _ = self._ensure_sorted()
        lo = np.searchsorted(skeys, keys, side="left")
        hi = np.searchsorted(skeys, keys, side="right")
        # Exact pointers: every stored occurrence is a distinct precise hit;
        # duplicated keys are rare in the paper's workloads, so hi-lo ≈ 1.
        return np.maximum(hi - lo, 0).astype(np.int64)

    def _candidates_many(self, keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        skeys, ranks = self._ensure_sorted()
        lo = np.searchsorted(skeys, keys, side="left")
        hi = np.searchsorted(skeys, keys, side="right")
        span = (hi - lo).astype(np.int64)
        if (span <= 1).all():  # no duplicated keys: one rank slice suffices
            return span, ranks[lo[span == 1]].astype(np.int64)
        parts = [np.unique(ranks[l:h]).astype(np.int64) for l, h in zip(lo, hi)]
        counts = np.asarray([len(p) for p in parts], dtype=np.int64)
        flat = np.concatenate(parts) if parts else np.zeros(0, dtype=np.int64)
        return counts, flat

    def to_bytes(self) -> bytes:
        ranks = (
            np.concatenate(self._rank_chunks) if self._rank_chunks else np.zeros(0, np.uint32)
        )
        offsets = (
            np.concatenate(self._offset_chunks)
            if self._offset_chunks
            else np.zeros(0, np.uint64)
        )
        out = np.zeros(ranks.size * self.POINTER_BYTES, dtype=np.uint8)
        view = out.reshape(-1, self.POINTER_BYTES)
        view[:, :4] = ranks.astype("<u4").view(np.uint8).reshape(-1, 4)
        view[:, 4:] = offsets.astype("<u8").view(np.uint8).reshape(-1, 8)
        return out.tobytes()

    def _blob_payload(self) -> bytes:
        # The 12-byte pointers alone can't answer candidate_ranks after a
        # reload (probing needs the keys), so the blob carries the keys in
        # insertion order ahead of the index.  size_bytes still counts only
        # the pointers — the keys live in the data extents regardless.
        keys = (
            np.concatenate(self._key_chunks) if self._key_chunks else np.zeros(0, np.uint64)
        )
        return keys.astype("<u8").tobytes() + self.to_bytes()

    @property
    def size_bytes(self) -> int:
        return self._nkeys * self.POINTER_BYTES


class BloomAuxTable(AuxTable):
    """Bloom-filter aux table: insert key‖rank, probe every rank (§IV-A)."""

    backend = "bloom"

    def __init__(
        self,
        nparts: int,
        capacity_hint: int,
        bits_per_key: float | None = None,
        seed: int = 0,
        **obs_kwargs,
    ):
        super().__init__(nparts, **obs_kwargs)
        if capacity_hint <= 0:
            raise ValueError("capacity_hint must be positive")
        self.bits_per_key = bloom_bits_per_key(nparts) if bits_per_key is None else bits_per_key
        self._filter = BloomFilter.from_bits_per_key(capacity_hint, self.bits_per_key, seed=seed)

    def insert_many(self, keys: np.ndarray, src_ranks: np.ndarray | int) -> None:
        keys, ranks = self._check_insert(keys, src_ranks)
        self._filter.add_many(hash_pair(keys, ranks))
        self._nkeys += keys.size

    def _hits_matrix(self, keys: np.ndarray, rank_lo: int, rank_hi: int) -> np.ndarray:
        """Membership of every ``key‖rank`` digest for ranks in
        ``[rank_lo, rank_hi)`` — one vectorized pass, shape
        ``(len(keys), rank_hi - rank_lo)``."""
        ranks = np.arange(rank_lo, rank_hi, dtype=np.uint64)
        digests = hash_pair(np.repeat(keys, ranks.size), np.tile(ranks, keys.size))
        return self._filter.contains_many(digests).reshape(keys.size, ranks.size)

    def _candidate_ranks(self, key: int) -> np.ndarray:
        hits = self._hits_matrix(np.asarray([key], dtype=np.uint64), 0, self.nparts)
        return np.nonzero(hits[0])[0].astype(np.int64)

    def _candidates_many(self, keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """All N ``key‖rank`` digests per batch tested in one vectorized
        membership pass (chunked over keys to bound the digest matrix)."""
        counts = np.zeros(keys.size, dtype=np.int64)
        flats: list[np.ndarray] = []
        chunk = max(1, (1 << 22) // max(1, self.nparts))
        for start in range(0, keys.size, chunk):
            sub = keys[start : start + chunk]
            hits = self._hits_matrix(sub, 0, self.nparts)
            rows, ranks = np.nonzero(hits)  # row-major: ranks ascend per key
            counts[start : start + sub.size] = np.bincount(rows, minlength=sub.size)
            flats.append(ranks.astype(np.int64))
        flat = np.concatenate(flats) if flats else np.zeros(0, dtype=np.int64)
        return counts, flat

    def _candidate_counts(
        self, keys: np.ndarray, exhaustive_limit: int = 1 << 16, sample_ranks: int = 4096
    ) -> np.ndarray:
        """Amplification per key.

        For up to ``exhaustive_limit`` partitions every rank is tested
        (exactly the paper's Fig. 4 procedure).  Beyond that, testing
        N ranks per key is infeasible, so the false-positive tail is
        *estimated* from a random sample of non-true ranks and scaled —
        unbiased, and documented in EXPERIMENTS.md.
        """
        if self.nparts <= exhaustive_limit:
            counts = np.zeros(keys.size, dtype=np.int64)
            chunk = max(1, (1 << 22) // max(1, self.nparts))
            for start in range(0, keys.size, chunk):
                sub = keys[start : start + chunk]
                counts[start : start + sub.size] = self._hits_matrix(
                    sub, 0, self.nparts
                ).sum(axis=1)
            return counts
        rng = np.random.default_rng(0xA137)
        sample = rng.integers(0, self.nparts, size=sample_ranks, dtype=np.uint64)
        digests = hash_pair(np.repeat(keys, sample.size), np.tile(sample, keys.size))
        hit_rate = (
            self._filter.contains_many(digests).reshape(keys.size, sample.size).mean(axis=1)
        )
        # ~1 true mapping plus fpr-scaled false candidates.
        return np.rint(1.0 + hit_rate * (self.nparts - 1)).astype(np.int64)

    def to_bytes(self) -> bytes:
        return self._filter.to_bytes()

    @property
    def size_bytes(self) -> int:
        return self._filter.size_bytes


class CuckooAuxTable(AuxTable):
    """Filter–index hybrid on partial-key cuckoo hash tables (§IV-B)."""

    backend = "cuckoo"

    def __init__(
        self,
        nparts: int,
        capacity_hint: int | None = None,
        fp_bits: int = 4,
        seed: int = 0,
        slots_per_bucket: int = 4,
        **obs_kwargs,
    ):
        super().__init__(nparts, **obs_kwargs)
        self.fp_bits = fp_bits
        self._table = ChainedCuckooTable(
            fp_bits=fp_bits,
            value_bits=rank_bits(nparts),
            slots_per_bucket=slots_per_bucket,
            seed=seed,
            capacity_hint=capacity_hint,
        )

    def insert_many(self, keys: np.ndarray, src_ranks: np.ndarray | int) -> None:
        keys, ranks = self._check_insert(keys, src_ranks)
        self._table.insert_many(keys, ranks.astype(np.uint32))
        self._nkeys += keys.size

    def _candidate_ranks(self, key: int) -> np.ndarray:
        return self._table.candidate_values(int(key)).astype(np.int64)

    def _candidate_counts(self, keys: np.ndarray) -> np.ndarray:
        return self._table.candidate_counts(keys)

    def _candidates_many(self, keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Fingerprints and buckets for the whole key array resolve with one
        `lookup_many` sweep per chained table."""
        return self._table.candidates_many(keys)

    def record_structure_metrics(self) -> None:
        super().record_structure_metrics()
        labels = dict(backend=self.backend, **self._labels)
        st = self._table.stats
        self.metrics.gauge("aux.cuckoo.kicks", **labels).set(self._table.total_kicks)
        self.metrics.gauge("aux.cuckoo.chain_growths", **labels).set(st.ntables - 1)
        self.metrics.gauge("aux.cuckoo.utilization", **labels).set(st.utilization)

    def to_bytes(self) -> bytes:
        parts: list[bytes] = []
        width = self.fp_bits + self._table.value_bits
        for t in self._table.tables:
            fps, vals = t.to_arrays()
            slots = (fps.astype(np.uint64) << np.uint64(self._table.value_bits)) | vals.astype(
                np.uint64
            )
            parts.append(_pack_bits(slots.ravel(), width))
        return b"".join(parts)

    @property
    def size_bytes(self) -> int:
        return self._table.size_bytes

    @property
    def utilization(self) -> float:
        return self._table.stats.utilization


class QuotientAuxTable(AuxTable):
    """Quotient-filter aux table probed per rank (related work, §VI)."""

    backend = "quotient"

    def __init__(
        self,
        nparts: int,
        capacity_hint: int,
        rbits: int | None = None,
        seed: int = 0,
        **obs_kwargs,
    ):
        super().__init__(nparts, **obs_kwargs)
        if capacity_hint <= 0:
            raise ValueError("capacity_hint must be positive")
        qbits = max(4, math.ceil(math.log2(capacity_hint / 0.75)))
        self.rbits = rbits if rbits is not None else max(4, rank_bits(nparts))
        self._filter = QuotientFilter(qbits=qbits, rbits=self.rbits, seed=seed)

    def insert_many(self, keys: np.ndarray, src_ranks: np.ndarray | int) -> None:
        keys, ranks = self._check_insert(keys, src_ranks)
        digests = hash_pair(keys, ranks)
        for d in digests:
            self._filter.add(int(d))
        self._nkeys += keys.size

    def _candidate_ranks(self, key: int) -> np.ndarray:
        ranks = np.arange(self.nparts, dtype=np.uint64)
        digests = hash_pair(np.full(self.nparts, key, dtype=np.uint64), ranks)
        hits = self._filter.contains_many(digests)
        return np.nonzero(hits)[0].astype(np.int64)

    def to_bytes(self) -> bytes:
        meta = (
            self._filter._occ.astype(np.uint64)
            | (self._filter._cont.astype(np.uint64) << np.uint64(1))
            | (self._filter._shift.astype(np.uint64) << np.uint64(2))
        )
        slots = (self._filter._rem.astype(np.uint64) << np.uint64(3)) | meta
        return _pack_bits(slots, self.rbits + 3)

    @property
    def size_bytes(self) -> int:
        return self._filter.size_bytes


class XorAuxTable(AuxTable):
    """Static xor-filter aux table (extension beyond the paper).

    An in-situ epoch's key→rank mappings are immutable once the burst
    ends, which is exactly the regime xor filters excel at: ~1.23·fp_bits
    bits per mapping with fpr ``2^-fp_bits``.  Mappings are buffered during
    the shuffle and the filter is built lazily at the first query (or an
    explicit `finalize()`); like the Bloom design, a query exhaustively
    probes every candidate rank.
    """

    backend = "xor"

    def __init__(self, nparts: int, fp_bits: int = 8, seed: int = 0, **obs_kwargs):
        super().__init__(nparts, **obs_kwargs)
        self.fp_bits = fp_bits
        self.seed = seed
        self._pending: list[np.ndarray] = []
        self._filter: XorFilter | None = None
        self._finalized = False

    def insert_many(self, keys: np.ndarray, src_ranks: np.ndarray | int) -> None:
        if self._finalized:
            raise ValueError("xor aux table already finalized (static filter)")
        keys, ranks = self._check_insert(keys, src_ranks)
        self._pending.append(hash_pair(keys, ranks))
        self._nkeys += keys.size

    def finalize(self) -> None:
        """Build the static filter from every buffered mapping.  An empty
        table (compaction seals aux blobs for keyless partitions) stays
        filterless and answers no candidates."""
        if self._finalized:
            return
        if self._pending:
            digests = np.concatenate(self._pending)
            self._filter = XorFilter(digests, fp_bits=self.fp_bits, seed=self.seed)
            self._pending.clear()
        self._finalized = True

    def _candidate_ranks(self, key: int) -> np.ndarray:
        self.finalize()
        if self._filter is None:
            return np.zeros(0, dtype=np.int64)
        ranks = np.arange(self.nparts, dtype=np.uint64)
        digests = hash_pair(np.full(self.nparts, key, dtype=np.uint64), ranks)
        return np.nonzero(self._filter.contains_many(digests))[0].astype(np.int64)

    def to_bytes(self) -> bytes:
        self.finalize()
        if self._filter is None:
            return b""
        # Dense fp_bits-wide packing: exactly size_bytes, and decodable —
        # `aux_from_blob` reloads the slot array from this.
        return _pack_bits(self._filter._slots, self.fp_bits)

    @property
    def size_bytes(self) -> int:
        self.finalize()
        return self._filter.size_bytes if self._filter is not None else 0


class CsfAuxTable(AuxTable):
    """Compressed-static-function aux table: the maplet view.

    Every other lossy backend stores *memberships* and reconstructs the
    mapping by probing; the CSF stores the mapping itself.  A sealed
    epoch's key→rank pairs build an `XorMaplet` whose lookup returns the
    owner rank directly, guarded by a fused fingerprint: present keys
    resolve to exactly one partition (amplification 1.0 — no dynamic
    filter can match that), out-of-set keys leak a false candidate with
    probability ``≈2^-fp_bits``.  Cost: ~1.23·(fp_bits + rank_bits(N))
    bits per key, below the Bloom budget at every partition count with the
    default `csf_fp_bits` width.

    A static function holds one value per key, so conflicting duplicate
    mappings (same key, different ranks) are rejected at `finalize()`;
    `build_sealed_aux` treats that as "this backend doesn't fit" and falls
    back.  Consistent duplicates dedupe silently.
    """

    backend = "csf"

    def __init__(
        self,
        nparts: int,
        fp_bits: int | None = None,
        seed: int = 0,
        **obs_kwargs,
    ):
        super().__init__(nparts, **obs_kwargs)
        self.fp_bits = csf_fp_bits(nparts) if fp_bits is None else int(fp_bits)
        self.value_bits = rank_bits(nparts)
        self.seed = seed
        self._pending_keys: list[np.ndarray] = []
        self._pending_ranks: list[np.ndarray] = []
        self._maplet: XorMaplet | None = None
        self._finalized = False

    def insert_many(self, keys: np.ndarray, src_ranks: np.ndarray | int) -> None:
        if self._finalized:
            raise ValueError("csf aux table already finalized (static function)")
        keys, ranks = self._check_insert(keys, src_ranks)
        self._pending_keys.append(keys.copy())
        self._pending_ranks.append(ranks.astype(np.uint64))
        self._nkeys += keys.size

    def finalize(self) -> None:
        if self._finalized:
            return
        if self._pending_keys:
            keys = np.concatenate(self._pending_keys)
            ranks = np.concatenate(self._pending_ranks)
            order = np.argsort(keys, kind="stable")
            skeys, sranks = keys[order], ranks[order]
            ukeys, first, counts = np.unique(skeys, return_index=True, return_counts=True)
            uranks = sranks[first]
            if (np.repeat(uranks, counts) != sranks).any():
                raise ValueError(
                    "conflicting duplicate mappings: a static function stores one rank per key"
                )
            self._maplet = XorMaplet(
                ukeys,
                uranks,
                value_bits=self.value_bits,
                fp_bits=self.fp_bits,
                seed=self.seed,
            )
            self._pending_keys.clear()
            self._pending_ranks.clear()
        self._finalized = True

    def _lookup(self, keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(valid, values): guard hit AND decoded rank is a real partition
        (rank_bits can name ranks ≥ nparts; those are guard escapes)."""
        self.finalize()
        if self._maplet is None:
            z = np.zeros(keys.size, dtype=bool)
            return z, np.zeros(keys.size, dtype=np.uint64)
        hits, values = self._maplet.lookup_many(keys)
        return hits & (values < np.uint64(self.nparts)), values

    def _candidate_ranks(self, key: int) -> np.ndarray:
        valid, values = self._lookup(np.asarray([key], dtype=np.uint64))
        if valid[0]:
            return values[:1].astype(np.int64)
        return np.zeros(0, dtype=np.int64)

    def _candidates_many(self, keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        valid, values = self._lookup(keys)
        return valid.astype(np.int64), values[valid].astype(np.int64)

    def _candidate_counts(self, keys: np.ndarray) -> np.ndarray:
        valid, _ = self._lookup(keys)
        return valid.astype(np.int64)

    def record_structure_metrics(self) -> None:
        super().record_structure_metrics()
        if self._maplet is not None:
            labels = dict(backend=self.backend, **self._labels)
            self.metrics.gauge("aux.csf.tries", **labels).set(self._maplet.tries)
            self.metrics.gauge("aux.csf.slot_bits", **labels).set(self._maplet.slot_bits)

    def to_bytes(self) -> bytes:
        self.finalize()
        if self._maplet is None:
            return b""
        return _pack_bits(self._maplet._slots, self._maplet.slot_bits)

    @property
    def size_bytes(self) -> int:
        self.finalize()
        return self._maplet.size_bytes if self._maplet is not None else 0


class RankXorAuxTable(AuxTable):
    """Rank-partitioned compact maplet: one xor-filter bank per rank.

    Instead of one structure over ``key‖rank`` digests, each rank gets its
    own static xor filter holding exactly the keys it owns; a query tests
    the key against every bank.  Same exhaustive-probe shape as the Bloom
    design, but at ~1.23·fp_bits bits per key (each key occupies one bank)
    with per-bank fpr ``2^-fp_bits``.  Unlike the CSF this is a *multi*
    maplet — a key written by several ranks is simply a member of several
    banks — so it is the static fallback when CSF's one-rank-per-key
    invariant doesn't hold.
    """

    backend = "rankxor"

    def __init__(self, nparts: int, fp_bits: int = 8, seed: int = 0, **obs_kwargs):
        super().__init__(nparts, **obs_kwargs)
        self.fp_bits = int(fp_bits)
        self.seed = seed
        self._pending_keys: list[np.ndarray] = []
        self._pending_ranks: list[np.ndarray] = []
        self._banks: list[XorFilter | None] | None = None

    def insert_many(self, keys: np.ndarray, src_ranks: np.ndarray | int) -> None:
        if self._banks is not None:
            raise ValueError("rankxor aux table already finalized (static banks)")
        keys, ranks = self._check_insert(keys, src_ranks)
        self._pending_keys.append(keys.copy())
        self._pending_ranks.append(ranks.astype(np.uint64))
        self._nkeys += keys.size

    def finalize(self) -> None:
        if self._banks is not None:
            return
        banks: list[XorFilter | None] = [None] * self.nparts
        if self._pending_keys:
            keys = np.concatenate(self._pending_keys)
            ranks = np.concatenate(self._pending_ranks)
            for r in np.unique(ranks):
                owned = keys[ranks == r]
                # Per-bank seed: banks must hash independently or one
                # unlucky key set would collide identically everywhere.
                banks[int(r)] = XorFilter(
                    owned, fp_bits=self.fp_bits, seed=self.seed + int(r)
                )
            self._pending_keys.clear()
            self._pending_ranks.clear()
        self._banks = banks

    def _hits_matrix(self, keys: np.ndarray) -> np.ndarray:
        self.finalize()
        hits = np.zeros((keys.size, self.nparts), dtype=bool)
        for r, bank in enumerate(self._banks):
            if bank is not None:
                hits[:, r] = bank.contains_many(keys)
        return hits

    def _candidate_ranks(self, key: int) -> np.ndarray:
        hits = self._hits_matrix(np.asarray([key], dtype=np.uint64))
        return np.nonzero(hits[0])[0].astype(np.int64)

    def _candidates_many(self, keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        hits = self._hits_matrix(keys)
        rows, ranks = np.nonzero(hits)  # row-major: ranks ascend per key
        counts = np.bincount(rows, minlength=keys.size).astype(np.int64)
        return counts, ranks.astype(np.int64)

    def _candidate_counts(self, keys: np.ndarray) -> np.ndarray:
        return self._hits_matrix(keys).sum(axis=1).astype(np.int64)

    def record_structure_metrics(self) -> None:
        super().record_structure_metrics()
        self.finalize()
        labels = dict(backend=self.backend, **self._labels)
        nbanks = sum(1 for b in self._banks if b is not None)
        self.metrics.gauge("aux.rankxor.banks", **labels).set(nbanks)

    def to_bytes(self) -> bytes:
        self.finalize()
        return b"".join(
            _pack_bits(b._slots, self.fp_bits) for b in self._banks if b is not None
        )

    @property
    def size_bytes(self) -> int:
        self.finalize()
        return sum(b.size_bytes for b in self._banks if b is not None)


_BLOB_HDR = struct.Struct("<I")  # length of the JSON header that follows


# Blob format versions.  v1 (no "v" key): cuckoo and bloom only.  v2 adds
# the explicit tag plus reload geometry for exact/quotient/xor/csf/rankxor.
# Readers accept any version ≤ _BLOB_VERSION; v1 blobs load unchanged.
_BLOB_VERSION = 2


def aux_to_blob(aux: AuxTable) -> bytes:
    """Self-describing serialization: JSON geometry header + index payload.

    This is what lands in an ``aux.<epoch>.<rank>`` extent (sealed by the
    pipeline), and what `aux_from_blob` reloads after a restart.  The
    payload bytes are `AuxTable._blob_payload` — `to_bytes` for every
    backend except exact, which prefixes its keys — and the header adds
    the construction parameters needed to rebuild the probing structure.
    Serialization finalizes static backends as a side effect.
    """
    aux.finalize()
    header: dict = {
        "v": _BLOB_VERSION,
        "backend": aux.backend,
        "nparts": aux.nparts,
        "nkeys": len(aux),
    }
    if isinstance(aux, CuckooAuxTable):
        t = aux._table
        header.update(
            fp_bits=t.fp_bits,
            value_bits=t.value_bits,
            slots_per_bucket=t.slots_per_bucket,
            max_kicks=t.max_kicks,
            seed=t.seed,
            nbuckets=[pt.nbuckets for pt in t.tables],
        )
    elif isinstance(aux, BloomAuxTable):
        f = aux._filter
        header.update(
            nbits=f.nbits, nhashes=f.nhashes, seed=f.seed, bits_per_key=aux.bits_per_key
        )
    elif isinstance(aux, QuotientAuxTable):
        f = aux._filter
        header.update(qbits=f.qbits, rbits=f.rbits, seed=f.seed, count=f._count)
    elif isinstance(aux, XorAuxTable):
        f = aux._filter
        # seed is the *final* seed construction settled on, so the reload
        # recomputes the same slot positions without re-peeling.
        header.update(
            fp_bits=aux.fp_bits,
            seed=f.seed if f is not None else aux.seed,
            segment=f._segment if f is not None else 0,
            fnkeys=f.nkeys if f is not None else 0,
        )
    elif isinstance(aux, CsfAuxTable):
        m = aux._maplet
        header.update(
            fp_bits=aux.fp_bits,
            value_bits=aux.value_bits,
            seed=m.seed if m is not None else aux.seed,
            segment=m._segment if m is not None else 0,
            fnkeys=m.nkeys if m is not None else 0,
        )
    elif isinstance(aux, RankXorAuxTable):
        header.update(
            fp_bits=aux.fp_bits,
            base_seed=aux.seed,
            banks=[
                [r, b.seed, b._segment, b.nkeys]
                for r, b in enumerate(aux._banks)
                if b is not None
            ],
        )
    hdr = json.dumps(header, sort_keys=True).encode()
    return _BLOB_HDR.pack(len(hdr)) + hdr + aux._blob_payload()


def aux_from_blob(
    blob: bytes,
    metrics: MetricsRegistry | None = None,
    metric_labels: dict | None = None,
) -> AuxTable:
    """Rebuild an aux table from an `aux_to_blob` serialization.

    Every registered backend reloads exactly: the reloaded table answers
    the same candidate sets for every key, and re-serializing it
    reproduces the blob bit-for-bit (the parity harness asserts both).
    Blobs from a future format version are rejected up front rather than
    misread.
    """
    if len(blob) < _BLOB_HDR.size:
        raise ValueError(f"aux blob too short ({len(blob)} B)")
    (hdr_len,) = _BLOB_HDR.unpack_from(blob)
    if len(blob) < _BLOB_HDR.size + hdr_len:
        raise ValueError("aux blob truncated inside header")
    try:
        header = json.loads(blob[_BLOB_HDR.size : _BLOB_HDR.size + hdr_len])
    except json.JSONDecodeError as e:
        raise ValueError(f"malformed aux blob header: {e}") from e
    version = int(header.get("v", 1))
    if version > _BLOB_VERSION:
        raise ValueError(
            f"aux blob format v{version} is newer than supported v{_BLOB_VERSION}"
        )
    payload = blob[_BLOB_HDR.size + hdr_len :]
    backend = header.get("backend")
    obs_kwargs = dict(metrics=metrics, metric_labels=metric_labels)
    loader = _BLOB_LOADERS.get(backend)
    if loader is None:
        raise NotImplementedError(f"aux backend {backend!r} is not reloadable")
    return loader(header, payload, obs_kwargs)


def _cuckoo_from_blob(header: dict, payload: bytes, obs_kwargs: dict) -> "CuckooAuxTable":
    fp_bits = int(header["fp_bits"])
    value_bits = int(header["value_bits"])
    spb = int(header["slots_per_bucket"])
    seed = int(header["seed"])
    aux = CuckooAuxTable(
        int(header["nparts"]),
        fp_bits=fp_bits,
        seed=seed,
        slots_per_bucket=spb,
        **obs_kwargs,
    )
    chained = aux._table
    chained.max_kicks = int(header["max_kicks"])
    chained.tables = []
    width = fp_bits + value_bits
    vmask = np.uint64((1 << value_bits) - 1)
    off = 0
    for i, nb in enumerate(header["nbuckets"]):
        pt = PartialKeyCuckooTable(
            int(nb),
            fp_bits=fp_bits,
            value_bits=value_bits,
            slots_per_bucket=spb,
            max_kicks=chained.max_kicks,
            seed=seed + i,
        )
        nslots = pt.capacity_slots
        nbytes = math.ceil(nslots * width / 8)
        if off + nbytes > len(payload):
            raise ValueError(f"aux blob payload truncated at table {i}")
        slots = _unpack_bits(payload[off : off + nbytes], nslots, width)
        off += nbytes
        fps = (slots >> np.uint64(value_bits)).astype(np.uint32).reshape(pt.nbuckets, spb)
        vals = (slots & vmask).astype(np.uint32).reshape(pt.nbuckets, spb)
        pt._fps = fps
        pt._vals = vals
        # Occupied slots are packed from slot 0 in every bucket, so the
        # occupancy vector is recomputable from the stored fingerprints.
        pt._occ = (fps != 0).sum(axis=1).astype(np.int64)
        pt._nkeys = int(pt._occ.sum())
        chained.tables.append(pt)
    if off != len(payload):
        raise ValueError(
            f"aux blob has {len(payload) - off} trailing payload byte(s)"
        )
    aux._nkeys = int(header["nkeys"])
    return aux


def _bloom_from_blob(header: dict, payload: bytes, obs_kwargs: dict) -> "BloomAuxTable":
    nkeys = int(header["nkeys"])
    aux = BloomAuxTable(
        int(header["nparts"]),
        capacity_hint=max(1, nkeys),
        bits_per_key=float(header["bits_per_key"]),
        seed=int(header["seed"]),
        **obs_kwargs,
    )
    if len(payload) != int(header["nbits"]) // 8:
        raise ValueError(
            f"bloom payload is {len(payload)} B, expected {int(header['nbits']) // 8}"
        )
    f = BloomFilter.from_bytes(payload, int(header["nhashes"]), seed=int(header["seed"]))
    f._count = nkeys
    aux._filter = f
    aux._nkeys = nkeys
    return aux


def _exact_from_blob(header: dict, payload: bytes, obs_kwargs: dict) -> "ExactAuxTable":
    nkeys = int(header["nkeys"])
    want = nkeys * (8 + ExactAuxTable.POINTER_BYTES)
    if len(payload) != want:
        raise ValueError(f"exact payload is {len(payload)} B, expected {want}")
    aux = ExactAuxTable(int(header["nparts"]), **obs_kwargs)
    keys = np.frombuffer(payload[: nkeys * 8], dtype="<u8").astype(np.uint64)
    ptrs = np.frombuffer(payload[nkeys * 8 :], dtype=np.uint8).reshape(
        nkeys, ExactAuxTable.POINTER_BYTES
    )
    ranks = ptrs[:, :4].copy().view("<u4").ravel().astype(np.uint64)
    offsets = ptrs[:, 4:].copy().view("<u8").ravel().astype(np.uint64)
    if nkeys:
        aux.insert_many(keys, ranks, offsets=offsets)
    return aux


def _quotient_from_blob(header: dict, payload: bytes, obs_kwargs: dict) -> "QuotientAuxTable":
    qbits, rbits = int(header["qbits"]), int(header["rbits"])
    aux = QuotientAuxTable(
        int(header["nparts"]), capacity_hint=1, rbits=rbits, seed=int(header["seed"]), **obs_kwargs
    )
    f = QuotientFilter(qbits=qbits, rbits=rbits, seed=int(header["seed"]))
    nbytes = -(-f.nslots * (rbits + 3) // 8)
    if len(payload) != nbytes:
        raise ValueError(f"quotient payload is {len(payload)} B, expected {nbytes}")
    slots = _unpack_bits(payload, f.nslots, rbits + 3)
    f._occ = (slots & np.uint64(1)).astype(bool)
    f._cont = ((slots >> np.uint64(1)) & np.uint64(1)).astype(bool)
    f._shift = ((slots >> np.uint64(2)) & np.uint64(1)).astype(bool)
    f._rem = (slots >> np.uint64(3)).astype(np.uint32)
    f._count = int(header["count"])
    aux._filter = f
    aux._nkeys = int(header["nkeys"])
    return aux


def _xor_from_blob(header: dict, payload: bytes, obs_kwargs: dict) -> "XorAuxTable":
    fp_bits = int(header["fp_bits"])
    aux = XorAuxTable(
        int(header["nparts"]), fp_bits=fp_bits, seed=int(header["seed"]), **obs_kwargs
    )
    segment = int(header["segment"])
    if segment:
        nslots = 3 * segment
        nbytes = -(-nslots * fp_bits // 8)
        if len(payload) != nbytes:
            raise ValueError(f"xor payload is {len(payload)} B, expected {nbytes}")
        slots = _unpack_bits(payload, nslots, fp_bits).astype(np.uint32)
        aux._filter = XorFilter.from_state(
            slots, int(header["fnkeys"]), fp_bits, int(header["seed"])
        )
    elif payload:
        raise ValueError(f"empty xor table has {len(payload)} trailing payload byte(s)")
    aux._finalized = True
    aux._nkeys = int(header["nkeys"])
    return aux


def _csf_from_blob(header: dict, payload: bytes, obs_kwargs: dict) -> "CsfAuxTable":
    fp_bits = int(header["fp_bits"])
    value_bits = int(header["value_bits"])
    aux = CsfAuxTable(
        int(header["nparts"]), fp_bits=fp_bits, seed=int(header["seed"]), **obs_kwargs
    )
    if aux.value_bits != value_bits:
        raise ValueError(
            f"csf blob stores {value_bits}-bit ranks but {header['nparts']} "
            f"partitions need {aux.value_bits}"
        )
    segment = int(header["segment"])
    if segment:
        nslots = 3 * segment
        width = fp_bits + value_bits
        nbytes = -(-nslots * width // 8)
        if len(payload) != nbytes:
            raise ValueError(f"csf payload is {len(payload)} B, expected {nbytes}")
        slots = _unpack_bits(payload, nslots, width)
        aux._maplet = XorMaplet.from_state(
            slots, int(header["fnkeys"]), value_bits, fp_bits, int(header["seed"])
        )
    elif payload:
        raise ValueError(f"empty csf table has {len(payload)} trailing payload byte(s)")
    aux._finalized = True
    aux._nkeys = int(header["nkeys"])
    return aux


def _rankxor_from_blob(header: dict, payload: bytes, obs_kwargs: dict) -> "RankXorAuxTable":
    fp_bits = int(header["fp_bits"])
    aux = RankXorAuxTable(
        int(header["nparts"]), fp_bits=fp_bits, seed=int(header["base_seed"]), **obs_kwargs
    )
    banks: list[XorFilter | None] = [None] * aux.nparts
    off = 0
    for r, seed, segment, fnkeys in header["banks"]:
        nslots = 3 * int(segment)
        nbytes = -(-nslots * fp_bits // 8)
        if off + nbytes > len(payload):
            raise ValueError(f"rankxor blob payload truncated at bank {r}")
        slots = _unpack_bits(payload[off : off + nbytes], nslots, fp_bits).astype(np.uint32)
        banks[int(r)] = XorFilter.from_state(slots, int(fnkeys), fp_bits, int(seed))
        off += nbytes
    if off != len(payload):
        raise ValueError(f"rankxor blob has {len(payload) - off} trailing payload byte(s)")
    aux._banks = banks
    aux._nkeys = int(header["nkeys"])
    return aux


_BLOB_LOADERS = {
    "exact": _exact_from_blob,
    "bloom": _bloom_from_blob,
    "cuckoo": _cuckoo_from_blob,
    "quotient": _quotient_from_blob,
    "xor": _xor_from_blob,
    "csf": _csf_from_blob,
    "rankxor": _rankxor_from_blob,
}


# Backend registry: name → constructor taking (nparts, capacity_hint, seed,
# obs_kwargs, **kwargs).  The differential parity harness parametrizes over
# this dict, so registering a backend here is the one line that opts it into
# the factory, the CLI choices, AND the cross-backend oracle tests.
AUX_BACKENDS = {
    "exact": lambda nparts, cap, seed, obs, **kw: ExactAuxTable(nparts, **obs),
    "bloom": lambda nparts, cap, seed, obs, **kw: BloomAuxTable(
        nparts, cap or 1024, seed=seed, **obs, **kw
    ),
    "cuckoo": lambda nparts, cap, seed, obs, **kw: CuckooAuxTable(
        nparts, cap, seed=seed, **obs, **kw
    ),
    "quotient": lambda nparts, cap, seed, obs, **kw: QuotientAuxTable(
        nparts, cap or 1024, seed=seed, **obs, **kw
    ),
    "xor": lambda nparts, cap, seed, obs, **kw: XorAuxTable(nparts, seed=seed, **obs, **kw),
    "csf": lambda nparts, cap, seed, obs, **kw: CsfAuxTable(nparts, seed=seed, **obs, **kw),
    "rankxor": lambda nparts, cap, seed, obs, **kw: RankXorAuxTable(
        nparts, seed=seed, **obs, **kw
    ),
}


def make_aux_table(
    backend: str,
    nparts: int,
    capacity_hint: int | None = None,
    seed: int = 0,
    metrics: MetricsRegistry | None = None,
    metric_labels: dict | None = None,
    **kwargs,
) -> AuxTable:
    """Factory over `AUX_BACKENDS`: exact | bloom | cuckoo | quotient |
    xor | csf | rankxor."""
    ctor = AUX_BACKENDS.get(backend)
    if ctor is None:
        raise ValueError(f"unknown aux-table backend {backend!r}")
    obs_kwargs = dict(metrics=metrics, metric_labels=metric_labels)
    return ctor(nparts, capacity_hint, seed, obs_kwargs, **kwargs)


def estimate_backend(backend: str, nkeys: int, nparts: int) -> tuple[float, float]:
    """Analytic ``(bits_per_key, amplification)`` estimate for one backend.

    These are closed-form predictions — what the tournament bench measures
    empirically — used by `AuxBackendPolicy` to rank backends without
    building anything.  Amplification is candidates per present-key query.
    """
    rb = rank_bits(nparts)
    if backend == "exact":
        return 8.0 * ExactAuxTable.POINTER_BYTES, 1.0
    if backend == "bloom":
        bpk = bloom_bits_per_key(nparts)
        fpr = 0.6185**bpk  # optimal-k Bloom fpr at this budget
        return bpk, 1.0 + (nparts - 1) * fpr
    if backend == "cuckoo":
        # 4-bit fingerprints, ~0.95 utilization; a query scans two buckets
        # of four slots against a 4-bit fingerprint.
        return (4 + rb) / 0.95, 1.0 + 8 * 2.0**-4
    if backend == "quotient":
        rbits = max(4, rb)
        return (rbits + 3) / 0.75, 1.0 + (nparts - 1) * 0.75 * 2.0**-rbits
    if backend == "xor":
        return 1.23 * 8, 1.0 + (nparts - 1) * 2.0**-8
    if backend == "rankxor":
        return 1.23 * 8, 1.0 + (nparts - 1) * 2.0**-8
    if backend == "csf":
        # Present keys decode to exactly their stored rank: amp is 1.0 by
        # construction, and space rides the fused-slot width.
        return 1.23 * (csf_fp_bits(nparts) + rb), 1.0
    raise ValueError(f"unknown aux-table backend {backend!r}")


class AuxBackendPolicy:
    """Flush-time backend selection: the tournament, applied per epoch.

    Ranks candidate backends by predicted cost (`estimate_backend`) and
    `build_sealed_aux` walks the ranking, falling back when a static
    construction legitimately refuses (conflicting duplicates for the CSF,
    peeling failure).  The default candidate list ends in backends that
    always build, so selection never fails.

    ``amp_weight`` prices one extra partition probed per query in bits of
    per-key space — it trades the router tier's memory (ROADMAP item 1)
    against wasted partition reads.
    """

    DEFAULT_CANDIDATES = ("csf", "rankxor", "cuckoo", "bloom")

    def __init__(
        self,
        candidates: tuple[str, ...] = DEFAULT_CANDIDATES,
        amp_weight: float = 2.0,
    ):
        unknown = [c for c in candidates if c not in AUX_BACKENDS]
        if unknown:
            raise ValueError(f"unknown aux backends in policy: {unknown}")
        if not candidates:
            raise ValueError("policy needs at least one candidate backend")
        self.candidates = tuple(candidates)
        self.amp_weight = float(amp_weight)

    def score(self, backend: str, nkeys: int, nparts: int) -> float:
        bits, amp = estimate_backend(backend, nkeys, nparts)
        return bits + self.amp_weight * (amp - 1.0)

    def rank_backends(self, nkeys: int, nparts: int, epoch: int = 0) -> list[str]:
        """Candidates ordered best-first for this epoch's key set.  Dynamic
        backends (safe fallbacks — they always build) keep their relative
        order after every static backend of equal score."""
        return sorted(self.candidates, key=lambda b: self.score(b, nkeys, nparts))


def build_sealed_aux(
    keys: np.ndarray,
    ranks: np.ndarray | int,
    nparts: int,
    backends: list[str] | tuple[str, ...],
    seed: int = 0,
    metrics: MetricsRegistry | None = None,
    metric_labels: dict | None = None,
) -> AuxTable:
    """Build and finalize an aux table, walking ``backends`` best-first.

    The one aux build: ingest (`ReceiverState.finish`), the flush-time
    policy and compaction all seal through it, every backend sized from
    the exact key count.  A backend that cannot represent this key set —
    the CSF's one-rank-per-key invariant violated, or (vanishingly rare)
    peeling exhaustion — is skipped and the next candidate tried.  The
    winner is recorded in the ``aux.backend.selected`` counter so telemetry
    shows which backend each sealed epoch actually carries.
    """
    keys = np.asarray(keys, dtype=np.uint64).ravel()
    registry = active(metrics)
    last_err: Exception | None = None
    for backend in backends:
        aux = make_aux_table(
            backend,
            nparts,
            capacity_hint=max(1, keys.size),
            seed=seed,
            metrics=metrics,
            metric_labels=metric_labels,
        )
        try:
            if keys.size:
                aux.insert_many(keys, ranks)
            aux.finalize()
        except (ValueError, CsfConstructionError, XorConstructionError) as e:
            last_err = e
            continue
        registry.counter(
            "aux.backend.selected",
            backend=backend,
            **{k: str(v) for k, v in (metric_labels or {}).items()},
        ).inc()
        return aux
    raise RuntimeError(f"no aux backend in {list(backends)} could build") from last_err
