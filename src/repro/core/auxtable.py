"""Auxiliary tables: key → candidate source ranks (paper §III-C, §IV).

An auxiliary table lives at each data partition and records, for every key
the partition owns, *which process wrote the key's data*.  FilterKV makes
this mapping lossy to make it small.  Four backends implement one probe
interface:

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
`CsfAuxTable`
    The maplet view: a compressed static function stores each key's rank
    *directly* (guarded by a fused fingerprint), so present keys resolve
    to exactly one partition — amplification 1.0 at ~1.23·(fp+rank) bits.
    A *sealed* backend: mappings buffer during the shuffle and the
    structure builds at `finalize()` (or first query), matching the
    immutable key set an epoch commits.

Which backend seals is fixed per role, not chosen by a setting: a
`MultiEpochStore` (and every shard, attach and compaction built on one)
seals `STORE_AUX_BACKEND`, the csf, and the paper's `SimCluster` seals
cuckoo.  `AUX_BACKENDS`, the registry behind the seal and the one blob
codec (`state()` / `from_state()` under `aux_to_blob` / `aux_from_blob`),
holds just those two, so a legacy store epoch sealed cuckoo still loads.  Exact and Bloom are the in-memory
baselines of Fig. 7, Table I and the ablations: they insert, probe and
report their size, and a blob naming either is refused.

A sealed csf epoch's tables are also read as one: `EpochAux` holds
their maplets as one union (`filters.csf.MapletUnion`) and answers a
whole read step's keys, whatever their owner partitions, in one probe,
each key and each table's counters exactly as its own table would.

All byte accounting counts only the *index* data (the paper's Fig. 7b
"per-key space overhead"), not the keys or values themselves.
"""

from __future__ import annotations

import json
import math
import struct
from abc import ABC, abstractmethod
from collections.abc import Iterable

import numpy as np

from ..filters.bloom import BloomFilter, false_positive_rate
from ..filters.csf import CsfConstructionError, MapletUnion, XorMaplet, csf_segment
from ..filters.cuckoo import ChainedCuckooTable, PartialKeyCuckooTable
from ..filters.hashing import hash_pair
from ..obs import NULL_REGISTRY, MetricsRegistry, active
from ..storage.sstable import TABLE_BLOOM_BITS

__all__ = [
    "AuxTable",
    "ExactAuxTable",
    "BloomAuxTable",
    "CuckooAuxTable",
    "CsfAuxTable",
    "EpochAux",
    "AUX_BACKENDS",
    "STORE_AUX_BACKEND",
    "build_sealed_aux",
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
    """Default CSF fingerprint width, sized to be a key's one filter (a
    store's filterkv tables carry no Bloom: `pipeline.table_bloom_bits`).

    The narrow guard — the widest that undercuts the Bloom budget after
    the xor construction's ~1.23× slot overhead, floored at 1 bit — passes
    an absent key with probability ``1/(2^fp − 1)``; ``⌈log2(1/fpr)⌉`` more
    bits (7 for a `TABLE_BLOOM_BITS` table Bloom) pass it no more often
    than the narrow guard and that Bloom together.  At N = 16: 9 bits,
    1/511 ≈ 0.20 % against 1/3 × 0.82 % ≈ 0.27 %, at ≈ 16 bits/key against
    ≈ 18.  Present keys resolve to their one true rank at any width."""
    narrow = max(1, int(bloom_bits_per_key(nparts) / 1.23) - rank_bits(nparts))
    return narrow + math.ceil(-math.log2(false_positive_rate(TABLE_BLOOM_BITS)))


# Each byte bit-reversed: the bitstream fills a byte from its top bit (the
# `np.packbits` order blobs have always had), the words below from bit 0.
_REVERSE_BITS = np.asarray([int(f"{b:08b}"[::-1], 2) for b in range(256)], dtype=np.uint8)


def _bit_offsets(count: int, bits: int) -> tuple[np.ndarray, np.ndarray]:
    """Each value's 64-bit word index and (uint8) bit offset in the packed
    stream, in 9 B per value."""
    word = np.arange(0, count * bits, bits, dtype=np.int64)
    shift = (word & 63).astype(np.uint8)
    word >>= 6
    return word, shift


def _pack_bits(values: np.ndarray, bits: int) -> bytes:
    """Pack each value's low ``bits`` (<= 64) bits into a dense bitstream
    (the on-storage representation used for size and compressibility):
    value ``i`` bit ``j`` is stream bit ``i·bits + j``, and each byte holds
    eight stream bits from its top bit down.  Built a 64-bit word at a
    time: each word ORs the values that start in it and the spill of the
    last one before it, so no array is wider than the values."""
    if bits == 0 or values.size == 0:
        return b""
    v = np.asarray(values, dtype=np.uint64).ravel()
    if bits < 64:
        v = v & np.uint64((1 << bits) - 1)
    word, shift = _bit_offsets(v.size, bits)
    nwords = int(word[-1]) + 1
    firsts = np.searchsorted(word, np.arange(nwords))  # every word starts a value
    words = np.zeros(nwords + 1, dtype=np.uint64)
    words[:-1] = np.bitwise_or.reduceat(v << shift, firsts)
    # What crosses into the next word, shifted in two steps: a 64-bit shift
    # is undefined, and a value that starts its word would need one.
    spill = (v >> (np.uint8(63) - shift)) >> np.uint64(1)
    words[1:] |= np.bitwise_or.reduceat(spill, firsts)
    raw = words.astype("<u8", copy=False).view(np.uint8)[: _packed_bytes(v.size, bits)]
    return _REVERSE_BITS[raw].tobytes()


def _unpack_bits(data: bytes, count: int, bits: int) -> np.ndarray:
    """Inverse of `_pack_bits`: recover ``count`` values of ``bits`` bits,
    in ~25 B per value at the peak (a hostile blob's width-2 payload costs
    ~100 B per byte)."""
    if bits == 0 or count == 0:
        return np.zeros(count, dtype=np.uint64)
    word, shift = _bit_offsets(count, bits)
    nbytes = _packed_bytes(count, bits)
    raw = np.zeros(8 * (int(word[-1]) + 2), dtype=np.uint8)
    raw[:nbytes] = _REVERSE_BITS[np.frombuffer(data, dtype=np.uint8, count=nbytes)]
    words = raw.view("<u8").astype(np.uint64, copy=False)
    out = words[1:][word]  # the next word's low bits, for values crossing into it
    out <<= np.uint8(63) - shift  # two steps, as in `_pack_bits`
    out <<= np.uint64(1)
    low = words[word]
    low >>= shift
    out |= low
    if bits < 64:
        out &= np.uint64((1 << bits) - 1)
    return out


def _concat(chunks: list[np.ndarray], dtype) -> np.ndarray:
    """The chunks as one array (an empty list as an empty ``dtype`` array)."""
    return np.concatenate(chunks) if chunks else np.zeros(0, dtype=dtype)


def _packed_bytes(count: int, bits: int) -> int:
    """Length of `_pack_bits` output for ``count`` values of ``bits`` bits."""
    return -(-count * bits // 8)


def _int_field(header: dict, name: str, lo: int = 0, hi: int = 1 << 62) -> int:
    """Required integer blob-header field in ``[lo, hi]``.  The header is
    bytes another process wrote, so a missing, retyped or out-of-range
    field is a `ValueError` here rather than whatever the first array
    operation on it would raise (the default ``hi`` leaves room for the
    small offsets hashing adds to a seed before its uint64 cast)."""
    value = header.get(name)
    if type(value) is not int or not lo <= value <= hi:
        raise ValueError(
            f"aux blob header field {name!r} must be an integer in [{lo}, {hi}], got {value!r}"
        )
    return value


class AuxTable(ABC):
    """Common interface over the four backends.

    Probe accounting lives here: the public `candidate_ranks` /
    `candidates_many` / `candidate_counts` wrap backend-specific
    ``_candidate_*`` hooks and report probes, candidates returned, and
    false candidates (everything beyond the one true rank) into the
    optional metrics registry, so every backend is measured identically.
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

    def _candidate_ranks(self, key: int) -> np.ndarray:
        """Backend lookup for `candidate_ranks` (uninstrumented): the
        `candidates_many` set of the one key.  The sealed backends answer
        it on plain ints instead, for one-key probes."""
        return self._candidates_many(np.asarray([key], dtype=np.uint64))[1]

    @abstractmethod
    def _candidates_many(self, keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Backend lookup for `candidates_many` (uninstrumented)."""

    def _candidate_counts(self, keys: np.ndarray) -> np.ndarray:
        """Backend lookup for `candidate_counts` (uninstrumented): the sizes
        of the `candidates_many` sets, so the three surfaces agree."""
        return self._candidates_many(keys)[0]

    @abstractmethod
    def to_bytes(self) -> bytes:
        """Serialized index payload (what lands on storage)."""

    @property
    @abstractmethod
    def size_bytes(self) -> int:
        """On-storage index size in bytes."""

    def finalize(self) -> None:
        """Freeze the table for sealing.  Dynamic backends are built
        incrementally and need nothing here; the static backend (csf)
        constructs its structure from the buffered mappings and rejects
        further inserts.  A peel that fails on every seed raises
        `CsfConstructionError` here, *before* any blob is sealed."""

    @classmethod
    def finalize_many(cls, tables: list["AuxTable"]) -> None:
        """`finalize` every table of one seal (all of this class).  The
        static backend builds its tables together."""
        for table in tables:
            table.finalize()

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
        total = int(counts.sum())
        self._m_candidates.inc(total)
        extra = total - int(np.count_nonzero(counts))
        if extra:
            self._m_false.inc(extra)
        return counts

    def candidates_many(
        self, keys: np.ndarray, owners: np.ndarray | None = None
    ) -> tuple[np.ndarray, np.ndarray]:
        """Candidate sets for a whole key array — the bulk read path's form.

        Returns ``(counts, flat)`` where ``flat`` concatenates each key's
        sorted distinct candidate ranks and ``counts[i]`` is how many belong
        to key *i* (``flat[counts[:i].sum() : counts[:i+1].sum()]``).  Probe
        accounting is identical to ``keys.size`` `candidate_ranks` calls, so
        counter invariants hold whichever surface a reader uses.
        ``owners``, each key's owner partition, is for a table over a whole
        epoch (`EpochAux`); one partition's table takes none.
        """
        keys = np.asarray(keys, dtype=np.uint64).ravel()
        if owners is None:
            counts, flat = self._candidates_many(keys)
        else:
            counts, flat = self._candidates_many(keys, owners)
        self._count_probes(keys.size, counts, flat, owners)
        return counts, flat

    def _count_probes(self, nkeys: int, counts: np.ndarray, flat: np.ndarray, owners) -> None:
        """Mirror one `candidates_many` call into the probe counters."""
        self._m_probes.inc(nkeys)
        self._m_candidates.inc(flat.size)
        extra = flat.size - int(np.count_nonzero(counts))  # all but one per key with any
        if extra:
            self._m_false.inc(extra)

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

    Stores 12 bytes per key: a 4-byte rank and an 8-byte offset, each
    key's running position in insertion order.  A Fig. 7 baseline: it
    probes and sizes, and never seals.
    """

    POINTER_BYTES = 12
    _POINTER = np.dtype([("rank", "<u4"), ("offset", "<u8")])  # packed: 12 B
    backend = "exact"

    def __init__(
        self, nparts: int, capacity_hint: int | None = None, seed: int = 0, **obs_kwargs
    ):
        # Exact pointers are neither sized nor hashed: the hint and the seed
        # are accepted for the backends' uniform signature and unused.
        super().__init__(nparts, **obs_kwargs)
        self._key_chunks: list[np.ndarray] = []
        self._rank_chunks: list[np.ndarray] = []
        self._sorted: tuple[np.ndarray, np.ndarray] | None = None

    def insert_many(self, keys: np.ndarray, src_ranks: np.ndarray | int) -> None:
        keys, ranks = self._check_insert(keys, src_ranks)
        self._key_chunks.append(keys.copy())
        self._rank_chunks.append(ranks.astype(np.uint32))
        self._nkeys += keys.size
        self._sorted = None

    def _ensure_sorted(self) -> tuple[np.ndarray, np.ndarray]:
        if self._sorted is None:
            keys = _concat(self._key_chunks, np.uint64)
            ranks = _concat(self._rank_chunks, np.uint32)
            order = np.argsort(keys, kind="stable")
            self._sorted = (keys[order], ranks[order])
        return self._sorted

    def _candidates_many(self, keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        skeys, ranks = self._ensure_sorted()
        lo = np.searchsorted(skeys, keys, side="left")
        hi = np.searchsorted(skeys, keys, side="right")
        span = (hi - lo).astype(np.int64)
        if (span <= 1).all():  # no duplicated keys: one rank slice suffices
            return span, ranks[lo[span == 1]].astype(np.int64)
        parts = [np.unique(ranks[l:h]).astype(np.int64) for l, h in zip(lo, hi)]
        counts = np.asarray([len(p) for p in parts], dtype=np.int64)
        return counts, _concat(parts, np.int64)

    def to_bytes(self) -> bytes:
        ranks = _concat(self._rank_chunks, np.uint32)
        ptrs = np.empty(ranks.size, dtype=self._POINTER)
        ptrs["rank"], ptrs["offset"] = ranks, np.arange(ranks.size, dtype=np.uint64)
        return ptrs.tobytes()

    @property
    def size_bytes(self) -> int:
        return self._nkeys * self.POINTER_BYTES


class BloomAuxTable(AuxTable):
    """Bloom-filter aux table: insert key‖rank, probe every rank (§IV-A).
    A Fig. 7 baseline: it probes and sizes, and never seals."""

    backend = "bloom"

    def __init__(
        self,
        nparts: int,
        capacity_hint: int | None = None,
        bits_per_key: float | None = None,
        seed: int = 0,
        **obs_kwargs,
    ):
        super().__init__(nparts, **obs_kwargs)
        if capacity_hint is None:
            capacity_hint = 1024
        if capacity_hint <= 0:
            raise ValueError("capacity_hint must be positive")
        self.bits_per_key = bloom_bits_per_key(nparts) if bits_per_key is None else bits_per_key
        self._filter = BloomFilter.from_bits_per_key(capacity_hint, self.bits_per_key, seed=seed)

    def insert_many(self, keys: np.ndarray, src_ranks: np.ndarray | int) -> None:
        keys, ranks = self._check_insert(keys, src_ranks)
        self._filter.add_many(hash_pair(keys, ranks))
        self._nkeys += keys.size

    def _hits_matrix(self, keys: np.ndarray) -> np.ndarray:
        """Membership of every ``key‖rank`` digest — one vectorized pass,
        shape ``(len(keys), nparts)``."""
        ranks = np.arange(self.nparts, dtype=np.uint64)
        digests = hash_pair(np.repeat(keys, ranks.size), np.tile(ranks, keys.size))
        return self._filter.contains_many(digests).reshape(keys.size, ranks.size)

    def _candidates_many(self, keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """All N ``key‖rank`` digests per batch tested in one vectorized
        membership pass (chunked over keys to bound the digest matrix)."""
        counts = np.zeros(keys.size, dtype=np.int64)
        flats: list[np.ndarray] = []
        chunk = max(1, (1 << 22) // max(1, self.nparts))
        for start in range(0, keys.size, chunk):
            sub = keys[start : start + chunk]
            hits = self._hits_matrix(sub)
            rows, ranks = np.nonzero(hits)  # row-major: ranks ascend per key
            counts[start : start + sub.size] = np.bincount(rows, minlength=sub.size)
            flats.append(ranks.astype(np.int64))
        return counts, _concat(flats, np.int64)

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
            return super()._candidate_counts(keys)
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
    MAX_CHAIN = 64  # tables `from_state` accepts; a planned chain halves, so no build nears it

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

    def state(self) -> tuple[dict, bytes]:
        t = self._table
        fields = dict(
            fp_bits=t.fp_bits,
            value_bits=t.value_bits,
            slots_per_bucket=t.slots_per_bucket,
            max_kicks=t.max_kicks,
            seed=t.seed,
            nbuckets=[pt.nbuckets for pt in t.tables],
        )
        return fields, self.to_bytes()

    @classmethod
    def from_state(cls, nparts, nkeys, header, payload, **obs_kwargs) -> "CuckooAuxTable":
        fp_bits = _int_field(header, "fp_bits", 1, 32)
        value_bits = _int_field(header, "value_bits", rank_bits(nparts), rank_bits(nparts))
        spb = _int_field(header, "slots_per_bucket", 1, 256)
        max_kicks = _int_field(header, "max_kicks")
        seed = _int_field(header, "seed")
        nbuckets = header.get("nbuckets")
        if (
            type(nbuckets) is not list
            or not 1 <= len(nbuckets) <= cls.MAX_CHAIN
            or any(type(nb) is not int or nb < 1 or nb & (nb - 1) for nb in nbuckets)
        ):
            raise ValueError(
                f"cuckoo nbuckets must list 1..{cls.MAX_CHAIN} positive powers of two, "
                f"got {nbuckets!r}"
            )
        # Every table's packed length, in Python ints: a header naming 2^36
        # buckets is refused here, against the bytes actually present.
        width = fp_bits + value_bits
        sizes = [_packed_bytes(nb * spb, width) for nb in nbuckets]
        if sum(sizes) != len(payload):
            raise ValueError(
                f"cuckoo payload is {len(payload)} B, header geometry implies {sum(sizes)}"
            )
        aux = cls(nparts, fp_bits=fp_bits, seed=seed, slots_per_bucket=spb, **obs_kwargs)
        chained = aux._table
        chained.max_kicks = max_kicks
        chained.tables = []
        off = 0
        for i, (nb, nbytes) in enumerate(zip(nbuckets, sizes)):
            slots = _unpack_bits(payload[off : off + nbytes], nb * spb, width)
            off += nbytes
            # Both fields fit 32 bits: split straight into the table's dtype.
            fps = (slots >> np.uint64(value_bits)).astype(np.uint32)
            slots &= np.uint64((1 << value_bits) - 1)
            vals = slots.astype(np.uint32)
            del slots
            if (vals[fps != 0] >= nparts).any():
                raise ValueError(f"cuckoo table {i} stores a rank >= {nparts} partitions")
            chained.tables.append(
                PartialKeyCuckooTable.from_arrays(
                    fps.reshape(nb, spb),
                    vals.reshape(nb, spb),
                    fp_bits=fp_bits,
                    value_bits=value_bits,
                    max_kicks=max_kicks,
                    seed=seed + i,
                )
            )
        aux._nkeys = nkeys
        return aux

    @property
    def size_bytes(self) -> int:
        return self._table.size_bytes


class CsfAuxTable(AuxTable):
    """Compressed-static-function aux table: the maplet view.

    Every other lossy backend stores *memberships* and reconstructs the
    mapping by probing; the CSF stores the mapping itself.  A sealed
    epoch's key→rank pairs build an `XorMaplet` whose lookup returns the
    owner rank directly, guarded by a fused fingerprint: present keys
    resolve to exactly one partition (amplification 1.0 — no dynamic
    filter can match that), out-of-set keys leak a false candidate with
    probability ``≈2^-fp_bits``.  Cost: ~1.23·(fp_bits + rank_bits(N))
    bits per key.  The default `csf_fp_bits` guard is sized to be the
    record's one filter: a store's filterkv tables carry no Bloom behind
    it, and aux alone (≈16 bits/key at N = 16) is below what aux plus
    table Bloom cost with the narrower guard (≈18).

    A static function holds one value per key: a key that two ranks wrote
    maps to the lower one, the rank the reader's ascending walk would
    stop at first and the merge's (recency desc, rank asc) order keeps.
    """

    backend = "csf"

    def __init__(
        self,
        nparts: int,
        capacity_hint: int | None = None,
        fp_bits: int | None = None,
        seed: int = 0,
        **obs_kwargs,
    ):
        # Built from the sealed key set at `finalize()`: the hint is accepted
        # for the registry's uniform signature and unused.
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
        if not self._finalized:  # every blob accessor calls it
            self.finalize_many([self])

    @classmethod
    def finalize_many(cls, tables: list["AuxTable"]) -> None:
        """Build every pending table's maplet in one `XorMaplet.build_many`
        per slot width: each table equals the one `finalize` builds alone.
        A table whose peel fails on every seed raises `CsfConstructionError`."""
        builds: dict[tuple[int, int], list[tuple[CsfAuxTable, np.ndarray, np.ndarray]]] = {}
        for t in tables:
            if not t._pending_keys:
                t._finalized = True  # keyless (or already built): no maplet to build
                continue
            keys, ranks = t._distinct_mappings()
            builds.setdefault((t.value_bits, t.fp_bits), []).append((t, keys, ranks))
        for (value_bits, fp_bits), group in builds.items():
            maplets = XorMaplet.build_many(
                [(keys, ranks, t.seed) for t, keys, ranks in group], value_bits, fp_bits
            )
            for (t, _, _), maplet in zip(group, maplets):
                if maplet is None:
                    raise CsfConstructionError("peeling failed for every seed")
                t._maplet = maplet
                t._pending_keys.clear()
                t._pending_ranks.clear()
                t._finalized = True

    def _distinct_mappings(self) -> tuple[np.ndarray, np.ndarray]:
        """The buffered mappings, each key once (the one sort of the build),
        a key mapped to several ranks at the lowest of them."""
        keys = np.concatenate(self._pending_keys)
        ranks = np.concatenate(self._pending_ranks)
        # Only a repeated key needs the keys ordered: the maplet is a
        # function of the key set, not of the order keys arrive in.
        skeys = np.sort(keys)
        if (skeys[1:] == skeys[:-1]).any():
            order = np.lexsort((ranks, keys))  # by key, each key's ranks ascending
            keys, ranks = keys[order], ranks[order]
            first = np.concatenate(([True], keys[1:] != keys[:-1]))
            keys, ranks = keys[first], ranks[first]
        return keys, ranks

    def _candidate_ranks(self, key: int) -> np.ndarray:
        """`XorMaplet.get`: the one-key probe in plain ints."""
        if not self._finalized:  # sealed tables skip even the call
            self.finalize()
        rank = self._maplet.get(key) if self._maplet is not None else None
        # rank_bits can name ranks >= nparts: those are guard escapes.
        if rank is None or rank >= self.nparts:
            return np.zeros(0, dtype=np.int64)
        return np.asarray([rank], dtype=np.int64)

    def _candidates_many(self, keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        if keys.size == 1:  # a lone key skips the array hashing, as the cuckoo's does
            ranks = self._candidate_ranks(int(keys[0]))
            return np.asarray([ranks.size], dtype=np.int64), ranks
        if not self._finalized:
            self.finalize()
        if self._maplet is None:
            return np.zeros(keys.size, dtype=np.int64), np.zeros(0, dtype=np.int64)
        hits, values = self._maplet.lookup_many(keys)
        valid = hits & (values < np.uint64(self.nparts))
        return valid.astype(np.int64), values[valid].astype(np.int64)

    def to_bytes(self) -> bytes:
        self.finalize()
        if self._maplet is None:
            return b""
        return _pack_bits(self._maplet._slots, self._maplet.slot_bits)

    def state(self) -> tuple[dict, bytes]:
        self.finalize()
        m = self._maplet
        # seed is the *final* seed construction settled on, so the reload
        # recomputes the same slot positions without re-peeling.
        fields = dict(
            fp_bits=self.fp_bits,
            value_bits=self.value_bits,
            seed=m.seed if m is not None else self.seed,
            segment=m.nslots // 3 if m is not None else 0,
            fnkeys=m.nkeys if m is not None else 0,
        )
        return fields, self.to_bytes()

    @classmethod
    def from_state(cls, nparts, nkeys, header, payload, **obs_kwargs) -> "CsfAuxTable":
        fp_bits = _int_field(header, "fp_bits", 1, 32)
        value_bits = _int_field(header, "value_bits", rank_bits(nparts), rank_bits(nparts))
        seed = _int_field(header, "seed")
        segment = _int_field(header, "segment")
        fnkeys = _int_field(header, "fnkeys", 0, nkeys)  # distinct keys of the nkeys sealed
        if segment != (csf_segment(fnkeys) if fnkeys else 0):
            raise ValueError(f"csf segment {segment} is not the one {fnkeys} keys build")
        width = fp_bits + value_bits
        want = _packed_bytes(3 * segment, width)  # 0 for the keyless table
        if len(payload) != want:
            raise ValueError(f"csf payload is {len(payload)} B, expected {want}")
        aux = cls(nparts, fp_bits=fp_bits, seed=seed, **obs_kwargs)
        if segment:
            slots = _unpack_bits(payload, 3 * segment, width)
            aux._maplet = XorMaplet.from_state(slots, fnkeys, value_bits, fp_bits, seed)
        aux._finalized = True
        aux._nkeys = nkeys
        return aux

    @property
    def size_bytes(self) -> int:
        self.finalize()
        return self._maplet.size_bytes if self._maplet is not None else 0


class EpochAux(AuxTable):
    """One sealed epoch's csf aux tables, probed as one.

    The tables' maplets are held as one `MapletUnion` (each table's slots
    become a view of it), so `candidates_many` answers keys of every owner
    partition with one hash and one gather; ``owners`` names each key's
    partition.  Each key's candidates, and each table's ``aux.*``
    counters, are exactly those of the key's own table: a present key has
    its one rank, an absent one none or a false one.  One key takes its
    table's plain-int probe (`XorMaplet.get`).  `over` builds one only
    when every partition is csf; a reader probes any other epoch (a legacy
    cuckoo seal, or a merge that adopted one) partition by partition.
    """

    def __init__(self, tables: list[CsfAuxTable]):
        super().__init__(len(tables))  # its own counters are the null registry's
        self.tables = tables
        first = tables[0]
        self._union = MapletUnion([t._maplet for t in tables], first.value_bits, first.fp_bits)
        self._counted = any(t.metrics is not NULL_REGISTRY for t in tables)

    @classmethod
    def over(cls, tables: list[AuxTable | None]) -> "EpochAux | None":
        """The union of one epoch's per-partition ``tables``, or None
        unless each is a sealed csf table of one slot width over
        ``len(tables)`` partitions."""
        if not all(type(t) is CsfAuxTable and t._finalized for t in tables):
            return None
        shapes = {(t.nparts, t.value_bits, t.fp_bits) for t in tables}
        if len(shapes) != 1 or tables[0].nparts != len(tables):
            return None
        return cls(tables)

    def insert_many(self, keys: np.ndarray, src_ranks: np.ndarray | int) -> None:
        raise ValueError("an epoch's aux tables are sealed")

    def _candidates_many(self, keys: np.ndarray, owners: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        if keys.size == 1:
            return self.tables[int(owners[0])]._candidates_many(keys)
        hits, values = self._union.lookup_many(keys, owners)
        valid = hits & (values < np.uint64(self.nparts))  # rank_bits can name ranks >= nparts
        return valid.astype(np.int64), values[valid].astype(np.int64)

    def _count_probes(self, nkeys: int, counts: np.ndarray, flat: np.ndarray, owners) -> None:
        """Each owner's table counts its keys' probes and candidates (a csf
        key has at most one candidate, so none is false)."""
        if not self._counted:
            return
        probes = np.bincount(owners, minlength=self.nparts).tolist()
        found = np.bincount(owners, weights=counts, minlength=self.nparts).tolist()
        for table, p, c in zip(self.tables, probes, found):
            if p:
                table._m_probes.inc(p)
                table._m_candidates.inc(int(c))

    def to_bytes(self) -> bytes:
        return b"".join(t.to_bytes() for t in self.tables)

    @property
    def size_bytes(self) -> int:
        return sum(t.size_bytes for t in self.tables)


# The backends that seal, name → class: the registry behind
# `build_sealed_aux` and the blob codec.  Exact and Bloom are Fig. 7
# baselines and stay out of it, so a blob naming either is refused.
AUX_BACKENDS: dict[str, type[AuxTable]] = {
    cls.backend: cls for cls in (CuckooAuxTable, CsfAuxTable)
}

# What a `MultiEpochStore` seals with, at ingest and in every merge: the
# tournament's winner (`benchmarks/results/aux_tournament.txt`: fewest
# filter bits per stored key, aux plus table Bloom, one candidate per
# present key, and a build within 2.5x the cuckoo's).  Its guard is the
# key's one filter, so the epoch's tables carry no Bloom
# (`pipeline.table_bloom_bits`).  `SimCluster` seals the paper's cuckoo
# for its figures.  Read at each write, so a test can patch it to write
# the cuckoo epochs earlier stores sealed.
STORE_AUX_BACKEND = "csf"


_BLOB_HDR = struct.Struct("<I")  # length of the JSON header that follows
_BLOB_VERSION = 2  # the header's mandatory "v" tag; the only version read


def aux_to_blob(aux: AuxTable) -> bytes:
    """Self-describing serialization: JSON geometry header + index payload.

    This is what lands in an ``aux.<epoch>.<rank>`` extent (sealed by the
    pipeline), and what `aux_from_blob` reloads after a restart.  The
    framing is here; the backend-specific header fields and the payload
    are the table's own ``state()``, which only the `AUX_BACKENDS` have.
    Serialization finalizes static backends as a side effect.
    """
    aux.finalize()
    fields, payload = aux.state()
    header = dict(fields, v=_BLOB_VERSION, backend=aux.backend, nparts=aux.nparts, nkeys=len(aux))
    hdr = json.dumps(header, sort_keys=True).encode()
    return _BLOB_HDR.pack(len(hdr)) + hdr + payload


def aux_from_blob(
    blob: bytes,
    metrics: MetricsRegistry | None = None,
    metric_labels: dict | None = None,
) -> AuxTable:
    """Rebuild an aux table from an `aux_to_blob` serialization.

    Both `AUX_BACKENDS` reload exactly: the reloaded table answers the
    same candidate sets for every key, and re-serializing it reproduces
    the blob bit-for-bit (the parity harness asserts both).  The blob comes
    from storage (an epoch's sealed aux extent, read at attach), so it may
    be damaged or written by other code: torn framing, a header that is
    no object, another or no version tag, a backend outside `AUX_BACKENDS`
    (exact and Bloom included) and whatever the backend's ``from_state``
    refuses are all a `ValueError`.  Each
    ``from_state`` validates its header fields and the payload length they
    imply *before* allocating anything sized from them.
    """
    if len(blob) < _BLOB_HDR.size:
        raise ValueError(f"aux blob too short ({len(blob)} B)")
    (hdr_len,) = _BLOB_HDR.unpack_from(blob)
    if len(blob) < _BLOB_HDR.size + hdr_len:
        raise ValueError("aux blob truncated inside header")
    try:
        header = json.loads(blob[_BLOB_HDR.size : _BLOB_HDR.size + hdr_len])
    except (ValueError, RecursionError) as e:  # bad UTF-8, bad JSON, nesting bomb
        raise ValueError(f"malformed aux blob header: {e}") from e
    if not isinstance(header, dict):
        raise ValueError(f"aux blob header is a JSON {type(header).__name__}, not an object")
    if header.get("v") != _BLOB_VERSION or type(header["v"]) is not int:
        raise ValueError(
            f"aux blob version tag is {header.get('v')!r}; this reader supports only "
            f"v{_BLOB_VERSION} (no tag: a blob older than the tag)"
        )
    backend = header.get("backend")
    cls = AUX_BACKENDS.get(backend) if isinstance(backend, str) else None
    if cls is None:
        raise ValueError(
            f"aux blob names unknown backend {backend!r}; blobs are {sorted(AUX_BACKENDS)}"
        )
    nparts = _int_field(header, "nparts", 1, 1 << 32)  # ranks are 32-bit everywhere
    nkeys = _int_field(header, "nkeys")
    payload = blob[_BLOB_HDR.size + hdr_len :]
    return cls.from_state(
        nparts, nkeys, header, payload, metrics=metrics, metric_labels=metric_labels
    )


# Keys per union `build_sealed_aux` hands `finalize_many`: one ingest seal
# at the benchmarks' 16 x 256 fits, and a compaction table of thousands of
# keys builds alone or with a few others, where batching gains little and
# a larger union only holds more memory.
_UNION_KEYS = 8192


def build_sealed_aux(
    parts: Iterable[tuple[int, np.ndarray, np.ndarray | int]],
    nparts: int,
    backend: str,
    seed: int,
    metrics: MetricsRegistry | None,
) -> list[AuxTable]:
    """Build and finalize every partition's ``backend`` aux table of one
    seal.

    The one aux build: ingest (`pipeline.build_aux`) and compaction both
    seal through it.  ``parts`` yields ``(partition, keys, source ranks)``
    in partition order; that table is seeded ``seed + partition``, labelled
    ``rank=partition`` and sized from its exact key count.  The paper's N
    receivers build their tables in parallel on N ranks; here one process
    builds them, so the tables build together: partitions are taken as
    they come into unions of up to `_UNION_KEYS` keys (a larger table
    builds alone), and each union finalizes through one
    `AuxTable.finalize_many` (the csf tables peel in one round loop), so
    every table equals the one built alone.  A table that cannot build
    (every seed's csf peel failing) raises before any blob is sealed, and
    a ``backend`` outside `AUX_BACKENDS` before any table builds.
    """
    cls = AUX_BACKENDS.get(backend) if isinstance(backend, str) else None
    if cls is None:
        raise ValueError(f"aux backend must name one of {sorted(AUX_BACKENDS)}, got {backend!r}")
    sealed: list[AuxTable] = []
    union: list[AuxTable] = []
    size = 0
    for part, keys, ranks in parts:
        keys = np.asarray(keys, dtype=np.uint64).ravel()
        if union and size + keys.size > _UNION_KEYS:
            cls.finalize_many(union)
            sealed += union
            union, size = [], 0
        aux = cls(
            nparts,
            capacity_hint=max(1, keys.size),
            seed=seed + part,
            metrics=metrics,
            metric_labels={"rank": str(part)},
        )
        if keys.size:
            aux.insert_many(keys, ranks)
        union.append(aux)
        size += keys.size
    cls.finalize_many(union)
    return sealed + union
