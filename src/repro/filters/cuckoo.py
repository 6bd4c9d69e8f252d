"""Partial-key cuckoo hash tables (paper §IV-B, Figs. 5–6).

A partial-key cuckoo hash table stores, for every inserted key, a small
fingerprint (the *partial key*) plus an application value — here the source
rank of a KV pair.  Each key maps to two candidate buckets; the alternate
bucket is computable from the fingerprint alone (``b2 = b1 ^ h(fp)``), which
is what makes relocation possible without retaining full keys.

Two classes:

`PartialKeyCuckooTable`
    A single fixed-size table.  Insertion uses a *non-destructive* eviction
    path search: a random walk over candidate relocations is simulated
    first, and the table is only mutated once a complete path to an empty
    slot is known.  A failed insert therefore leaves the table untouched and
    raises `CuckooTableFull` — the property the chained-growth scheme relies
    on.

`ChainedCuckooTable`
    The paper's growth scheme: rather than doubling (which either wastes
    half the slots or requires retaining every key for a rehash), a full
    table is *frozen* and a smaller overflow table is chained in front of it
    (e.g. a 1 M-slot table plus a 128 K-slot table holding 1.1 M keys at
    ~95 % combined utilization).

Bulk insertion and lookup are vectorized with NumPy; only the eviction tail
(the few percent of keys whose both buckets are full) takes the scalar path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import islice
from typing import Iterator

import numpy as np

from .hashing import MASK64, fingerprint, hash64, splitmix64_int

__all__ = [
    "CuckooTableFull",
    "PartialKeyCuckooTable",
    "ChainedCuckooTable",
    "CuckooStats",
]

_EMPTY = np.uint32(0)  # fingerprint 0 marks an empty slot
_PER_TABLE_HEADER_BYTES = 32  # footer/metadata charged per physical table
_MIN_UTILIZATION = 0.90  # what a planned chain reaches whenever table sizes allow
# The load bulk insertion walks a chained table up to before moving on
# (random walks fill 4-way buckets to ~0.98, so 0.95 keeps them short and
# reproduces the paper's sizing example exactly).
_LOAD_TARGET = 0.95


class CuckooTableFull(Exception):
    """Raised when no eviction path to an empty slot exists for an insert."""


@dataclass(frozen=True)
class CuckooStats:
    """Occupancy and space accounting for a (chained) cuckoo table."""

    nkeys: int
    nslots: int
    ntables: int
    size_bytes: int
    kicks: int = 0
    failed_inserts: int = 0

    @property
    def utilization(self) -> float:
        """Fraction of allocated slots actually holding an entry."""
        return self.nkeys / self.nslots if self.nslots else 0.0

    @property
    def bytes_per_key(self) -> float:
        return self.size_bytes / self.nkeys if self.nkeys else 0.0


def _round_pow2(n: int) -> int:
    """Smallest power of two >= n (and >= 1)."""
    return 1 << max(0, math.ceil(math.log2(max(1, n))))


class PartialKeyCuckooTable:
    """A single fixed-size partial-key cuckoo hash table.

    Parameters
    ----------
    nbuckets:
        Number of buckets; rounded up to a power of two.
    fp_bits:
        Fingerprint width in bits (the paper uses 4).
    value_bits:
        Width of the stored value (``log2(N)`` for N data partitions).
        ``0`` is allowed, degrading the table to a plain cuckoo *filter*.
    slots_per_bucket:
        Bucket associativity (the paper and Fan et al. use 4).
    max_kicks:
        Bound on the relocation walk before declaring the table full
        (the paper quotes 500).
    """

    def __init__(
        self,
        nbuckets: int,
        fp_bits: int = 4,
        value_bits: int = 16,
        slots_per_bucket: int = 4,
        max_kicks: int = 500,
        seed: int = 0,
    ):
        if not 1 <= fp_bits <= 32:
            raise ValueError(f"fp_bits must be in [1, 32], got {fp_bits}")
        if not 0 <= value_bits <= 32:
            raise ValueError(f"value_bits must be in [0, 32], got {value_bits}")
        if slots_per_bucket < 1:
            raise ValueError("slots_per_bucket must be >= 1")
        self.nbuckets = _round_pow2(nbuckets)
        self.fp_bits = int(fp_bits)
        self.value_bits = int(value_bits)
        self.slots_per_bucket = int(slots_per_bucket)
        self.max_kicks = int(max_kicks)
        self.seed = int(seed)
        self._mask = np.uint64(self.nbuckets - 1)
        self._fps = np.zeros((self.nbuckets, self.slots_per_bucket), dtype=np.uint32)
        self._vals = np.zeros((self.nbuckets, self.slots_per_bucket), dtype=np.uint32)
        self._occ = np.zeros(self.nbuckets, dtype=np.int64)
        self._nkeys = 0
        self.kicks = 0  # entries displaced by successful eviction walks
        self.failed_inserts = 0  # walks that burned max_kicks and gave up
        self._rng: np.random.Generator | None = None  # eviction randomness, made on first use
        # Alternate-bucket displacement per fingerprint value, precomputed so
        # the eviction walk runs on plain Python ints (fingerprints are only
        # fp_bits wide, so the table is small).  The first insert builds it;
        # `from_arrays` decides for the table it reloads.
        self._alt_lut: np.ndarray | None = None
        self._alt_lut_list: list[int] | None = None
        # Scalar probe constants (plain Python ints): the serving tier and
        # the fleet router probe one key per request, where per-call array
        # overhead dwarfs the hashing itself.
        self._mask_int = self.nbuckets - 1
        self._fp_span = (1 << self.fp_bits) - 1
        self._seed_mix = splitmix64_int(self.seed & MASK64)
        self._fp_seed_mix = splitmix64_int((self.seed + 0x5BD1) & MASK64)
        self._alt_seed_mix = splitmix64_int((self.seed + 0xA17) & MASK64)

    # -- addressing -------------------------------------------------------

    def _ensure_alt_lut(self) -> None:
        """Build the alternate-bucket lookup table unless it exists or the
        fingerprints are too wide for one (the hash is computed instead)."""
        if self._alt_lut is None and self.fp_bits <= 20:
            fp_values = np.arange(1 << self.fp_bits, dtype=np.uint64)
            self._alt_lut = (hash64(fp_values, self.seed + 0xA17) & self._mask).astype(np.int64)
            self._alt_lut_list = self._alt_lut.tolist()

    def _fingerprints(self, keys: np.ndarray) -> np.ndarray:
        return fingerprint(keys, self.fp_bits, seed=self.seed + 0x5BD1).astype(np.uint32)

    def _primary_buckets(self, keys: np.ndarray) -> np.ndarray:
        return (hash64(keys, self.seed) & self._mask).astype(np.int64)

    def _alt_buckets(self, buckets: np.ndarray, fps: np.ndarray) -> np.ndarray:
        """Alternate bucket, computable from (bucket, fingerprint) alone."""
        if self._alt_lut is not None:
            return np.asarray(buckets, dtype=np.int64) ^ self._alt_lut[np.asarray(fps)]
        h = hash64(np.asarray(fps, dtype=np.uint64), self.seed + 0xA17) & self._mask
        return (np.asarray(buckets, dtype=np.uint64) ^ h).astype(np.int64)

    def _alt_bucket_scalar(self, bucket: int, fp: int) -> int:
        if self._alt_lut is not None:
            return bucket ^ int(self._alt_lut[fp])
        h = hash64(np.uint64(fp), self.seed + 0xA17) & self._mask
        return bucket ^ int(h)

    # -- insertion --------------------------------------------------------

    def insert(self, key: int, value: int = 0) -> None:
        """Insert one key→value mapping; raises `CuckooTableFull` on failure."""
        self._ensure_alt_lut()
        keys = np.asarray([key], dtype=np.uint64)
        fp = int(self._fingerprints(keys)[0])
        b1 = int(self._primary_buckets(keys)[0])
        self._insert_fp(fp, int(value), b1)

    def _insert_fp(self, fp: int, value: int, b1: int, picks: Iterator[int] | None = None) -> None:
        b2 = self._alt_bucket_scalar(b1, fp)
        for b in (b1, b2):
            if self._occ[b] < self.slots_per_bucket:
                self._place(b, fp, value)
                return
        self._insert_with_eviction(fp, value, b1, b2, picks or self._slot_picks())

    def _place(self, bucket: int, fp: int, value: int) -> None:
        slot = int(self._occ[bucket])
        self._fps[bucket, slot] = fp
        self._vals[bucket, slot] = value
        self._occ[bucket] += 1
        self._nkeys += 1

    def _slot_picks(self) -> Iterator[int]:
        """Endless stream of uniform slot indices for eviction walks, drawn a
        block at a time: one stream serves a whole batch, so a walk pays for
        the picks it uses, not for an RNG call."""
        if self._rng is None:
            self._rng = np.random.default_rng(self.seed ^ 0xC0C0)
        while True:
            yield from self._rng.integers(
                self.slots_per_bucket, size=1024, dtype=np.uint8
            ).tobytes()

    def _insert_with_eviction(
        self, fp: int, value: int, b1: int, b2: int, picks: Iterator[int]
    ) -> None:
        """Random-walk eviction, simulated first and applied only on success.

        The walk records its displacements in an overlay dict instead of
        mutating the table, so (a) a failed insert leaves the table
        byte-identical to its pre-insert state, and (b) revisits of the same
        slot during the walk observe the simulated — i.e. eventual — contents
        rather than stale ones.
        """
        # Tight scalar loop: everything is a Python int — table cells are
        # read with ndarray.item on a flat slot index (no 0-d array round
        # trip), the alternate bucket comes from a list LUT and the slot
        # picks from the batch's stream — this walk is the only per-record
        # work left at high load.
        slots_per_bucket = self.slots_per_bucket
        fps_item = self._fps.item
        vals_item = self._vals.item
        occ_item = self._occ.item
        lut = self._alt_lut_list
        # Start bucket: parity of one pick (fair for even associativity; a
        # bias would only shift where walks begin).
        bucket = b2 if next(picks) & 1 else b1
        writes: dict[int, tuple[int, int]] = {}
        cur_fp, cur_val = int(fp), int(value)
        for slot in islice(picks, self.max_kicks):
            cell = bucket * slots_per_bucket + slot
            victim = writes.get(cell)
            if victim is None:
                victim = (fps_item(cell), vals_item(cell))
            writes[cell] = (cur_fp, cur_val)
            cur_fp, cur_val = victim
            if lut is not None:
                bucket ^= lut[cur_fp]
            else:
                bucket = self._alt_bucket_scalar(bucket, cur_fp)
            if occ_item(bucket) < slots_per_bucket:
                flat_fps, flat_vals = self._fps.reshape(-1), self._vals.reshape(-1)
                for cell, (wfp, wval) in writes.items():
                    flat_fps[cell] = wfp
                    flat_vals[cell] = wval
                self._place(bucket, cur_fp, cur_val)
                self.kicks += len(writes)
                return
        self.failed_inserts += 1
        raise CuckooTableFull(
            f"no eviction path within {self.max_kicks} kicks "
            f"(load {self._nkeys}/{self.capacity_slots})"
        )

    def insert_many(
        self, keys: np.ndarray, values: np.ndarray | int = 0, fill_to: int | None = None
    ) -> np.ndarray:
        """Bulk insert; returns a boolean mask of keys that fit.

        Keys whose buckets have free slots are placed with vectorized
        scatter (resolving intra-batch collisions by bucket-sorting); the
        remainder falls back to the scalar eviction path, which stops once
        the table holds ``fill_to`` keys (direct placement is free and may
        go past it).  The table is left valid regardless of how many keys
        fit.
        """
        keys = np.asarray(keys, dtype=np.uint64).ravel()
        n = keys.size
        vals = np.broadcast_to(np.asarray(values, dtype=np.uint32), (n,)).copy()
        if n == 0:
            return np.zeros(0, dtype=bool)
        self._ensure_alt_lut()
        fps = self._fingerprints(keys)
        b1 = self._primary_buckets(keys)
        b2 = self._alt_buckets(b1, fps)
        inserted = np.zeros(n, dtype=bool)

        # Two direct rounds (a key that misses both has two full buckets,
        # and slots never free, so a retry could not place it), then one
        # vectorized displacement round per side: most stranded keys sit one
        # move away from a free slot.
        pending = np.arange(n)
        for step, side in (
            (self._bulk_place, b1),
            (self._bulk_place, b2),
            (self._bulk_displace, b1),
            (self._bulk_displace, b2),
        ):
            if pending.size == 0:
                break
            placed = step(side[pending], fps[pending], vals[pending])
            inserted[pending[placed]] = True
            pending = pending[~placed]

        # Scalar eviction tail.  The first failed eviction walk is strong
        # evidence the table is saturated; later items would almost all burn
        # max_kicks too, so we stop and leave them for the caller (the
        # chained scheme opens an overflow table for exactly this case).
        picks = self._slot_picks()
        for i in pending:
            if fill_to is not None and self._nkeys >= fill_to:
                break
            try:
                self._insert_fp(int(fps[i]), int(vals[i]), int(b1[i]), picks)
                inserted[i] = True
            except CuckooTableFull:
                break
        return inserted

    def _bulk_place(self, buckets: np.ndarray, fps: np.ndarray, vals: np.ndarray) -> np.ndarray:
        """Vectorized placement into ``buckets`` where free slots exist."""
        n = buckets.size
        # Stable argsort on a narrow dtype takes numpy's radix path — same
        # order (bucket ids are < nbuckets), several times faster.
        narrow = buckets.astype(np.uint16) if self.nbuckets <= 0x10000 else buckets
        order = np.argsort(narrow, kind="stable")
        bs = buckets[order]
        idx = np.arange(n)
        new_group = np.empty(n, dtype=bool)
        new_group[0] = True
        new_group[1:] = bs[1:] != bs[:-1]
        group_start = np.maximum.accumulate(np.where(new_group, idx, 0))
        seq = idx - group_start
        slots = self._occ[bs] + seq
        ok = slots < self.slots_per_bucket
        self._fps[bs[ok], slots[ok]] = fps[order][ok]
        self._vals[bs[ok], slots[ok]] = vals[order][ok]
        np.add.at(self._occ, bs[ok], 1)
        self._nkeys += int(ok.sum())
        placed = np.zeros(n, dtype=bool)
        placed[order[ok]] = True
        return placed

    def _bulk_displace(self, buckets: np.ndarray, fps: np.ndarray, vals: np.ndarray) -> np.ndarray:
        """Vectorized depth-one eviction into full ``buckets``: where a
        resident's alternate bucket has room, move it there and give its
        cell to the incoming entry.  Every move is a complete insert, so
        the table is valid whichever subset succeeds."""
        n = buckets.size
        spb = self.slots_per_bucket
        res_fps = self._fps[buckets]
        alts = self._alt_buckets(np.repeat(buckets, spb), res_fps.ravel()).reshape(n, spb)
        room = self._occ[alts] < spb
        slot = room.argmax(axis=1)
        movers = np.flatnonzero(room[np.arange(n), slot])
        placed = np.zeros(n, dtype=bool)
        if movers.size == 0:
            return placed
        # One incoming entry per resident cell.
        _, first = np.unique(buckets[movers] * spb + slot[movers], return_index=True)
        movers = movers[first]
        b, j = buckets[movers], slot[movers]
        moved = self._bulk_place(alts[movers, j], res_fps[movers, j], self._vals[b, j])
        movers, b, j = movers[moved], b[moved], j[moved]
        self._fps[b, j] = fps[movers]
        self._vals[b, j] = vals[movers]
        placed[movers] = True
        return placed

    # -- lookup -----------------------------------------------------------

    def lookup_many(self, keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Candidate values for each key.

        Returns ``(vals, match)`` where both have shape
        ``(nkeys, 2 * slots_per_bucket)``; ``match[i, j]`` is True where the
        slot's fingerprint equals key *i*'s fingerprint.  Because multiple
        keys can share a fingerprint, matches beyond the true entry are the
        false positives the paper trades space for.
        """
        keys = np.asarray(keys, dtype=np.uint64).ravel()
        fps = self._fingerprints(keys)
        b1 = self._primary_buckets(keys)
        b2 = self._alt_buckets(b1, fps)
        slot_fps = np.concatenate([self._fps[b1], self._fps[b2]], axis=1)
        slot_vals = np.concatenate([self._vals[b1], self._vals[b2]], axis=1)
        match = (slot_fps == fps[:, None]) & (slot_fps != _EMPTY)
        return slot_vals, match

    def candidate_values_scalar(self, key: int) -> list[int]:
        """Sorted distinct candidate values for one key, as plain ints.

        Bit-identical to `candidate_values` (same fingerprint, bucket, and
        alternate-bucket arithmetic) but with no array allocation on the
        way: this is what a router claim or a single served probe costs.
        """
        k = int(key) & MASK64
        fp = (splitmix64_int(k ^ self._fp_seed_mix) % self._fp_span) + 1
        b1 = splitmix64_int(k ^ self._seed_mix) & self._mask_int
        if self._alt_lut_list is not None:
            b2 = b1 ^ self._alt_lut_list[fp]
        else:
            b2 = b1 ^ (splitmix64_int((fp & MASK64) ^ self._alt_seed_mix) & self._mask_int)
        out = set()
        fps, vals = self._fps, self._vals
        for b in (b1,) if b1 == b2 else (b1, b2):
            frow = fps[b]
            for j in range(self.slots_per_bucket):
                if int(frow[j]) == fp:
                    out.add(int(vals[b, j]))
        return sorted(out)

    def candidate_values(self, key: int) -> np.ndarray:
        """Sorted distinct candidate values for one key."""
        return np.asarray(self.candidate_values_scalar(key), dtype=np.uint32)

    # -- accounting -------------------------------------------------------

    def __len__(self) -> int:
        return self._nkeys

    @property
    def capacity_slots(self) -> int:
        return self.nbuckets * self.slots_per_bucket

    @property
    def size_bytes(self) -> int:
        """On-storage size: packed (fp_bits + value_bits) per slot + header."""
        bits = self.capacity_slots * (self.fp_bits + self.value_bits)
        return math.ceil(bits / 8) + _PER_TABLE_HEADER_BYTES

    def to_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """Dense (fps, vals) views for serialization layers."""
        return self._fps, self._vals

    @classmethod
    def from_arrays(
        cls,
        fps: np.ndarray,
        vals: np.ndarray,
        fp_bits: int,
        value_bits: int,
        max_kicks: int = 500,
        seed: int = 0,
    ) -> "PartialKeyCuckooTable":
        """Rebuild a table from `to_arrays` output — two
        ``(nbuckets, slots_per_bucket)`` arrays.  Occupied slots are packed
        from slot 0 in every bucket, so the occupancy vector is recomputed
        from the fingerprints; arrays no table could have produced raise
        `ValueError`."""
        fps = np.ascontiguousarray(fps, dtype=np.uint32)
        vals = np.ascontiguousarray(vals, dtype=np.uint32)
        if fps.ndim != 2 or fps.shape != vals.shape:
            raise ValueError(f"need two equal 2-d arrays, got {fps.shape} and {vals.shape}")
        nbuckets, slots_per_bucket = fps.shape
        if nbuckets != _round_pow2(nbuckets):
            raise ValueError(f"nbuckets must be a power of two, got {nbuckets}")
        t = cls(nbuckets, fp_bits, value_bits, slots_per_bucket, max_kicks, seed)
        occupied = fps != _EMPTY
        if (occupied[:, 1:] & ~occupied[:, :-1]).any():
            raise ValueError("a bucket has an empty slot below an occupied one")
        if fps.size and int(fps.max()) >> t.fp_bits:
            raise ValueError(f"a fingerprint does not fit in {t.fp_bits} bits")
        if (1 << t.fp_bits) <= max(256, t.capacity_slots):
            # A reloaded table is probed, not grown: it hashes rather than
            # hold a lookup table bigger than the (possibly hostile) arrays.
            t._ensure_alt_lut()
        t._fps, t._vals = fps, vals
        t._occ = occupied.sum(axis=1).astype(np.int64)
        t._nkeys = int(t._occ.sum())
        return t


class ChainedCuckooTable:
    """The paper's chained-growth scheme over `PartialKeyCuckooTable`.

    Parameters
    ----------
    fp_bits, value_bits, slots_per_bucket, max_kicks, seed:
        Forwarded to every physical table.
    capacity_hint:
        Expected number of keys; sizes the first table.  Every table is
        sized from the keys it is expected to take (`_plan_slots`), which
        reproduces the 1 M + 128 K construction from §IV-B (1.1 M keys → a
        2^20-slot table plus a 2^17-slot overflow).  Without a hint, the
        first table starts at ``min_buckets`` and scalar inserts size each
        overflow from the keys held so far (doubling-flavored growth).
    """

    def __init__(
        self,
        fp_bits: int = 4,
        value_bits: int = 16,
        slots_per_bucket: int = 4,
        max_kicks: int = 500,
        seed: int = 0,
        capacity_hint: int | None = None,
        min_buckets: int = 16,
    ):
        if capacity_hint is not None and capacity_hint <= 0:
            raise ValueError("capacity_hint must be positive when given")
        self.fp_bits = fp_bits
        self.value_bits = value_bits
        self.slots_per_bucket = slots_per_bucket
        self.max_kicks = max_kicks
        self.seed = seed
        self.min_buckets = min_buckets
        self.tables: list[PartialKeyCuckooTable] = []
        self.tables.append(self._make_table(capacity_hint or 1))

    def _plan_slots(self, expected: int) -> int:
        """Slot count of the chain's next table, given ``expected`` more keys.

        Candidate continuations take the power of two below the need zero
        or more times, then the one that holds the rest.  The shortest that
        leaves the chain ≥ 90 % utilized wins (every table is probed on
        every lookup); where power-of-two granularity puts that out of
        reach — small key counts — the one with the fewest bytes does."""
        min_slots = self.min_buckets * self.slots_per_bucket
        slot_bytes = (self.fp_bits + self.value_bits) / 8
        nkeys = len(self) + expected
        chain_slots = sum(t.capacity_slots for t in self.tables)
        candidates = []  # (chain bytes, first table's slots), fewest tables first
        first = None
        while True:
            slots = max(min_slots, _round_pow2(math.ceil(expected / _LOAD_TARGET)))
            nbytes = (chain_slots + slots) * slot_bytes
            nbytes += (len(candidates) + 1) * _PER_TABLE_HEADER_BYTES
            candidates.append((nbytes, first or slots))
            if nkeys >= _MIN_UTILIZATION * (chain_slots + slots):
                return first or slots
            if slots == min_slots:
                return min(candidates, key=lambda c: c[0])[1]
            slots //= 2
            first = first or slots
            chain_slots += slots
            expected -= int(slots * _LOAD_TARGET)

    def _make_table(self, expected: int) -> PartialKeyCuckooTable:
        return PartialKeyCuckooTable(
            self._plan_slots(expected) // self.slots_per_bucket,
            fp_bits=self.fp_bits,
            value_bits=self.value_bits,
            slots_per_bucket=self.slots_per_bucket,
            max_kicks=self.max_kicks,
            seed=self.seed + len(self.tables),
        )

    # -- mutation ---------------------------------------------------------

    def insert(self, key: int, value: int = 0) -> None:
        """Insert into the active table, chaining a new one on overflow."""
        while True:
            try:
                self.tables[-1].insert(key, value)
                return
            except CuckooTableFull:
                self.tables.append(self._make_table(max(1, len(self))))

    def insert_many(self, keys: np.ndarray, values: np.ndarray | int = 0) -> None:
        """Bulk insert along a planned chain: the active table is offered
        every pending key (the more compete for its free slots, the fuller
        direct placement leaves it) but walks only up to `_LOAD_TARGET`;
        the remainder goes straight to a table sized for it, instead of
        finding each table full through a walk that burns ``max_kicks``.
        A walk that still fails (rare; small tables) leaves its key in the
        remainder."""
        keys = np.asarray(keys, dtype=np.uint64).ravel()
        vals = np.broadcast_to(np.asarray(values, dtype=np.uint32), keys.shape)
        while keys.size:
            t = self.tables[-1]
            ok = t.insert_many(keys, vals, fill_to=int(t.capacity_slots * _LOAD_TARGET))
            keys, vals = keys[~ok], vals[~ok]
            if keys.size:
                self.tables.append(self._make_table(keys.size))

    # -- lookup -----------------------------------------------------------

    def candidate_values(self, key: int) -> np.ndarray:
        """Distinct candidate values across every chained table."""
        out: set[int] = set()
        for t in self.tables:
            out.update(t.candidate_values_scalar(key))
        return np.asarray(sorted(out), dtype=np.uint32)

    def candidates_many(self, keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Vectorized candidate sets for a whole key array.

        Returns ``(counts, flat)``: ``flat`` concatenates each key's sorted
        distinct candidate values and ``counts[i]`` says how many belong to
        key *i* — the flattened form the bulk read path schedules from.
        One `lookup_many` per chained table resolves fingerprints and
        buckets for every key at once; no per-key Python work.  A lone key
        takes `candidate_values`, which hashes it without array dispatch.
        """
        keys = np.asarray(keys, dtype=np.uint64).ravel()
        if keys.size == 0:
            return np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64)
        if keys.size == 1:
            flat = self.candidate_values(keys[0]).astype(np.int64)
            return np.asarray([flat.size], dtype=np.int64), flat
        all_vals = []
        all_match = []
        for t in self.tables:
            vals, match = t.lookup_many(keys)
            all_vals.append(vals)
            all_match.append(match)
        vals = np.concatenate(all_vals, axis=1).astype(np.int64)
        match = np.concatenate(all_match, axis=1)
        # Distinct values per row: push non-matches to a sentinel, sort each
        # row, keep the first of every run of equal non-sentinel entries.
        sentinel = np.int64(-1)
        masked = np.where(match, vals, sentinel)
        masked.sort(axis=1)
        keep = masked != sentinel
        keep[:, 1:] &= masked[:, 1:] != masked[:, :-1]
        rows, cols = np.nonzero(keep)  # row-major: ascending value per row
        return (
            np.bincount(rows, minlength=keys.size).astype(np.int64),
            masked[rows, cols],
        )

    def candidate_counts(self, keys: np.ndarray) -> np.ndarray:
        """Vectorized count of *distinct* candidate values per key.

        This is the paper's query-amplification metric (Fig. 7a): how many
        data partitions a reader must consult for each key.
        """
        return self.candidates_many(keys)[0]

    # -- accounting -------------------------------------------------------

    def __len__(self) -> int:
        return sum(len(t) for t in self.tables)

    @property
    def total_kicks(self) -> int:
        return sum(t.kicks for t in self.tables)

    @property
    def stats(self) -> CuckooStats:
        return CuckooStats(
            nkeys=len(self),
            nslots=sum(t.capacity_slots for t in self.tables),
            ntables=len(self.tables),
            size_bytes=sum(t.size_bytes for t in self.tables),
            kicks=self.total_kicks,
            failed_inserts=sum(t.failed_inserts for t in self.tables),
        )

    @property
    def size_bytes(self) -> int:
        return self.stats.size_bytes
