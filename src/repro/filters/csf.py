"""Compressed static function (maplet): key → small value, xor construction.

The aux table the paper builds is really a *maplet* — a compact map from
each key to its candidate partition rank — and once an epoch seals, the
key set is immutable.  That is exactly the regime compressed static
functions (CSFs) are built for: store ``f(key) = value`` for a fixed key
set in ~1.23·b bits per key (b = value width), with *no* per-key pointers
and exactly three memory probes per lookup.

`XorMaplet` is the hash-and-displace / xor-construction CSF, fused with a
fingerprint filter guard per AutoCSF: every slot is ``fp_bits + value_bits``
wide and a key's three slots xor to ``fingerprint(key) ‖ value``.  For an
in-set key the reconstruction is exact (the maplet never loses a mapping);
for an out-of-set key the reconstructed fingerprint matches only with
probability ``2^-fp_bits``, so the guard converts "garbage value" into "no
answer" almost always.

Construction peels a random 3-uniform hypergraph (keys map to one slot per
segment of `csf_segment` slots), the xor-filter construction, in
synchronous rounds the way the xor and binary-fuse filter builds do: each
round peels, with a handful of array operations, every key that owns a
slot of degree one at the round's start (a key freed by two slots keeps
one), and the next round starts from the slots those keys touched whose
degree fell to one.  Assignment runs the rounds backwards, one vectorised
step each: a key's free slot is still zero when its round runs, and no two
keys of a round touch each other's free slot (it had degree one), so a
round's slots are independent.  Whether a key set peels does not depend on
the order keys are taken, so the rounds settle on the same seed as a
one-key-at-a-time peel; only the slot contents differ.  A seed whose peel
leaves a core is retried with the next (``seed + attempt·_SEED_STRIDE``).
That is not rare at 1.23× occupancy: over 200 tables per size, 5–8 % of
64- and 256-key tables and 12–18 % of 1 024- and 4 096-key ones needed a
second seed, and none more than four, so most 16-table seals retry a
table.  Unlike a filter, a static *function* requires one value per key —
the caller dedupes keys first (`CsfAuxTable` keeps a key's lowest rank).

`XorMaplet.build_many` is the one construction: it builds the tables of
one seal at once, in one round loop over their union, and a table built
alone is its batch of one.  `XorMaplet.from_state` reloads a sealed one.

`XorMaplet.get` is the one-key twin of `lookup_many`: the same three slot
reads and fingerprint in plain Python ints, with no array round trip.

`MapletUnion` is the read side of the build's union: the maplets of one
sealed epoch's partitions held as one slot array, each key hashed under
its owner partition's seeds and segment, so one `lookup_many` answers
keys of every partition at once.
"""

from __future__ import annotations

import math

import numpy as np

from .hashing import MASK64, splitmix64, splitmix64_int

__all__ = ["XorMaplet", "MapletUnion", "CsfConstructionError", "csf_segment"]

MAX_TRIES = 32  # seeds a table may try before its build gives up
_SEED_STRIDE = 0x9E37  # per-retry seed step (persisted blobs carry the settled seed)
_FP_SEED = 0xF1  # the fingerprint hashes under seed + this


def csf_segment(nkeys: int) -> int:
    """Slots per segment for ``nkeys`` (≥ 1) keys: ~1.23× occupancy over the
    three segments, plus a small-table margin.  The build sizes from it and
    a persisted header is checked against it."""
    return max(2, math.ceil(1.23 * nkeys / 3) + 8)


def _mixes(seed: int) -> list[int]:
    """The four mixed seeds of a maplet: the three slot hashes are
    ``hash64`` under ``seed``, ``seed + 1`` and ``seed + 2``, the
    fingerprint under ``seed + 0xF1``."""
    return [splitmix64_int((seed + i) & MASK64) for i in (0, 1, 2, _FP_SEED)]


_ROWS = np.arange(3, dtype=np.int64)[:, None]


def _hash(
    keys: np.ndarray, mix: np.ndarray, seg, base, fp_bits: int
) -> tuple[np.ndarray, np.ndarray]:
    """``(pos, fps)``: the (3, n) slot indices of ``n`` keys, row ``i`` in
    segment ``i``, and their nonzero fingerprints — `hash64` /
    `fingerprint` under the four mixed seeds ``mix`` ((4, 1), or (4, n)
    for a union), in one pass over a (4, n) array (rows, not columns:
    every later step reads a row whole).  ``seg`` (uint64) and ``base``
    (the first slot, int64) are one table's scalars or a union's per-key
    arrays."""
    h = splitmix64(mix ^ keys)
    pos = (h[:3] % seg).astype(np.int64) + (base + _ROWS * seg.astype(np.int64))
    return pos, h[3] % np.uint64((1 << fp_bits) - 1) + np.uint64(1)


def _peel(pos: np.ndarray, nslots: int) -> tuple[list[tuple[np.ndarray, np.ndarray]], np.ndarray]:
    """Peel rounds as (key indices, their freed slots), and each slot's
    degree left at the end: a table peeled iff its slot range is all zero."""
    n = pos.shape[1]
    flat = pos.ravel()
    count = np.bincount(flat, minlength=nslots)
    xor_keyidx = np.zeros(nslots, dtype=np.int64)
    keyidx = np.arange(n, dtype=np.int64)
    np.bitwise_xor.at(xor_keyidx, flat, np.concatenate((keyidx, keyidx, keyidx)))
    last_key = np.empty(n, dtype=np.int64)  # dedupe scratch: last claimant wins
    last_slot = np.empty(nslots, dtype=np.int64)
    rounds: list[tuple[np.ndarray, np.ndarray]] = []
    frontier = np.flatnonzero(count == 1)
    while frontier.size:
        ki = xor_keyidx[frontier]
        order = np.arange(ki.size)
        last_key[ki] = order
        keep = last_key[ki] == order
        ki, free = ki[keep], frontier[keep]
        rounds.append((ki, free))
        touched = pos[:, ki].ravel()
        np.subtract.at(count, touched, 1)
        np.bitwise_xor.at(xor_keyidx, touched, np.concatenate((ki, ki, ki)))
        touched = touched[count[touched] == 1]
        order = np.arange(touched.size)
        last_slot[touched] = order
        frontier = touched[last_slot[touched] == order]
    return rounds, count


def _assign(
    words: np.ndarray, pos: np.ndarray, rounds: list[tuple[np.ndarray, np.ndarray]], nslots: int
) -> np.ndarray:
    """Slots whose three xor to each peeled key's ``words`` entry."""
    slots = np.zeros(nslots, dtype=np.uint64)
    for ki, free in reversed(rounds):
        p = pos[:, ki]
        slots[free] = words[ki] ^ slots[p[0]] ^ slots[p[1]] ^ slots[p[2]]
    return slots


class CsfConstructionError(RuntimeError):
    """Peeling failed for every attempted seed (should be ~impossible)."""


class XorMaplet:
    """Static key → value map over 64-bit keys with a fused filter guard.

    Built by `build_many` (or reloaded by `from_state`): ``value_bits`` is
    the payload width per key, ``fp_bits`` the fingerprint-guard width —
    out-of-set lookups report a (spurious) hit with probability
    ``2^-fp_bits``.
    """

    @classmethod
    def build_many(
        cls,
        tables: list[tuple[np.ndarray, np.ndarray, int]],
        value_bits: int,
        fp_bits: int = 4,
    ) -> list["XorMaplet | None"]:
        """One maplet per ``(keys, values, seed)`` table, all peeled together.

        The tables' hypergraphs take disjoint slot ranges of one union, each
        key hashed under its table's seed and segment, so each round peels
        (and each assign round fills) every table with one set of array
        calls.  A table's rounds, "last claimant wins" choices and retry
        seeds are exact subsequences of the union's, so every maplet equals
        the one built alone.  The tables that fail to peel retry under their
        next seed in a union of their own; one that fails `MAX_TRIES`
        seeds is None.  Keys are ``uint64``, non-empty and distinct per
        table, and the values fit ``value_bits`` (the caller checked).
        """
        out: list[XorMaplet | None] = [None] * len(tables)
        todo = list(range(len(tables)))
        for attempt in range(MAX_TRIES):
            if not todo:
                break
            seeds = [tables[i][2] + attempt * _SEED_STRIDE for i in todo]
            built = cls._build_union([tables[i] for i in todo], seeds, value_bits, fp_bits)
            for i, m in zip(todo, built):
                if m is not None:
                    m.tries = attempt + 1
                    out[i] = m
            todo = [i for i, m in zip(todo, built) if m is None]
        return out

    @classmethod
    def _build_union(
        cls,
        tables: list[tuple[np.ndarray, np.ndarray, int]],
        seeds: list[int],
        value_bits: int,
        fp_bits: int,
    ) -> list["XorMaplet | None"]:
        """One peel and one assignment over the union of ``tables``, each
        hashed under its seed into its own slot range; None for a table
        whose range keeps a core of degree >= 2."""
        sizes = np.asarray([t[0].size for t in tables], dtype=np.int64)
        segs = np.asarray([csf_segment(n) for n in sizes], dtype=np.int64)
        starts = np.concatenate(([0], np.cumsum(3 * segs)))
        mix = np.asarray([_mixes(s) for s in seeds], dtype=np.uint64).T
        keys = np.concatenate([t[0] for t in tables])
        pos, fps = _hash(
            keys,
            np.repeat(mix, sizes, axis=1),
            np.repeat(segs.astype(np.uint64), sizes),
            np.repeat(starts[:-1], sizes),
            fp_bits,
        )
        rounds, count = _peel(pos, int(starts[-1]))
        words = (fps << np.uint64(value_bits)) | np.concatenate([t[1] for t in tables])
        slots = _assign(words, pos, rounds, int(starts[-1]))
        left = np.add.reduceat(count, starts[:-1])
        return [
            cls.from_state(slots[a:b].copy(), n, value_bits, fp_bits, s) if not bad else None
            for a, b, n, s, bad in zip(starts[:-1], starts[1:], sizes, seeds, left)
        ]

    @classmethod
    def from_state(
        cls,
        slots: np.ndarray,
        nkeys: int,
        value_bits: int,
        fp_bits: int,
        seed: int,
    ) -> "XorMaplet":
        """Rebuild a maplet from its persisted slot array (no re-peeling).

        ``seed`` must be the *final* seed the build settled on (the one the
        instance reports), not the seed the build started from.
        """
        slots = np.asarray(slots, dtype=np.uint64).ravel()
        if slots.size == 0 or slots.size % 3:
            raise ValueError(f"slot array length {slots.size} is not 3 non-empty segments")
        m = object.__new__(cls)
        m.fp_bits = int(fp_bits)
        m.value_bits = int(value_bits)
        m.nkeys = int(nkeys)
        m._segment = slots.size // 3
        m._set_seed(int(seed))
        m.tries = 0
        m._slots = slots
        return m

    # -- hashing ------------------------------------------------------------

    def _set_seed(self, seed: int) -> None:
        """Use ``seed``: its `_mixes`, kept as one (4, 1) array and as plain
        ints (`get`)."""
        self.seed = seed
        mixes = _mixes(seed)
        *self._mix, self._fp_mix = mixes
        self._mix_arr = np.asarray(mixes, dtype=np.uint64)[:, None]

    # -- queries ---------------------------------------------------------------

    def lookup_many(self, keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``(guard_hits, values)`` for a whole key array.

        For every key inserted at build time ``guard_hits`` is True and the
        value is exactly the one stored; for out-of-set keys ``guard_hits``
        is True with probability ``2^-fp_bits`` and the value is noise.
        """
        keys = np.asarray(keys, dtype=np.uint64).ravel()
        if keys.size == 0:
            return np.zeros(0, dtype=bool), np.zeros(0, dtype=np.uint64)
        pos, fps = _hash(keys, self._mix_arr, np.uint64(self._segment), 0, self.fp_bits)
        acc = self._slots[pos[0]] ^ self._slots[pos[1]] ^ self._slots[pos[2]]
        hits = (acc >> np.uint64(self.value_bits)) == fps
        values = acc & np.uint64((1 << self.value_bits) - 1)
        return hits, values

    def get(self, key: int) -> int | None:
        """The stored value, or None when the fingerprint guard rejects:
        `lookup_many` of one key, bit for bit, in plain ints."""
        k = int(key) & MASK64
        seg = self._segment
        m0, m1, m2 = self._mix
        item = self._slots.item
        acc = (
            item(splitmix64_int(k ^ m0) % seg)
            ^ item(splitmix64_int(k ^ m1) % seg + seg)
            ^ item(splitmix64_int(k ^ m2) % seg + 2 * seg)
        )
        fp = splitmix64_int(k ^ self._fp_mix) % ((1 << self.fp_bits) - 1) + 1
        if acc >> self.value_bits != fp:
            return None
        return acc & ((1 << self.value_bits) - 1)

    # -- accounting --------------------------------------------------------------

    @property
    def slot_bits(self) -> int:
        return self.fp_bits + self.value_bits

    @property
    def nslots(self) -> int:
        return 3 * self._segment

    @property
    def size_bytes(self) -> int:
        return math.ceil(self.nslots * self.slot_bits / 8)


class MapletUnion:
    """The maplets of one epoch's partitions, probed as one.

    The layout is `XorMaplet._build_union`'s: every maplet's slots in one
    array, and per partition its four mixed seeds, its segment and its
    first slot.  Each maplet's ``_slots`` becomes a view of the union's,
    so no slot is held twice.  A partition with no maplet (no keys) owns
    three zero slots: a fingerprint is never zero, so no key of it hits.
    The maplets share one ``value_bits`` and ``fp_bits``.
    """

    def __init__(self, maplets: list[XorMaplet | None], value_bits: int, fp_bits: int):
        segs = np.asarray([m._segment if m is not None else 1 for m in maplets], dtype=np.int64)
        starts = np.concatenate(([0], np.cumsum(3 * segs)))
        self.slots = np.zeros(int(starts[-1]), dtype=np.uint64)
        empty = np.zeros((4, 1), dtype=np.uint64)
        self.mix = np.concatenate(
            [m._mix_arr if m is not None else empty for m in maplets], axis=1
        )
        for m, a, b in zip(maplets, starts[:-1].tolist(), starts[1:].tolist()):
            if m is not None:
                self.slots[a:b] = m._slots
                m._slots = self.slots[a:b]
        self.seg = segs.astype(np.uint64)
        self.base = starts[:-1]
        self.value_bits = value_bits
        self.fp_bits = fp_bits

    def lookup_many(self, keys: np.ndarray, owners: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """`XorMaplet.lookup_many` of each key in its owner's maplet
        (``owners``: partition indices), in one hash and one gather."""
        pos, fps = _hash(keys, self.mix[:, owners], self.seg[owners], self.base[owners], self.fp_bits)
        slots = self.slots
        acc = slots[pos[0]] ^ slots[pos[1]] ^ slots[pos[2]]
        hits = (acc >> np.uint64(self.value_bits)) == fps
        return hits, acc & np.uint64((1 << self.value_bits) - 1)
