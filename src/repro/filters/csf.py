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

Construction peels a random 3-uniform hypergraph, the xor-filter
construction: keys map to one slot per segment, slots referenced by a
single key peel repeatedly, and assignment walks the peel order backwards
setting each key's free slot.  Peeling fails for
unlucky seeds with vanishing probability at 1.23× occupancy and is retried
with a fresh seed.  Unlike a filter, a static *function* requires one
value per key — duplicate keys are a caller error and rejected up front.
"""

from __future__ import annotations

import math

import numpy as np

from .hashing import fingerprint, hash64

__all__ = ["XorMaplet", "CsfConstructionError"]

_SEED_STRIDE = 0x9E37  # per-retry seed step (persisted blobs carry the settled seed)


class CsfConstructionError(RuntimeError):
    """Peeling failed for every attempted seed (should be ~impossible)."""


class XorMaplet:
    """Static key → value map over 64-bit keys with a fused filter guard.

    Parameters
    ----------
    keys:
        Distinct ``uint64`` keys (duplicates raise — a function stores one
        value per key; dedupe or reject conflicts before building).
    values:
        One value per key, each in ``[0, 2**value_bits)``.
    value_bits:
        Payload width per key.
    fp_bits:
        Fingerprint-guard width; out-of-set lookups report a (spurious)
        hit with probability ``2^-fp_bits``.
    """

    def __init__(
        self,
        keys: np.ndarray,
        values: np.ndarray,
        value_bits: int,
        fp_bits: int = 4,
        seed: int = 0,
        max_tries: int = 32,
    ):
        if not 1 <= value_bits <= 32:
            raise ValueError(f"value_bits must be in [1, 32], got {value_bits}")
        if not 1 <= fp_bits <= 32:
            raise ValueError(f"fp_bits must be in [1, 32], got {fp_bits}")
        keys = np.asarray(keys, dtype=np.uint64).ravel()
        values = np.asarray(values, dtype=np.uint64).ravel()
        if keys.size == 0:
            raise ValueError("maplet needs at least one key")
        if keys.shape != values.shape:
            raise ValueError("need exactly one value per key")
        if np.unique(keys).size != keys.size:
            raise ValueError("duplicate keys: a static function maps each key once")
        if values.size and int(values.max()) >> value_bits:
            raise ValueError(f"value {int(values.max())} does not fit in {value_bits} bits")
        self.fp_bits = int(fp_bits)
        self.value_bits = int(value_bits)
        self.nkeys = int(keys.size)
        self._segment = max(2, math.ceil(1.23 * keys.size / 3) + 8)
        self.tries = 0
        for attempt in range(max_tries):
            self.seed = seed + attempt * _SEED_STRIDE
            self.tries = attempt + 1
            order = self._peel(keys)
            if order is not None:
                self._slots = self._assign(keys, values, order)
                return
        raise CsfConstructionError(f"peeling failed after {max_tries} seeds")

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
        if slots.size % 3:
            raise ValueError(f"slot array length {slots.size} is not 3 segments")
        m = object.__new__(cls)
        m.fp_bits = int(fp_bits)
        m.value_bits = int(value_bits)
        m.nkeys = int(nkeys)
        m._segment = slots.size // 3
        m.seed = int(seed)
        m.tries = 0
        m._slots = slots
        return m

    # -- hashing ------------------------------------------------------------

    def _positions(self, keys: np.ndarray) -> np.ndarray:
        """(n, 3) slot indices, one per segment."""
        seg = np.uint64(self._segment)
        cols = [
            (hash64(keys, self.seed + i) % seg).astype(np.int64) + i * self._segment
            for i in range(3)
        ]
        return np.stack(cols, axis=1)

    def _fingerprints(self, keys: np.ndarray) -> np.ndarray:
        return fingerprint(keys, self.fp_bits, seed=self.seed + 0xF1).astype(np.uint64)

    # -- construction --------------------------------------------------------

    def _peel(self, keys: np.ndarray) -> list[tuple[int, int]] | None:
        """Peel order as (key index, freed slot), or None on failure."""
        pos = self._positions(keys)
        nslots = 3 * self._segment
        count = np.zeros(nslots, dtype=np.int64)
        xor_keyidx = np.zeros(nslots, dtype=np.int64)
        for c in range(3):
            np.add.at(count, pos[:, c], 1)
            np.bitwise_xor.at(xor_keyidx, pos[:, c], np.arange(keys.size))
        queue = list(np.nonzero(count == 1)[0])
        order: list[tuple[int, int]] = []
        alive = np.ones(keys.size, dtype=bool)
        while queue:
            slot = queue.pop()
            if count[slot] != 1:
                continue
            ki = int(xor_keyidx[slot])
            if not alive[ki]:
                continue
            alive[ki] = False
            order.append((ki, int(slot)))
            for c in range(3):
                s = int(pos[ki, c])
                count[s] -= 1
                xor_keyidx[s] ^= ki
                if count[s] == 1:
                    queue.append(s)
        return order if len(order) == keys.size else None

    def _assign(
        self, keys: np.ndarray, values: np.ndarray, order: list[tuple[int, int]]
    ) -> np.ndarray:
        pos = self._positions(keys)
        words = (self._fingerprints(keys) << np.uint64(self.value_bits)) | values
        slots = np.zeros(3 * self._segment, dtype=np.uint64)
        for ki, free_slot in reversed(order):
            acc = words[ki]
            for c in range(3):
                s = int(pos[ki, c])
                if s != free_slot:
                    acc ^= slots[s]
            slots[free_slot] = acc
        return slots

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
        pos = self._positions(keys)
        acc = self._slots[pos[:, 0]] ^ self._slots[pos[:, 1]] ^ self._slots[pos[:, 2]]
        hits = (acc >> np.uint64(self.value_bits)) == self._fingerprints(keys)
        values = acc & np.uint64((1 << self.value_bits) - 1)
        return hits, values

    def get(self, key: int) -> int | None:
        """The stored value, or None when the fingerprint guard rejects."""
        hit, value = self.lookup_many(np.asarray([key], dtype=np.uint64))
        return int(value[0]) if hit[0] else None

    def __contains__(self, key: int) -> bool:
        return self.get(int(key)) is not None

    # -- accounting --------------------------------------------------------------

    def __len__(self) -> int:
        return self.nkeys

    @property
    def slot_bits(self) -> int:
        return self.fp_bits + self.value_bits

    @property
    def nslots(self) -> int:
        return 3 * self._segment

    @property
    def size_bytes(self) -> int:
        return math.ceil(self.nslots * self.slot_bits / 8)

    @property
    def bits_per_key(self) -> float:
        return self.size_bytes * 8 / self.nkeys

    def expected_fpr(self) -> float:
        """Probability an out-of-set key passes the fingerprint guard."""
        return 2.0**-self.fp_bits
