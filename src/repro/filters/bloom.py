"""Bloom filter on a NumPy bit vector, with vectorized bulk operations.

This is the filter behind the paper's first auxiliary-table design
(§IV-A, Fig. 4): opaque ``key‖rank`` mapping objects are inserted, and a
query exhaustively tests every candidate rank.  The class itself is a
general-purpose membership filter over 64-bit digests; the aux-table layer
(`repro.core.auxtable.BloomAuxTable`) decides what digest to insert.

The standard sizing identities used throughout the paper and this repo:

* optimal probe count    ``k = b · ln 2``         (``b`` = bits per key)
* false-positive rate    ``fpr ≈ 0.6185 ** b``
* bits for a target fpr  ``b = 1.44 · log2(1/fpr)``

See `repro.analysis.models` for the Table I math built on these.
"""

from __future__ import annotations

import math

import numpy as np

from .hashing import double_hash_probes, double_hash_probes_int

__all__ = ["BloomFilter", "optimal_nhashes", "false_positive_rate"]


def optimal_nhashes(bits_per_key: float) -> int:
    """Probe count minimizing false positives for a given bit budget."""
    return max(1, round(bits_per_key * math.log(2)))


def false_positive_rate(bits_per_key: float, nhashes: int | None = None) -> float:
    """Analytic false-positive rate of a Bloom filter at ``bits_per_key``.

    With the optimal probe count this reduces to ``0.6185 ** bits_per_key``.
    """
    if bits_per_key <= 0:
        return 1.0
    k = optimal_nhashes(bits_per_key) if nhashes is None else nhashes
    return (1.0 - math.exp(-k / bits_per_key)) ** k


class BloomFilter:
    """A classic Bloom filter storing 64-bit digests.

    Parameters
    ----------
    nbits:
        Size of the underlying bit vector.  Rounded up to a multiple of 64.
    nhashes:
        Number of probe positions per element.
    seed:
        Base seed for the probe hash functions.
    """

    def __init__(self, nbits: int, nhashes: int, seed: int = 0):
        if nbits <= 0:
            raise ValueError(f"nbits must be positive, got {nbits}")
        if nhashes <= 0:
            raise ValueError(f"nhashes must be positive, got {nhashes}")
        self.nbits = int(math.ceil(nbits / 64) * 64)
        self.nhashes = int(nhashes)
        self.seed = int(seed)
        self._words = np.zeros(self.nbits // 64, dtype=np.uint64)
        self._count = 0

    @classmethod
    def from_bits_per_key(cls, nkeys: int, bits_per_key: float, seed: int = 0) -> "BloomFilter":
        """Size a filter for ``nkeys`` elements at ``bits_per_key`` bits each."""
        if nkeys <= 0:
            raise ValueError(f"nkeys must be positive, got {nkeys}")
        if bits_per_key <= 0:
            raise ValueError(f"bits_per_key must be positive, got {bits_per_key}")
        nbits = max(64, int(math.ceil(nkeys * bits_per_key)))
        return cls(nbits, optimal_nhashes(bits_per_key), seed=seed)

    # -- core ops ---------------------------------------------------------

    def add_many(self, digests: np.ndarray) -> None:
        """Insert a batch of 64-bit digests."""
        digests = np.asarray(digests, dtype=np.uint64)
        if digests.size == 0:
            return
        pos = double_hash_probes(digests.ravel(), self.nhashes, self.nbits, self.seed)
        if self.nbits <= 1 << 25:
            # Scatter through a transient bit-per-bool array and repack:
            # an order-independent OR, so the words come out identical to
            # any scatter method, at a fraction of `bitwise_or.at`'s cost.
            bits = np.zeros(self.nbits, dtype=bool)
            bits[pos.ravel()] = True
            self._words |= np.packbits(bits, bitorder="little").view("<u8")
        else:
            # Huge filters: skip the nbits-byte transient allocation.
            words, offsets = np.divmod(pos.ravel(), 64)
            np.bitwise_or.at(self._words, words, np.uint64(1) << offsets.astype(np.uint64))
        self._count += digests.size

    def contains_many(self, digests: np.ndarray) -> np.ndarray:
        """Vectorized membership test; returns a boolean array (one digest
        takes the scalar `__contains__`)."""
        digests = np.asarray(digests, dtype=np.uint64)
        if digests.size <= 1:
            return np.asarray([int(d) in self for d in digests.ravel()], dtype=bool)
        pos = double_hash_probes(digests.ravel(), self.nhashes, self.nbits, self.seed)
        words, offsets = np.divmod(pos, 64)
        bits = (self._words[words] >> offsets.astype(np.uint64)) & np.uint64(1)
        return bits.all(axis=1)

    def add(self, digest: int) -> None:
        """Insert a single digest."""
        self.add_many(np.asarray([digest], dtype=np.uint64))

    def __contains__(self, digest: int) -> bool:
        """`contains_many` for one digest, on plain ints: a point lookup's
        gate costs its few probes, not a dozen array round trips."""
        words = self._words
        for pos in double_hash_probes_int(int(digest), self.nhashes, self.nbits, self.seed):
            if not (int(words[pos >> 6]) >> (pos & 63)) & 1:
                return False
        return True

    # -- accounting -------------------------------------------------------

    def __len__(self) -> int:
        return self._count

    @property
    def size_bytes(self) -> int:
        """On-storage size of the bit vector."""
        return self.nbits // 8

    def to_bytes(self) -> bytes:
        """Serialize the bit vector (little-endian words)."""
        return self._words.astype("<u8").tobytes()

    @classmethod
    def from_bytes(cls, data: bytes, nhashes: int) -> "BloomFilter":
        """Rebuild a seed-0 filter (an SSTable's) from `to_bytes` output
        (`__len__` reads 0: the bits do not record how many were added)."""
        if len(data) % 8:
            raise ValueError("serialized Bloom filter must be a multiple of 8 bytes")
        f = cls(len(data) * 8, nhashes)
        f._words = np.frombuffer(data, dtype="<u8").astype(np.uint64)
        return f
