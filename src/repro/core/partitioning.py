"""The data-partitioning function: key → owning rank.

Every process owns one data partition, i.e. a disjoint subset of the key
space (paper §III-A).  The paper's datasets exhibit extreme key entropy
and make no assumption about generation order, so a hash partitioner is
the canonical choice — it also load-balances the partitions, one of the
stated uses of online partitioning.
"""

from __future__ import annotations

import numpy as np

from ..filters.hashing import MASK64, hash64, hash64_int

__all__ = ["HashPartitioner"]


class HashPartitioner:
    """Maps 64-bit keys onto ``nparts`` partitions by seeded hashing."""

    def __init__(self, nparts: int, seed: int = 0x9A27):
        if nparts < 1:
            raise ValueError(f"nparts must be >= 1, got {nparts}")
        self.nparts = int(nparts)
        self.seed = int(seed)

    def partition_of(self, keys: np.ndarray | int) -> np.ndarray:
        """Owning rank for each key (vectorized; a one-key array takes the
        scalar twin, whose arithmetic costs less than one array dispatch)."""
        keys = np.asarray(keys, dtype=np.uint64)
        if keys.ndim == 1 and keys.size == 1:
            return np.asarray([self.partition_of_one(keys[0])], dtype=np.int64)
        h = hash64(keys, self.seed)
        return (h % np.uint64(self.nparts)).astype(np.int64)

    def partition_of_one(self, key: int) -> int:
        # Scalar arithmetic, not a one-element array: for one key, array
        # dispatch dominates the hash.
        return hash64_int(int(key) & MASK64, self.seed) % self.nparts

    def __repr__(self) -> str:
        return f"HashPartitioner(nparts={self.nparts}, seed={self.seed:#x})"
