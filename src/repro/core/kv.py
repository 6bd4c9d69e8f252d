"""Key-value model shared by every partitioning scheme.

The paper's experiments use fixed 8-byte integer keys (random in the
microbenchmarks, particle IDs in VPIC) and values from a few bytes up to a
couple hundred.  Batches are represented as a `KVBatch` — a keys array plus
equal-width value payload — because fixed-width vectors keep the write
pipeline NumPy-friendly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..storage.sstable import value_matrix

__all__ = ["KEY_BYTES", "KVBatch", "random_kv_batch"]

KEY_BYTES = 8  # the paper fixes keys at 8 bytes (§V-A)


@dataclass(frozen=True)
class KVBatch:
    """A batch of fixed-width KV pairs.

    Attributes
    ----------
    keys:
        ``uint64`` array of keys.
    values:
        ``uint8`` array of shape ``(len(keys), value_bytes)``.
    """

    keys: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        keys = np.asarray(self.keys, dtype=np.uint64)
        values = value_matrix(self.values, keys.shape[0])
        object.__setattr__(self, "keys", keys)
        object.__setattr__(self, "values", values)

    def __len__(self) -> int:
        return int(self.keys.shape[0])

    @property
    def value_bytes(self) -> int:
        return int(self.values.shape[1])

    @property
    def record_bytes(self) -> int:
        """Full KV pair size: key + value."""
        return KEY_BYTES + self.value_bytes

    @property
    def total_bytes(self) -> int:
        return len(self) * self.record_bytes

    def select(self, mask_or_index: np.ndarray) -> "KVBatch":
        """Sub-batch by boolean mask or index array."""
        return KVBatch(self.keys[mask_or_index], self.values[mask_or_index])

    def value_of(self, i: int) -> bytes:
        return self.values[i].tobytes()


def random_kv_batch(
    nkeys: int, value_bytes: int, rng: np.random.Generator | int = 0
) -> KVBatch:
    """Random batch matching the paper's microbenchmark generator:
    uniformly random 8-byte keys (extreme entropy, §I) and opaque values."""
    if nkeys < 0 or value_bytes < 0:
        raise ValueError("nkeys and value_bytes must be non-negative")
    if not isinstance(rng, np.random.Generator):
        rng = np.random.default_rng(rng)
    keys = rng.integers(0, 2**63, size=nkeys, dtype=np.uint64)
    values = rng.integers(0, 256, size=(nkeys, value_bytes), dtype=np.uint8)
    return KVBatch(keys, values)
