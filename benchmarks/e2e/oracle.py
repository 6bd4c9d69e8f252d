"""Ground truth for the benchmark: key -> value as sorted NumPy arrays.

Every reply the benchmark receives is byte-compared against this oracle.
It is sorted arrays plus `np.searchsorted`, not a Python dict, so that
building it stays a small NumPy-bound part of `setup_s` and checking a
round's replies costs one join and one comparison.
"""

from __future__ import annotations

import numpy as np

__all__ = ["SortedOracle"]


class SortedOracle:
    """Unique ``uint64`` keys with fixed-width ``uint8`` value rows."""

    def __init__(self, keys: np.ndarray, values: np.ndarray):
        keys = np.asarray(keys, dtype=np.uint64)
        order = np.argsort(keys, kind="stable")
        self.keys = keys[order]
        self.values = np.ascontiguousarray(np.asarray(values, dtype=np.uint8)[order])
        if self.keys.size > 1 and not (self.keys[1:] != self.keys[:-1]).all():
            raise ValueError("oracle keys must be unique")

    def __len__(self) -> int:
        return int(self.keys.size)

    def merged(self, keys: np.ndarray, values: np.ndarray) -> "SortedOracle":
        """A new oracle that also holds ``keys`` (which must be fresh)."""
        return SortedOracle(
            np.concatenate([self.keys, np.asarray(keys, dtype=np.uint64)]),
            np.concatenate([self.values, np.asarray(values, dtype=np.uint8)]),
        )

    def locate(self, keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``(present mask, row index)`` per key; the index is only
        meaningful where the mask is set."""
        keys = np.asarray(keys, dtype=np.uint64)
        idx = np.searchsorted(self.keys, keys)
        idx[idx == self.keys.size] = 0
        return self.keys[idx] == keys, idx

    def expected(self, keys: np.ndarray) -> list[bytes | None]:
        """The exact reply every key should get (None = not found)."""
        present, idx = self.locate(keys)
        rows = self.values[idx]
        return [rows[i].tobytes() if p else None for i, p in enumerate(present.tolist())]

    def wrong(self, keys: np.ndarray, replies: list[bytes | None]) -> int:
        """How many of ``replies`` differ from the truth for ``keys``."""
        present, idx = self.locate(keys)
        answered = np.fromiter((r is not None for r in replies), dtype=bool, count=len(replies))
        if (answered == present).all() and b"".join(
            r for r in replies if r is not None
        ) == self.values[idx[present]].tobytes():
            return 0
        want = self.expected(keys)
        return sum(1 for got, exp in zip(replies, want) if got != exp)
