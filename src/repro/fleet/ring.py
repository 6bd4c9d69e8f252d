"""Consistent-hash ring: stable key → shard placement with replication.

The fleet's shard plane is keyed by a classic consistent-hash ring with
virtual nodes: every shard owns ``vnodes`` points on a 64-bit circle
(`hash_pair(shard, vnode)` via the package's splitmix64 mixer), and a key
belongs to the first point clockwise of ``hash64(key)``.  Walking the
circle past that point yields the key's *replica set* — the first
``rf`` **distinct** shards encountered — so every key has one primary and
``rf-1`` read replicas, and removing a shard only moves the keys whose
walk crossed its points (the usual 1/N movement bound, checked in
`tests/fleet/test_ring.py`).

Placement is pure arithmetic on the key: the router, the ingest path, and
the tests all recompute it independently and must agree, which is why
`owners_many` (the vectorized form used to split a fleet dump into
per-shard batches) is pinned byte-for-byte to the scalar `owners` walk.
"""

from __future__ import annotations

import numpy as np

from ..filters.hashing import hash64, hash_pair

__all__ = ["HashRing"]


class HashRing:
    """Seeded consistent-hash ring over integer shard ids.

    Parameters
    ----------
    shards:
        Shard ids to place on the ring (need not be contiguous).
    vnodes:
        Ring points per shard.  More points smooth the load split at the
        cost of a wider sorted array; 64 keeps the max/mean key imbalance
        under ~1.3 at fleet sizes this repo runs.
    seed:
        Perturbs every point position, so two rings with the same shard
        ids but different seeds place keys independently.
    """

    def __init__(self, shards: list[int], vnodes: int = 64, seed: int = 0):
        if vnodes < 1:
            raise ValueError(f"vnodes must be >= 1, got {vnodes}")
        if len(set(shards)) != len(shards):
            raise ValueError(f"duplicate shard ids in {shards}")
        self.vnodes = int(vnodes)
        self.seed = int(seed)
        self._points = np.empty(0, dtype=np.uint64)
        self._owners = np.empty(0, dtype=np.int64)
        self.shards: list[int] = []
        for s in shards:
            self.add_shard(int(s))

    # -- membership --------------------------------------------------------

    def add_shard(self, shard: int) -> None:
        if shard in self.shards:
            raise ValueError(f"shard {shard} already on the ring")
        vn = np.arange(self.vnodes, dtype=np.uint64)
        pts = hash_pair(np.full(self.vnodes, shard, dtype=np.uint64), vn, seed=self.seed)
        points = np.concatenate([self._points, pts])
        owners = np.concatenate(
            [self._owners, np.full(self.vnodes, shard, dtype=np.int64)]
        )
        order = np.argsort(points, kind="stable")
        self._points = points[order]
        self._owners = owners[order]
        self.shards.append(shard)
        self.shards.sort()

    def __len__(self) -> int:
        return len(self.shards)

    # -- placement ---------------------------------------------------------

    def _start_index(self, key: int | np.ndarray) -> np.ndarray:
        """Index of the first ring point clockwise of each key's hash."""
        h = hash64(np.asarray(key, dtype=np.uint64))
        return np.searchsorted(self._points, h, side="left") % self._points.size

    def owners(self, key: int, rf: int = 1) -> list[int]:
        """The key's replica set: first ``rf`` distinct shards clockwise.

        Element 0 is the primary.  ``rf`` is clamped to the fleet size, so
        a 2-replica config on a 1-shard ring degrades to ``[shard]``
        rather than failing.
        """
        if not self.shards:
            raise ValueError("ring is empty")
        rf = min(max(1, int(rf)), len(self.shards))
        i = int(self._start_index(int(key)))
        out: list[int] = []
        n = self._points.size
        for step in range(n):
            s = int(self._owners[(i + step) % n])
            if s not in out:
                out.append(s)
                if len(out) == rf:
                    break
        return out

    def owners_many(self, keys: np.ndarray, rf: int = 1) -> np.ndarray:
        """Vectorized `owners`: ``(len(keys), rf)`` shard ids, column 0 the
        primary.  Must (and does — see the parity test) agree with the
        scalar walk for every key."""
        if not self.shards:
            raise ValueError("ring is empty")
        keys = np.asarray(keys, dtype=np.uint64).ravel()
        rf = min(max(1, int(rf)), len(self.shards))
        start = self._start_index(keys)
        out = np.empty((keys.size, rf), dtype=np.int64)
        n = self._points.size
        # The primary is a straight gather; deeper replicas walk until the
        # next *distinct* shard.  The walk vectorizes per replica slot:
        # rows that already found slot j stop advancing.
        idx = start.copy()
        out[:, 0] = self._owners[idx % n]
        for j in range(1, rf):
            found = np.zeros(keys.size, dtype=bool)
            while not found.all():
                idx[~found] += 1
                cand = self._owners[idx % n]
                # A candidate is new if it differs from every shard already
                # chosen for this row.
                new = ~found
                for jj in range(j):
                    new &= cand != out[:, jj]
                out[new, j] = cand[new]
                found |= new
        return out

    def primary_of(self, keys: np.ndarray) -> np.ndarray:
        """Primary shard per key (the ``rf=1`` column of `owners_many`)."""
        return self.owners_many(keys, rf=1)[:, 0]
