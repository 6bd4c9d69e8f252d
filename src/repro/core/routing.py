"""Shuffle routing: direct all-to-all vs DeltaFS-style 3-hop aggregation.

The DeltaFS shuffler the paper builds on does not open P² connections; it
routes each payload sender → local node representative → remote node
representative → destination process.  Node-local hops ride shared memory
(cheap, not RPCs); only representative-to-representative traffic crosses
the wire, and it is *aggregated across every process pair on the two
nodes* — collapsing up to ppn² partially-filled batches into one.

Both routers take an epoch's messages (`pipeline.Rows`) in one call as
arrays of ``(src, dest, nbytes)`` and return the order the rows reach
their receivers.  `DirectRouter` forwards rows as-is.  `ThreeHopRouter`
buffers per node pair, re-ships when the aggregate reaches the batch size,
and tracks wire vs local message counts so the routing ablation can
quantify the trade: fewer, fuller wire messages at the cost of an extra
local copy.
"""

from __future__ import annotations

import numpy as np

__all__ = ["DirectRouter", "ThreeHopRouter"]


class DirectRouter:
    """One hop: every row is one wire message (unless local)."""

    def __init__(self, ppn: int = 1):
        self.ppn = max(1, ppn)
        self.wire_messages = 0
        self.wire_bytes = 0
        self.local_messages = 0

    def send(self, src: np.ndarray, dest: np.ndarray, nbytes: np.ndarray) -> np.ndarray:
        """Count rows sent in order; every row arrives as it was sent."""
        wire = src // self.ppn != dest // self.ppn
        self.local_messages += int(np.count_nonzero((src != dest) & ~wire))
        self.wire_messages += int(np.count_nonzero(wire))
        self.wire_bytes += int(nbytes[wire].sum())
        return np.arange(src.size)


class ThreeHopRouter(DirectRouter):
    """Aggregate per node pair; ship when the aggregate fills a batch."""

    def __init__(self, ppn: int, batch_bytes: int = 16384):
        super().__init__(ppn)
        if batch_bytes < 64:
            raise ValueError("batch_bytes too small")
        self.batch_bytes = batch_bytes

    def send(self, src: np.ndarray, dest: np.ndarray, nbytes: np.ndarray) -> np.ndarray:
        """Route rows sent in order, then ship every partial aggregate (the
        end of the burst), oldest first; returns the arrival order."""
        arrived: list[int] = []
        agg: dict[tuple[int, int], tuple[list[int], int]] = {}  # node pair -> rows, bytes
        for i, (s, d, n) in enumerate(zip(src.tolist(), dest.tolist(), nbytes.tolist())):
            if s == d:
                arrived.append(i)
                continue
            # Hop 1: sender → local representative (shared memory), or
            # straight to a destination on the same node.
            self.local_messages += 1
            key = (s // self.ppn, d // self.ppn)
            if key[0] == key[1]:
                arrived.append(i)
                continue
            rows, held = agg.get(key, ([], 0))
            rows.append(i)
            if held + n >= self.batch_bytes:
                agg.pop(key, None)  # a later row opens a new aggregate, at the end
                self._ship(rows, held + n, arrived)
            else:
                agg[key] = (rows, held + n)
        for rows, held in agg.values():
            self._ship(rows, held, arrived)
        return np.asarray(arrived, dtype=np.int64)

    def _ship(self, rows: list[int], nbytes: int, arrived: list[int]) -> None:
        # Hop 2: one aggregated wire message between representatives; hop 3:
        # representative → each destination process (shared memory).
        self.wire_messages += 1
        self.wire_bytes += nbytes
        self.local_messages += len(rows)
        arrived.extend(rows)
