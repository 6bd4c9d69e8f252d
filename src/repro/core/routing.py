"""Shuffle routing: direct all-to-all vs DeltaFS-style 3-hop aggregation.

The DeltaFS shuffler the paper builds on does not open P² connections; it
routes each payload sender → local node representative → remote node
representative → destination process.  Node-local hops ride shared memory
(cheap, not RPCs); only representative-to-representative traffic crosses
the wire, and it is *aggregated across every process pair on the two
nodes* — collapsing up to ppn² partially-filled batches into one.

`DirectRouter` forwards envelopes as-is.  `ThreeHopRouter` buffers
per-node-pair, re-ships when the aggregate reaches the batch size, and
tracks wire vs local message counts so the routing ablation can quantify
the trade: fewer, fuller wire messages at the cost of an extra local copy.
"""

from __future__ import annotations

from typing import Callable

from .pipeline import Envelope

__all__ = ["DirectRouter", "ThreeHopRouter"]

DeliverFn = Callable[[Envelope], None]


class DirectRouter:
    """One hop: every envelope is one wire message (unless local)."""

    def __init__(self, deliver: DeliverFn, ppn: int = 1):
        self.deliver = deliver
        self.ppn = max(1, ppn)
        self.wire_messages = 0
        self.wire_bytes = 0
        self.local_messages = 0

    def node_of(self, rank: int) -> int:
        return rank // self.ppn

    def send(self, env: Envelope) -> None:
        if env.src == env.dest:
            self.deliver(env)
            return
        if self.node_of(env.src) == self.node_of(env.dest):
            self.local_messages += 1
        else:
            self.wire_messages += 1
            self.wire_bytes += len(env.payload)
        self.deliver(env)

    def flush(self) -> None:  # nothing buffered
        pass


class ThreeHopRouter(DirectRouter):
    """Aggregate per node pair; ship when the aggregate fills a batch."""

    def __init__(self, deliver: DeliverFn, ppn: int, batch_bytes: int = 16384):
        super().__init__(deliver, ppn)
        if batch_bytes < 64:
            raise ValueError("batch_bytes too small")
        self.batch_bytes = batch_bytes
        # (src_node, dest_node) -> buffered envelopes + byte count
        self._agg: dict[tuple[int, int], tuple[list[Envelope], int]] = {}

    def send(self, env: Envelope) -> None:
        if env.src == env.dest:
            self.deliver(env)
            return
        src_node, dest_node = self.node_of(env.src), self.node_of(env.dest)
        if src_node == dest_node:
            self.local_messages += 1  # stays on the node: shared memory
            self.deliver(env)
            return
        # Hop 1: sender → local representative (shared memory).
        self.local_messages += 1
        key = (src_node, dest_node)
        envs, nbytes = self._agg.get(key, ([], 0))
        envs.append(env)
        nbytes += len(env.payload)
        if nbytes >= self.batch_bytes:
            self._ship(key, envs, nbytes)
        else:
            self._agg[key] = (envs, nbytes)

    def _ship(self, key: tuple[int, int], envs: list[Envelope], nbytes: int) -> None:
        # Hop 2: one aggregated wire message between representatives.
        self.wire_messages += 1
        self.wire_bytes += nbytes
        self._agg.pop(key, None)
        for env in envs:
            # Hop 3: representative → destination process (shared memory).
            self.local_messages += 1
            self.deliver(env)

    def flush(self) -> None:
        """Ship every partial aggregate (end of the burst)."""
        for key in list(self._agg):
            envs, nbytes = self._agg[key]
            self._ship(key, envs, nbytes)
