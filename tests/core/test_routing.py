"""Tests for shuffle routing (direct vs 3-hop aggregation)."""

import numpy as np
import pytest

from repro.cluster.simcluster import SimCluster
from repro.core.formats import FMT_FILTERKV
from repro.core.routing import DirectRouter, ThreeHopRouter


def _send(router, *rows, nbytes=100):
    """Send ``(src, dest)`` rows of ``nbytes`` each; returns the arrival order."""
    src, dest = (np.asarray(col, dtype=np.int64) for col in zip(*rows))
    return router.send(src, dest, np.full(src.size, nbytes, dtype=np.int64)).tolist()


class TestDirectRouter:
    def test_counts_wire_messages(self):
        r = DirectRouter(ppn=2)
        # node 0 → node 1: wire; same node: local; self: neither.
        assert _send(r, (0, 3), (0, 1), (2, 2)) == [0, 1, 2]  # everything arrives
        assert r.wire_messages == 1
        assert r.local_messages == 1
        assert r.wire_bytes == 100


class TestThreeHopRouter:
    def test_aggregates_until_batch_full(self):
        r = ThreeHopRouter(ppn=2, batch_bytes=250)
        # Two rows of node pair (0, 1) buffer (200 B); the third takes the
        # aggregate to 300 B ≥ 250 and ships it as one message.
        assert _send(r, (0, 2), (1, 3), (0, 3)) == [0, 1, 2]
        assert r.wire_messages == 1
        assert r.wire_bytes == 300

    def test_end_of_burst_ships_partials(self):
        r = ThreeHopRouter(ppn=2, batch_bytes=10_000)
        # Both partials ship, in the order their aggregates opened: a row
        # joining an open aggregate does not move it behind a newer one.
        assert _send(r, (0, 2), (2, 0), (1, 3)) == [0, 2, 1]
        assert r.wire_messages == 2  # one per node pair

    def test_arrival_follows_the_aggregates(self):
        """A row waits in its pair's aggregate: rows behind it that stay on
        their node, or fill another pair's aggregate, arrive first."""
        r = ThreeHopRouter(ppn=2, batch_bytes=150)
        order = _send(r, (0, 2), (1, 1), (0, 1), (2, 0), (3, 1), (1, 3), (4, 0))
        # row 1 is self-addressed and row 2 node-local: they arrive at once;
        # (2, 0) + (3, 1) fill pair (1, 0) at 200 B; (0, 2) + (1, 3) fill
        # pair (0, 1); (4, 0) is pair (2, 0)'s partial, shipped at the end.
        assert order == [1, 2, 3, 4, 0, 5, 6]
        assert r.wire_messages == 3

    def test_local_traffic_never_buffers(self):
        r = ThreeHopRouter(ppn=4, batch_bytes=1000)
        assert _send(r, (0, 3), (5, 5)) == [0, 1]  # same node, self
        assert r.wire_messages == 0

    def test_hop_accounting(self):
        r = ThreeHopRouter(ppn=2, batch_bytes=150)
        _send(r, (0, 2), (0, 2))
        # hop1 ×2 (sender→rep) + hop3 ×2 (rep→dest) = 4 local messages.
        assert r.local_messages == 4
        assert r.wire_messages == 1

    def test_validates_batch(self):
        with pytest.raises(ValueError):
            ThreeHopRouter(ppn=2, batch_bytes=1)


class TestClusterRouting:
    def _run(self, routing, records=3000):
        cluster = SimCluster(
            nranks=16,
            fmt=FMT_FILTERKV,
            value_bytes=56,
            routing=routing,
            ppn=4,
            seed=6,
        )
        return cluster, cluster.run_epoch(records)

    def test_3hop_reduces_wire_messages(self):
        """With small per-rank-pair tails, aggregation wins big (the
        DeltaFS motivation for representative-based routing)."""
        _, direct = self._run("direct")
        _, threehop = self._run("3hop")
        assert threehop.rpc_messages < direct.rpc_messages
        assert threehop.shuffle_bytes == direct.shuffle_bytes  # same payload
        assert threehop.local_messages > direct.local_messages

    def test_3hop_preserves_correctness(self):
        cluster, st = self._run("3hop")
        assert st.records == 16 * 3000
        assert sum(r.records_received for r in cluster.receivers) == st.records
        from repro.core.kv import random_kv_batch

        batch = random_kv_batch(3000, 56, np.random.default_rng(6))
        engine = cluster.query_engine()
        value, qs = engine.get(int(batch.keys[17]))
        assert qs.found and value == batch.value_of(17)

    def test_unknown_routing_rejected(self):
        with pytest.raises(ValueError):
            SimCluster(nranks=4, routing="wormhole")
