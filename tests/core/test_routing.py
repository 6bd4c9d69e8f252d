"""Tests for shuffle routing (direct vs 3-hop aggregation)."""

import numpy as np
import pytest

from repro.cluster.simcluster import SimCluster
from repro.core.formats import FMT_FILTERKV
from repro.core.pipeline import Envelope
from repro.core.routing import DirectRouter, ThreeHopRouter


def _env(src, dest, nbytes=100):
    return Envelope(src, dest, b"x" * nbytes, nrecords=1)


class TestDirectRouter:
    def test_counts_wire_messages(self):
        got = []
        r = DirectRouter(got.append, ppn=2)
        r.send(_env(0, 3))  # node 0 → node 1: wire
        r.send(_env(0, 1))  # same node: local
        r.send(_env(2, 2))  # self: neither
        assert r.wire_messages == 1
        assert r.local_messages == 1
        assert r.wire_bytes == 100
        assert len(got) == 3  # everything delivered


class TestThreeHopRouter:
    def test_aggregates_until_batch_full(self):
        got = []
        r = ThreeHopRouter(got.append, ppn=2, batch_bytes=250)
        r.send(_env(0, 2))  # node 0 → node 1, buffered (100 B)
        r.send(_env(1, 3))  # same node pair, buffered (200 B)
        assert r.wire_messages == 0
        assert got == []
        r.send(_env(0, 3))  # 300 B ≥ 250: ships one aggregated message
        assert r.wire_messages == 1
        assert r.wire_bytes == 300
        assert len(got) == 3

    def test_flush_ships_partials(self):
        got = []
        r = ThreeHopRouter(got.append, ppn=2, batch_bytes=10_000)
        r.send(_env(0, 2))
        r.send(_env(2, 0))
        assert got == [] and r.wire_messages == 0  # both partials buffered
        r.flush()
        assert r.wire_messages == 2  # one per node pair
        assert len(got) == 2

    def test_local_traffic_never_buffers(self):
        got = []
        r = ThreeHopRouter(got.append, ppn=4, batch_bytes=1000)
        r.send(_env(0, 3))  # same node
        r.send(_env(5, 5))  # self
        assert len(got) == 2 and r.wire_messages == 0

    def test_hop_accounting(self):
        r = ThreeHopRouter(lambda e: None, ppn=2, batch_bytes=150)
        r.send(_env(0, 2))
        r.send(_env(0, 2))
        # hop1 ×2 (sender→rep) + hop3 ×2 (rep→dest) = 4 local messages.
        assert r.local_messages == 4
        assert r.wire_messages == 1

    def test_validates_batch(self):
        with pytest.raises(ValueError):
            ThreeHopRouter(lambda e: None, ppn=2, batch_bytes=1)


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
