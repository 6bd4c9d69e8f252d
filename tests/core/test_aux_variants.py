"""Tests for the xor aux backend and alternate FilterKV aux variants."""

import dataclasses

import numpy as np
import pytest

from repro.cluster import SimCluster
from repro.core.auxtable import XorAuxTable, make_aux_table
from repro.core.formats import FMT_FILTERKV
from repro.core.kv import random_kv_batch


def _workload(n=4000, nparts=64, seed=1):
    rng = np.random.default_rng(seed)
    return (
        rng.integers(0, 2**63, size=n, dtype=np.uint64),
        rng.integers(0, nparts, size=n, dtype=np.uint64),
    )


class TestXorAuxTable:
    def test_no_false_negatives(self):
        keys, ranks = _workload()
        t = XorAuxTable(64, fp_bits=8)
        t.insert_many(keys, ranks)
        for i in range(0, 4000, 97):
            assert int(ranks[i]) in t.candidate_ranks(int(keys[i]))

    def test_space_beats_pointers_by_far(self):
        keys, ranks = _workload()
        t = XorAuxTable(64, fp_bits=8)
        t.insert_many(keys, ranks)
        assert t.bytes_per_key < 1.5  # ~1.23 bytes at 8-bit fingerprints
        assert len(t.to_bytes()) == t.size_bytes

    def test_amplification_small(self):
        keys, ranks = _workload(nparts=64, seed=2)
        t = XorAuxTable(64, fp_bits=8)
        t.insert_many(keys, ranks)
        amp = t.candidate_counts(keys[:200]).mean()
        # 1 true + 63 × 2^-8 ≈ 1.25 expected candidates.
        assert amp == pytest.approx(1.25, abs=0.3)

    def test_static_semantics(self):
        keys, ranks = _workload(n=100)
        t = XorAuxTable(64)
        t.insert_many(keys, ranks)
        t.finalize()
        with pytest.raises(ValueError):
            t.insert_many(keys, ranks)

    def test_empty_finalize_legal(self):
        # Compaction can seal a partition that ended up keyless: an empty
        # table finalizes to an empty (zero-byte) index, not an error.
        t = XorAuxTable(8)
        t.finalize()
        assert len(t) == 0 and t.size_bytes == 0
        assert t.candidate_ranks(123).size == 0

    def test_factory(self):
        t = make_aux_table("xor", nparts=16, fp_bits=12)
        assert isinstance(t, XorAuxTable)


@pytest.mark.parametrize("backend", ["bloom", "xor"])
def test_filterkv_variant_roundtrips_in_cluster(backend):
    """FilterKV with alternative aux backends: full write+query path."""
    fmt = dataclasses.replace(FMT_FILTERKV, aux_backend=backend)
    cluster = SimCluster(nranks=6, fmt=fmt, value_bytes=24, seed=13)
    batches = [random_kv_batch(1200, 24, np.random.default_rng(40 + r)) for r in range(6)]
    for rank, b in enumerate(batches):
        cluster.put(rank, b)
    cluster.finish_epoch()
    engine = cluster.query_engine()
    for i in (0, 600, 1199):
        value, qs = engine.get(int(batches[4].keys[i]))
        assert qs.found and value == batches[4].value_of(i)
