"""Tests for the sealed csf aux backend and alternate FilterKV aux variants."""

import numpy as np
import pytest

from repro.cluster import SimCluster
from repro.core.auxtable import AUX_BACKENDS, CsfAuxTable, csf_fp_bits, rank_bits
from repro.core.formats import FMT_FILTERKV
from repro.core.kv import random_kv_batch


def _workload(n=4000, nparts=64, seed=1):
    rng = np.random.default_rng(seed)
    return (
        rng.choice(2**40, size=n, replace=False).astype(np.uint64),
        rng.integers(0, nparts, size=n, dtype=np.uint64),
    )


class TestCsfAuxTable:
    def test_no_false_negatives(self):
        keys, ranks = _workload()
        t = CsfAuxTable(64)
        t.insert_many(keys, ranks)
        for i in range(0, 4000, 97):
            assert int(ranks[i]) in t.candidate_ranks(int(keys[i]))

    def test_space_beats_pointers_by_far(self):
        keys, ranks = _workload()
        t = CsfAuxTable(64)
        t.insert_many(keys, ranks)
        # ~1.23 * (fp + rank) bits per key, under the 10-bit Bloom budget.
        assert t.bytes_per_key * 8 < 1.3 * (csf_fp_bits(64) + rank_bits(64))
        assert len(t.to_bytes()) == t.size_bytes

    def test_present_keys_resolve_to_one_partition(self):
        keys, ranks = _workload(nparts=64, seed=2)
        t = CsfAuxTable(64)
        t.insert_many(keys, ranks)
        # The stored function returns the rank itself: amplification 1.0.
        assert (t.candidate_counts(keys[:200]) == 1).all()

    def test_static_semantics(self):
        keys, ranks = _workload(n=100)
        t = CsfAuxTable(64)
        t.insert_many(keys, ranks)
        t.finalize()
        with pytest.raises(ValueError):
            t.insert_many(keys, ranks)

    def test_empty_finalize_legal(self):
        # Compaction can seal a partition that ended up keyless: an empty
        # table finalizes to an empty (zero-byte) index, not an error.
        t = CsfAuxTable(8)
        t.finalize()
        assert len(t) == 0 and t.size_bytes == 0
        assert t.candidate_ranks(123).size == 0

    def test_factory(self):
        t = AUX_BACKENDS["csf"](16, fp_bits=12)
        assert isinstance(t, CsfAuxTable) and t.fp_bits == 12


@pytest.mark.parametrize("backend", ["csf"])
def test_filterkv_variant_roundtrips_in_cluster(backend):
    """FilterKV sealed with the store's csf instead of the paper's cuckoo:
    full write+query path."""
    cluster = SimCluster(
        nranks=6, fmt=FMT_FILTERKV, value_bytes=24, seed=13, aux_backend=backend
    )
    batches = [random_kv_batch(1200, 24, np.random.default_rng(40 + r)) for r in range(6)]
    for rank, b in enumerate(batches):
        cluster.put(rank, b)
    cluster.finish_epoch()
    engine = cluster.query_engine()
    assert {r.aux.backend for r in cluster.receivers} == {backend}
    for i in (0, 600, 1199):
        value, qs = engine.get(int(batches[4].keys[i]))
        assert qs.found and value == batches[4].value_of(i)
