"""End-to-end scenarios across the whole stack."""

import numpy as np
import pytest

from repro.apps.vpic import VPICSimulation
from repro.cluster import SimCluster
from repro.core import FMT_BASE, FMT_DATAPTR, FMT_FILTERKV
from repro.core.kv import KVBatch, random_kv_batch
from repro.filters.hashing import splitmix64


FORMATS = (FMT_BASE, FMT_DATAPTR, FMT_FILTERKV)


def _run_with_batches(fmt, batches, **kw):
    cluster = SimCluster(nranks=len(batches), fmt=fmt, value_bytes=batches[0].value_bytes, **kw)
    for rank, b in enumerate(batches):
        cluster.put(rank, b)
    cluster.finish_epoch()
    return cluster


@pytest.mark.parametrize("fmt", FORMATS, ids=lambda f: f.name)
def test_every_written_key_is_readable(fmt):
    """Exhaustive read-your-writes over a full (small) dataset."""
    batches = [random_kv_batch(400, 24, np.random.default_rng(100 + r)) for r in range(6)]
    cluster = _run_with_batches(fmt, batches)
    engine = cluster.query_engine()
    for rank, batch in enumerate(batches):
        for i in range(0, len(batch), 37):
            value, qs = engine.get(int(batch.keys[i]))
            assert qs.found, f"{fmt.name}: rank {rank} record {i} lost"
            assert value == batch.value_of(i)


@pytest.mark.parametrize("fmt", FORMATS, ids=lambda f: f.name)
def test_absent_keys_are_never_fabricated(fmt):
    batches = [random_kv_batch(300, 24, np.random.default_rng(200 + r)) for r in range(4)]
    cluster = _run_with_batches(fmt, batches)
    engine = cluster.query_engine()
    rng = np.random.default_rng(5)
    written = set(int(k) for b in batches for k in b.keys)
    misses = 0
    for _ in range(60):
        key = int(rng.integers(0, 2**63))
        if key in written:
            continue
        value, qs = engine.get(key)
        assert value is None and not qs.found
        misses += 1
    assert misses >= 50


def test_vpic_multi_epoch_trajectory():
    """The paper's end-to-end use case: query one particle across dumps."""
    sim = VPICSimulation(nranks=6, particles_per_rank=800, drift=0.2, seed=9)
    target = int(sim.ids[42])
    values = []
    for epoch in range(3):
        sim.step(2)
        cluster = SimCluster(
            nranks=6, fmt=FMT_FILTERKV, value_bytes=56, epoch=epoch
        )
        for rank, batch in enumerate(sim.dump()):
            cluster.put(rank, batch)
        cluster.finish_epoch()
        value, qs = cluster.query_engine().get(target)
        assert qs.found
        values.append(value)
    # The particle moved: state differs across epochs.
    assert len(set(values)) == 3
    xs = [float(np.frombuffer(v, dtype="<f4")[0]) for v in values]
    assert all(0 <= x < 6 for x in xs)


def test_skewed_keys_still_roundtrip():
    """Zipf-heavy duplicate keys: the first write per key wins at readback,
    and nothing crashes in the lossy index path."""
    rng = np.random.default_rng(4)
    # Keys scrambled through splitmix64: the skew is in frequency, not locality.
    keys = splitmix64((rng.zipf(1.3, size=3000) % (1 << 24)).astype(np.uint64))
    values = rng.integers(0, 256, size=(3000, 16), dtype=np.uint8)
    per_rank = 4
    batches = [KVBatch(keys[i::per_rank], values[i::per_rank]) for i in range(per_rank)]
    cluster = _run_with_batches(FMT_FILTERKV, batches)
    engine = cluster.query_engine()
    key = int(batches[0].keys[0])
    value, qs = engine.get(key)
    assert qs.found and value is not None


def test_conservation_across_formats():
    """All formats agree on how many records exist and who owns them."""
    batches = [random_kv_batch(1000, 56, np.random.default_rng(300 + r)) for r in range(5)]
    owners = {}
    for fmt in FORMATS:
        cluster = _run_with_batches(fmt, batches)
        received = tuple(r.records_received for r in cluster.receivers)
        owners[fmt.name] = received
        assert sum(received) == 5000
    assert owners["base"] == owners["dataptr"] == owners["filterkv"]


def test_filterkv_amplification_visible_in_queries():
    """Statistically, some FilterKV queries probe more than one partition."""
    batches = [random_kv_batch(4000, 8, np.random.default_rng(400 + r)) for r in range(8)]
    cluster = _run_with_batches(FMT_FILTERKV, batches)
    engine = cluster.query_engine()
    probes = []
    for i in range(80):
        _, qs = engine.get(int(batches[i % 8].keys[i * 7]))
        probes.append(qs.partitions_searched)
    assert max(probes) > 1  # lossiness shows up
    assert np.mean(probes) < 4  # but stays bounded
