"""One epoch probe per read step, and one accumulator per read call.

Every filterkv engine probes its epoch's aux tables through one
`EpochAux`: a store's csf epoch holds its partitions' maplets as one
`MapletUnion`, so a read step probes every owner's keys with one hash and
one gather, and `SimCluster`'s cuckoo epoch is probed partition by
partition inside it.  These tests hold either to each partition's own
`candidates_many`: the same ``(counts, flat)`` in step order, the same
``aux.*`` counters per table, false candidates included, and no second
copy of any csf slot.  A read step enters `AuxTable.candidates_many` once,
whatever its owners.

A walk over several epochs (`lookup_many`, ``lookup(cached=False)``)
shares one `ReadBatch`; each key's stats must be the field-by-field sum
of its per-epoch reads (`tests/reference/read.py::walk_stats`).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import FMT_FILTERKV
from repro.core.auxtable import AuxTable, EpochAux, build_sealed_aux
from repro.core.kv import KVBatch
from repro.core.multiepoch import MultiEpochStore
from repro.core.partitioning import HashPartitioner
from repro.obs import MetricsRegistry

from ..reference.read import AUX_COUNTERS, walk_stats

VALUE_BYTES = 8


def _tables(nparts, sizes, seed, metrics, backend="csf"):
    """Sealed ``backend`` tables, partition ``p`` holding ``sizes[p]``
    keys (0: no csf maplet), each key on a drawn rank; and the keys by
    partition."""
    rng = np.random.default_rng(seed)
    parts = []
    for p, n in enumerate(sizes):
        keys = np.unique(rng.integers(0, 2**64 - 1, size=n, dtype=np.uint64))
        parts.append((p, keys, rng.integers(0, nparts, size=keys.size).astype(np.uint64)))
    return build_sealed_aux(parts, nparts, backend, seed, metrics), [k for _, k, _ in parts]


def _aux_series(registry):
    return {
        (name, labels): inst.value
        for name, labels, inst in registry.series()
        if name in AUX_COUNTERS
    }


def _per_partition(tables, keys, owners):
    """Each owner's own `candidates_many` of its keys, reassembled in key
    order as ``(counts, flat)``."""
    per_key = [None] * keys.size
    for owner in np.unique(owners).tolist():
        pos = np.flatnonzero(owners == owner)
        counts, flat = tables[owner].candidates_many(keys[pos])
        at = 0
        for p, c in zip(pos.tolist(), counts.tolist()):
            per_key[p] = flat[at : at + c].tolist()
            at += c
    counts = np.asarray([len(r) for r in per_key], dtype=np.int64)
    flat = np.asarray([r for rs in per_key for r in rs], dtype=np.int64)
    return counts, flat


@settings(max_examples=40, deadline=None)
@given(
    backend=st.sampled_from(["csf", "cuckoo"]),
    nparts=st.sampled_from([4, 6, 16]),  # 6: rank_bits names ranks >= nparts
    sizes=st.data(),
    seed=st.integers(0, 2**31),
    absent=st.integers(0, 300),
)
def test_union_probe_equals_each_partitions_probe(backend, nparts, sizes, seed, absent):
    """Present keys (their one rank; under the cuckoo, false ones too),
    absent keys (none, or false ones), guard escapes and empty
    partitions: the epoch answers every key as its owner's table does,
    and moves the same counters."""
    sizes = sizes.draw(st.lists(st.integers(0, 60), min_size=nparts, max_size=nparts))
    own_reg, union_reg = MetricsRegistry(), MetricsRegistry()
    own, by_part = _tables(nparts, sizes, seed, own_reg, backend)
    shared, _ = _tables(nparts, sizes, seed, union_reg, backend)
    union = EpochAux.over(shared)
    rng = np.random.default_rng(seed + 1)
    keys = np.concatenate(
        by_part + [rng.integers(0, 2**64 - 1, size=absent, dtype=np.uint64)]
    )
    owners = np.concatenate(
        [np.full(k.size, p, dtype=np.int64) for p, k in enumerate(by_part)]
        + [rng.integers(0, nparts, size=absent)]
    )
    order = rng.permutation(keys.size)
    keys, owners = keys[order], owners[order]
    if keys.size == 0:
        return
    want = _per_partition(own, keys, owners)
    got = union.candidates_many(keys, owners)
    assert got[0].tolist() == want[0].tolist() and got[1].tolist() == want[1].tolist()
    for i in range(0, keys.size, 7):  # one key: the plain-int twin
        one = union.candidates_many(keys[i : i + 1], owners[i : i + 1])
        assert one[1].tolist() == own[int(owners[i])].candidates_many(keys[i : i + 1])[1].tolist()
    assert _aux_series(union_reg) == _aux_series(own_reg)


def test_guard_escapes_are_no_candidates():
    """At 6 partitions a 3-bit rank can name 6 or 7: an absent key whose
    fingerprint passes with such a value has no candidate, in the union as
    in its table, and a sample of absent keys does meet some."""
    tables, _ = _tables(6, [200] * 6, 3, None)
    union = EpochAux.over(tables)
    keys = np.random.default_rng(4).integers(0, 2**64 - 1, size=60_000, dtype=np.uint64)
    owners = np.zeros(keys.size, dtype=np.int64)
    hits, values = tables[0]._maplet.lookup_many(keys)
    assert (hits & (values >= 6)).sum() > 0
    counts, flat = union.candidates_many(keys, owners)
    assert counts.tolist() == (hits & (values < 6)).astype(int).tolist()
    assert flat.tolist() == values[hits & (values < 6)].tolist()


def test_union_holds_no_second_copy_of_the_slots():
    tables, _ = _tables(16, [0] + [40] * 15, 9, None)
    union = EpochAux.over(tables)
    slots = union._union.slots
    for table in tables:
        if table._maplet is not None:
            assert table._maplet._slots.base is slots
    assert slots.nbytes == 8 * (sum(t._maplet.nslots for t in tables[1:]) + 3)


def _store(nranks, epochs=2, per_rank=64, seed=5):
    store = MultiEpochStore(nranks=nranks, fmt=FMT_FILTERKV, value_bytes=VALUE_BYTES, seed=seed)
    rng = np.random.default_rng(seed)
    keys = rng.integers(0, 2**63, size=nranks * per_rank * 2, dtype=np.uint64)
    for _ in range(epochs):
        picked = rng.choice(keys, size=nranks * per_rank, replace=False)
        values = rng.integers(0, 256, size=(picked.size, VALUE_BYTES), dtype=np.uint8)
        store.write_epoch(
            [KVBatch(picked[r::nranks], values[r::nranks]) for r in range(nranks)]
        )
    return store, keys


def test_a_bulk_read_of_a_csf_epoch_probes_its_aux_once(monkeypatch):
    """A 256-key `get_many` over a 16-rank csf epoch's 16 owners enters
    `AuxTable.candidates_many` once (once per owner partition before the
    union)."""
    store, keys = _store(16, epochs=1)
    calls = []
    probe = AuxTable.candidates_many
    monkeypatch.setattr(
        AuxTable, "candidates_many", lambda self, *a: calls.append(self) or probe(self, *a)
    )
    batch = keys[:256]
    assert len(set(HashPartitioner(16).partition_of(batch).tolist())) == 16
    mount = store.mount(table_cache_entries=1)
    for read in (
        lambda: store.get_many(batch, 0),
        lambda: store.engine(0).get_many(batch),
        lambda: mount.get_many(batch, 0),
        lambda: store.lookup_many(batch),
    ):
        calls.clear()
        read()
        assert len(calls) == 1 and isinstance(calls[0], EpochAux)
    mount.close()


@pytest.mark.parametrize("nranks", [4, 16])
def test_walk_stats_are_the_per_epoch_sums(nranks):
    """`lookup_many` through the warm session and ``lookup(cached=False)``
    give each key the `QueryStats` the per-epoch reads sum to: reads,
    bytes, breakdowns, latency and partitions searched.  The sums are read
    from a twin store given the same reads in the same order: the warm
    views share state, and a read's latency is a difference of the
    device's running time total, so its last bits follow that total."""
    store, keys = _store(nranks, epochs=3)
    twin, _ = _store(nranks, epochs=3)
    probe = np.concatenate([keys[:150], np.arange(1, 20, dtype=np.uint64)])
    _, _, stats = store.lookup_many(probe)
    assert stats == walk_stats(twin.epochs, twin._warm.engine, probe)
    _, _, again = store.lookup_many(probe)  # everything resident now
    assert again == walk_stats(twin.epochs, twin._warm.engine, probe)
    for k in probe[::5]:
        assert store.lookup(int(k), cached=False)[2] == walk_stats(
            twin.epochs, twin.engine, [k]
        )[0]
    assert store.lookup(int(probe[0]))[2] == walk_stats(
        twin.epochs, twin._warm.engine, probe[:1]
    )[0]
