"""One seal builds every partition's aux table together; each table equals
the one built alone.

`build_sealed_aux` takes a seal's partitions into unions of up to
`_UNION_KEYS` keys, and the csf tables of a union peel in one round loop
(`XorMaplet.build_many`).  A table's rounds and retry seeds are a
subsequence of its union's, so its slots, settled seed, ``tries`` and
sealed blob must equal building it alone, and the per-key oracle
`tests/reference/csf.py` must settle on the same seed and ``tries``.  The
partition sets mix an empty and a one-key partition, one past the union
cap, a key two or three ranks wrote with different values (it maps to its
lowest writer), a consistently repeated key, and key sets whose first
seed fails to peel, so a union always holds a table that retries beside
tables that do not.

The property has a fast entry for tier-1 and a ``_full`` twin under
``-m slow`` for the CI ``aux-tournament`` job.  The last test pins the
bytes of every extent of a compacting 16-rank store, as the per-table
build wrote them, and the compacted extents of a small store of each
format.
"""

import hashlib
import itertools

import numpy as np
import pytest
from hypothesis import strategies as st

from repro.apps.vpic import PARTICLE_VALUE_BYTES, VPICSimulation
from repro.core.auxtable import (
    _UNION_KEYS,
    aux_to_blob,
    build_sealed_aux,
    csf_fp_bits,
    rank_bits,
)
from repro.core.compact import CompactionPolicy
from repro.core.formats import FMT_FILTERKV, FORMATS
from repro.core.kv import KVBatch
from repro.core.multiepoch import MultiEpochStore
from repro.filters.csf import XorMaplet

from ..reference import csf as reference
from ..serve.test_proto_fuzz import both_profiles

SIZES = {"empty": 0, "one": 1, "few": 37, "k256": 256, "large": 2000, "past-cap": _UNION_KEYS + 9}


def _mapping(n, nparts, *seed):
    rng = np.random.default_rng(seed)
    keys = rng.choice(1 << 62, size=n, replace=False).astype(np.uint64)
    return keys, rng.integers(0, nparts, size=n, dtype=np.uint64)


def _retrying(nparts, seed):
    """256 keys whose csf table fails its first seed, ``seed``, to peel."""
    for salt in itertools.count():
        keys, ranks = _mapping(256, nparts, seed, salt)
        (m,) = XorMaplet.build_many([(keys, ranks, seed)], rank_bits(nparts), csf_fp_bits(nparts))
        if m.tries > 1:
            return keys, ranks


def _partition(kind, part, nparts, seed):
    if kind == "retry":
        return _retrying(nparts, seed + part)
    # A key delivered again: by one other rank, by two, or by its writer.
    shifts = {"conflict": [1], "conflict3": [1, 2], "repeat": [0]}.get(kind)
    if shifts:
        keys, ranks = _mapping(SIZES["few"], nparts, seed, part)
        again = [(ranks[0] + np.uint64(s)) % np.uint64(nparts) for s in shifts]
        return np.append(keys, [keys[0]] * len(again)), np.append(ranks, again)
    return _mapping(SIZES[kind], nparts, seed, part)


def _lowest_writer(keys, ranks):
    """Each distinct key, ascending, and the lowest rank that wrote it."""
    order = np.lexsort((ranks, keys))
    distinct, first = np.unique(keys[order], return_index=True)
    return distinct, ranks[order][first]


def check_batched_seal_equals_tables_built_alone(kinds, nparts, seed):
    parts = [(p, *_partition(kind, p, nparts, seed)) for p, kind in enumerate(kinds)]
    batched = build_sealed_aux(parts, nparts, "csf", seed, metrics=None)
    assert len(batched) == len(parts)
    for kind, (p, keys, ranks), aux in zip(kinds, parts, batched):
        (alone,) = build_sealed_aux([(p, keys, ranks)], nparts, "csf", seed, metrics=None)
        assert aux.backend == alone.backend == "csf"
        assert len(aux) == len(alone) == keys.size
        assert aux_to_blob(aux) == aux_to_blob(alone)
        if not keys.size:
            continue
        m, one = aux._maplet, alone._maplet
        assert (m.seed, m.tries, m.nkeys) == (one.seed, one.tries, one.nkeys)
        np.testing.assert_array_equal(m._slots, one._slots)
        if kind == "retry":
            assert m.tries > 1
        distinct, lowest = _lowest_writer(keys, ranks)
        if kind.startswith("conflict"):
            assert lowest[np.searchsorted(distinct, keys[0])] == ranks[keys == keys[0]].min()
        old = reference.build(distinct, lowest, m.value_bits, m.fp_bits, seed + p)
        assert (old.seed, old.tries) == (m.seed, m.tries)
        for maplet in (m, old):
            hits, values = maplet.lookup_many(distinct)
            assert hits.all()
            np.testing.assert_array_equal(values, lowest)


# Every set opens with a table that retries beside one that does not.
KINDS = st.lists(
    st.sampled_from(
        [
            "empty", "one", "few", "k256", "k256", "large", "past-cap", "retry",
            "conflict", "conflict3", "repeat",
        ]
    ),
    max_size=14,
).map(lambda kinds: ["retry", "k256"] + kinds)

(
    test_batched_seal_equals_tables_built_alone,
    test_batched_seal_equals_tables_built_alone_full,
) = both_profiles(
    check_batched_seal_equals_tables_built_alone,
    KINDS,
    st.sampled_from([4, 16]),
    st.integers(0, 2**31),
    quick=12,
    full=120,
)


def test_union_cap_splits_a_seal_and_a_larger_table_builds_alone():
    kinds = ["k256"] * 20 + ["past-cap", "one", "retry"]
    check_batched_seal_equals_tables_built_alone(kinds, 16, 5)


def test_store_extents_equal_the_per_table_build():
    """sha256 over every extent (name and bytes) of a seeded 12-epoch,
    16-rank store that compacted three times, taken when each table still
    built on its own: the batched seal writes the same bytes.  (Re-pinned
    when every checksum became a CRC-32: each extent equals the earlier
    one with its magic and checksum slots recomputed, nothing else.
    Re-pinned again when rows lost their ``u32`` value length: each table
    is the earlier one's rows re-encoded unframed, each manifest differs
    only in its epochs' byte totals, every other extent is unchanged.
    Re-pinned again when a merge began adopting source extents: every
    dump holds every particle on the same rank, so the merged epoch lists
    the newest source's 16 tables and 16 aux extents instead of copies.
    Each adopted table is byte-identical to the rewritten one at its rank,
    each adopted aux blob maps every stored key to the same rank, each
    manifest differs only in file names and byte totals, and every other
    extent is unchanged.  Re-pinned again when a store's filterkv tables
    lost their Bloom filter block and its csf guard widened from 2 to 9
    bits: each table is the earlier one with its filter block cut out and
    its footer re-pointed (``filter_len`` and ``bloom_nhashes`` 0), each aux
    blob maps every key its partition owns to the same one rank, and each
    manifest differs only in its epochs' byte totals.  Re-pinned again when
    the manifest stopped naming each epoch's aux backend: a sha256 over the
    ``part.*`` and ``aux.*`` extents alone is unchanged, and each manifest
    is the earlier one without its epochs' ``"aux_backend": "csf"``.)"""
    sim = VPICSimulation(16, 256, seed=3)
    store = MultiEpochStore(
        nranks=16,
        fmt=FMT_FILTERKV,
        value_bytes=PARTICLE_VALUE_BYTES,
        compaction=CompactionPolicy(max_live_epochs=4, merge_factor=4),
    )
    for _ in range(12):
        sim.step(1)
        store.write_epoch(sim.dump())
    assert store.compactions == 3
    assert _extents_sha256(store) == "7eb8efae194dd723d3e5a6eb93ea98c362639ba31a79c419bc7fe312790d36d4"


def _extents_sha256(store) -> str:
    """sha256 over every extent of ``store``'s device, name and bytes."""
    digest = hashlib.sha256()
    for name in store.device.list_files():
        digest.update(name.encode())
        digest.update(store.device.read(name, 0, store.device.file_size(name)))
    return digest.hexdigest()


# Re-pinned with the store above when rows lost their length, again when
# merges began adopting (each key block moves to the next rank every
# epoch, so every output rank's table is the newest source's table, and
# filterkv's aux partitions its aux extents), filterkv's again when its
# tables lost their Bloom filter block, and again when the manifest stopped
# naming each epoch's aux backend (base and dataptr epochs never named
# one).  Same proof as above.
COMPACTED = {
    "base": "12368032f6cec92dcb6c2bae1d2fc7f38025ea3e256ffa4201f10eb8ab746e6f",
    "dataptr": "11d563548ced2bae0ded108c7da0f2e73180fd9d6171b85f3c0a5095ca8a398e",
    "filterkv": "a6bebb71831229b4ce0e223929f3115020d01a13e8dbab8ac224d518f5905aa9",
}


@pytest.mark.parametrize("fmt", sorted(COMPACTED))
def test_compacted_extents_are_pinned(fmt):
    """Every extent and manifest byte of a 4-rank, 5-epoch store whose
    200 keys per rank are rewritten each epoch (by the next rank over, so
    a key's newest copy moves between ranks), after a middle window is
    compacted and then everything: the merge keeps the newest copy of
    each key on the rank that wrote it, in every format."""
    nranks, per_rank = 4, 200
    rng = np.random.default_rng(11)
    blocks = rng.choice(1 << 40, size=(nranks, per_rank), replace=False).astype(np.uint64)
    store = MultiEpochStore(nranks=nranks, fmt=FORMATS[fmt], value_bytes=24, seed=5)
    for epoch in range(5):
        store.write_epoch([
            KVBatch(blocks[(rank + epoch) % nranks],
                    rng.integers(0, 256, size=(per_rank, 24), dtype=np.uint8))
            for rank in range(nranks)
        ])
    store.compact(store.epochs[1:4])
    store.compact()
    assert len(store.epochs) == 1
    assert _extents_sha256(store) == COMPACTED[fmt]
