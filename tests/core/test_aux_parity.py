"""Differential parity harness over the four aux backends.

Every backend class faces the same in-memory oracle; the two that seal
(`AUX_BACKENDS`) also face the blob codec.  Registering a sealing
backend is one entry there, and this file starts testing its blobs with
zero edits here.

The oracle checks, per backend:

* **no false negatives** — every inserted key's candidate set contains
  its true rank, on all three query surfaces;
* **three-surface equivalence** — `candidate_ranks`, `candidates_many`,
  and `candidate_counts` agree exactly, for present *and* absent keys;
* **blob round trip** (sealing backends) — `aux_from_blob(aux_to_blob(t))`
  answers identical candidate sets, and re-serializing the reload
  reproduces the original blob bit-for-bit.
"""

import numpy as np
import pytest

from repro.core.auxtable import (
    AUX_BACKENDS,
    BloomAuxTable,
    CsfAuxTable,
    CuckooAuxTable,
    ExactAuxTable,
    aux_from_blob,
    aux_to_blob,
)
from repro.obs import MetricsRegistry

NPARTS = 16
NKEYS = 1500

CLASSES = {
    cls.backend: cls for cls in (ExactAuxTable, BloomAuxTable, CuckooAuxTable, CsfAuxTable)
}
BACKENDS = sorted(CLASSES)
SEALING = sorted(AUX_BACKENDS)


def _workload(seed=11):
    rng = np.random.default_rng(seed)
    keys = rng.choice(np.arange(1, 50_000, dtype=np.uint64), size=NKEYS, replace=False)
    ranks = rng.integers(0, NPARTS, size=NKEYS, dtype=np.uint64)
    absent = np.setdiff1d(
        rng.integers(50_000, 90_000, size=NKEYS, dtype=np.uint64), keys
    )
    return keys, ranks, absent


def _build(backend, keys, ranks):
    t = CLASSES[backend](NPARTS, capacity_hint=keys.size, seed=7)
    # Chunked inserts: backends must accumulate across calls, not only
    # accept one bulk load.
    for lo in range(0, keys.size, 400):
        t.insert_many(keys[lo : lo + 400], ranks[lo : lo + 400])
    t.finalize()
    return t


@pytest.fixture(scope="module", params=BACKENDS)
def built(request):
    backend = request.param
    keys, ranks, absent = _workload()
    return backend, _build(backend, keys, ranks), keys, ranks, absent


def test_registry_covers_known_backends():
    # The blob tests are registry-driven; this pins what the registry holds.
    assert BACKENDS == ["bloom", "csf", "cuckoo", "exact"]
    assert SEALING == ["csf", "cuckoo"]


def test_no_false_negatives(built):
    backend, t, keys, ranks, _ = built
    counts, flat = t.candidates_many(keys)
    assert (counts >= 1).all(), f"{backend}: key with empty candidate set"
    starts = np.concatenate([[0], np.cumsum(counts)])
    for i in range(keys.size):
        cands = flat[starts[i] : starts[i + 1]]
        assert int(ranks[i]) in cands, (
            f"{backend}: key {keys[i]} true rank {ranks[i]} not in {cands}"
        )


def test_three_surface_equivalence(built):
    backend, t, keys, _, absent = built
    probe = np.concatenate([keys, absent])
    counts, flat = t.candidates_many(probe)
    counts2 = t.candidate_counts(probe)
    np.testing.assert_array_equal(counts, counts2, err_msg=backend)
    starts = np.concatenate([[0], np.cumsum(counts)])
    for i, k in enumerate(probe):
        scalar = np.asarray(t.candidate_ranks(int(k)), dtype=np.int64)
        bulk = np.asarray(flat[starts[i] : starts[i + 1]], dtype=np.int64)
        np.testing.assert_array_equal(np.sort(scalar), np.sort(bulk), err_msg=backend)


@pytest.mark.parametrize("backend", BACKENDS)
def test_a_key_stored_twice_by_one_rank_counts_once(backend):
    """A key one rank wrote twice is one candidate on every surface, and
    `candidate_counts` books no false candidate for it (exact counted each
    stored copy)."""
    reg = MetricsRegistry()
    t = CLASSES[backend](NPARTS, capacity_hint=4, seed=3, metrics=reg)
    t.insert_many(np.asarray([5, 5, 9, 11], dtype=np.uint64), np.asarray([1, 1, 2, 3]))
    t.finalize()
    probe = np.asarray([5, 9], dtype=np.uint64)
    falses = []
    for surface in (t.candidates_many, t.candidate_counts):
        before = reg.total("aux.false_candidates")
        out = surface(probe)
        counts = out[0] if isinstance(out, tuple) else out
        falses.append(reg.total("aux.false_candidates") - before)
        assert counts.tolist() == [len(t.candidate_ranks(int(k))) for k in probe], backend
    assert falses[0] == falses[1], backend


def test_candidates_sorted_distinct(built):
    backend, t, keys, _, _ = built
    for k in keys[:50]:
        cands = np.asarray(t.candidate_ranks(int(k)))
        assert (np.diff(cands) > 0).all(), f"{backend}: candidates not sorted-distinct"
        assert (cands >= 0).all() and (cands < NPARTS).all(), backend


@pytest.mark.parametrize("backend", SEALING)
def test_blob_round_trip_bit_equality(backend):
    keys, ranks, absent = _workload()
    t = _build(backend, keys, ranks)
    blob = aux_to_blob(t)
    reloaded = aux_from_blob(blob)
    assert reloaded.backend == backend
    assert reloaded.nparts == t.nparts
    assert len(reloaded) == len(t)
    assert reloaded.size_bytes == t.size_bytes
    probe = np.concatenate([keys, absent])
    c1, f1 = t.candidates_many(probe)
    c2, f2 = reloaded.candidates_many(probe)
    np.testing.assert_array_equal(c1, c2, err_msg=backend)
    np.testing.assert_array_equal(f1, f2, err_msg=backend)
    # The reload is not merely equivalent — it re-serializes to the very
    # same bytes, so compaction can carry blobs forward verbatim.
    assert aux_to_blob(reloaded) == blob, f"{backend}: blob not bit-stable"


def test_empty_table_round_trip():
    for backend in SEALING:
        t = CLASSES[backend](NPARTS, capacity_hint=1, seed=3)
        t.finalize()
        reloaded = aux_from_blob(aux_to_blob(t))
        assert len(reloaded) == 0, backend
        assert aux_to_blob(reloaded) == aux_to_blob(t), backend


def test_single_key_round_trip():
    for backend in SEALING:
        t = CLASSES[backend](NPARTS, capacity_hint=1, seed=3)
        t.insert_many(np.asarray([12345], dtype=np.uint64), 7)
        t.finalize()
        assert 7 in t.candidate_ranks(12345), backend
        reloaded = aux_from_blob(aux_to_blob(t))
        assert 7 in reloaded.candidate_ranks(12345), backend
