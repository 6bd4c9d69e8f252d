"""The round-synchronous CSF build against the per-key oracle.

`tests/reference/csf.py` is the one-key-at-a-time peel and assignment the
array build replaced.  Peeling succeeds or fails independently of the
order keys are taken, so for every key set the two settle on the same seed
after the same number of tries, and answer every stored key alike; only
the slot contents differ.  A blob sealed by the old construction must
answer like one sealed by the new, since epochs written before the change
hold such blobs.  `XorMaplet.get` is pinned bit for bit to `lookup_many`.

Each property has a fast entry for tier-1 and a ``_full`` twin under
``-m slow`` for the CI ``aux-tournament`` job.
"""

import numpy as np
from hypothesis import strategies as st

from repro.core.auxtable import aux_from_blob, aux_to_blob, build_sealed_aux, rank_bits

from ..core.test_aux_blob_golden import KEYS, LEGACY, NPARTS, RANKS
from ..core.test_sealed_aux_build import BOUNDARY_COUNTS
from ..reference import csf as reference
from ..serve.test_proto_fuzz import both_profiles
from .test_csf import maplet

U64 = 2**64 - 1

sizes = st.one_of(st.integers(1, 5000), st.sampled_from(BOUNDARY_COUNTS))
seeds = st.integers(0, 2**31)


def _mapping(n, seed, nparts):
    rng = np.random.default_rng(seed)
    keys = rng.choice(1 << 62, size=n, replace=False).astype(np.uint64)
    return keys, rng.integers(0, nparts, size=n, dtype=np.uint64)


def check_same_seed_tries_and_answers(n, seed, nparts):
    keys, ranks = _mapping(n, seed, nparts)
    bits = rank_bits(nparts)
    new = maplet(keys, ranks, value_bits=bits, fp_bits=3, seed=seed)
    old = reference.build(keys, ranks, value_bits=bits, fp_bits=3, seed=seed)
    assert (new.seed, new.tries, new.nslots) == (old.seed, old.tries, old.nslots)
    for m in (new, old):
        hits, values = m.lookup_many(keys)
        assert hits.all()
        np.testing.assert_array_equal(values, ranks)
    # The slots are a function of the key set, not of the key order.
    shuffled = np.random.default_rng(seed).permutation(n)
    again = maplet(keys[shuffled], ranks[shuffled], value_bits=bits, fp_bits=3, seed=seed)
    np.testing.assert_array_equal(again._slots, new._slots)


test_same_seed_tries_and_answers, test_same_seed_tries_and_answers_full = both_profiles(
    check_same_seed_tries_and_answers, sizes, seeds, st.sampled_from([4, 16, 256]),
    quick=30, full=400,
)


def check_old_and_new_blobs_answer_alike(n, seed, nparts):
    keys, ranks = _mapping(n, seed, nparts)
    (sealed,) = build_sealed_aux([(0, keys, ranks)], nparts, "csf", seed, metrics=None)
    new = aux_from_blob(aux_to_blob(sealed))
    old = aux_from_blob(reference.seal(keys, ranks, nparts, seed))
    assert old.backend == new.backend == "csf"
    old_counts, old_flat = old.candidates_many(keys)
    new_counts, new_flat = new.candidates_many(keys)
    np.testing.assert_array_equal(old_counts, new_counts)
    np.testing.assert_array_equal(old_flat, new_flat)
    np.testing.assert_array_equal(new_flat, ranks)


test_old_and_new_blobs_answer_alike, test_old_and_new_blobs_answer_alike_full = both_profiles(
    check_old_and_new_blobs_answer_alike, sizes, seeds, st.sampled_from([4, 6, 16, 256]),
    quick=20, full=300,
)


def check_get_is_lookup_many_bit_for_bit(n, seed, fp_bits, value_bits, probes):
    keys, _ = _mapping(n, seed, 2)
    values = np.random.default_rng(seed + 1).integers(0, 1 << value_bits, size=n, dtype=np.uint64)
    m = maplet(keys, values, value_bits=value_bits, fp_bits=fp_bits, seed=seed)
    probe = np.concatenate([keys[:64], np.asarray(probes + [0, U64], dtype=np.uint64)])
    hits, got = m.lookup_many(probe)
    assert [m.get(int(k)) for k in probe] == [
        int(v) if h else None for h, v in zip(hits, got)
    ]


test_get_is_lookup_many_bit_for_bit, test_get_is_lookup_many_bit_for_bit_full = both_profiles(
    check_get_is_lookup_many_bit_for_bit,
    st.integers(1, 300),
    seeds,
    st.integers(1, 8),
    st.integers(1, 16),
    st.lists(st.integers(0, U64), max_size=64),
    quick=60, full=1500,
)


def test_a_retried_build_retries_as_the_oracle_does():
    """Small key sets need a second seed now and then: both constructions
    must refuse the same first seeds."""
    retried = 0
    for seed in range(40):
        keys, ranks = _mapping(20, seed, 4)
        new = maplet(keys, ranks, value_bits=2, fp_bits=3, seed=seed)
        old = reference.build(keys, ranks, value_bits=2, fp_bits=3, seed=seed)
        assert (new.seed, new.tries) == (old.seed, old.tries), seed
        retried += new.tries > 1
    assert retried


def test_oracle_reseals_the_legacy_golden_blob():
    """The oracle is the construction that sealed `LEGACY["csf"]`."""
    keys, ranks = np.unique(KEYS), RANKS[np.argsort(KEYS)]
    assert reference.seal(keys, ranks, NPARTS, seed=9) == LEGACY["csf"]
