"""Property-based tests (hypothesis) for the XorMaplet compressed static
function.

Invariants:

* every inserted key recovers its exact value (a CSF has no false
  negatives *and* no wrong answers for present keys), across seeds,
  sizes, and value widths;
* construction retries deterministically until a peelable seed is found,
  and `from_state` with the settled seed reproduces lookups bit-for-bit;
* duplicate keys mapped to two values are rejected (a static function
  maps each key once), as are values wider than the table's;
* the out-of-set false-candidate (guard escape) rate stays within 2x the
  analytic bound 2^-fp_bits — quick check inline, a tighter large-sample
  measurement under ``-m slow``.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.auxtable import CsfAuxTable
from repro.filters import csf
from repro.filters.csf import CsfConstructionError, XorMaplet


def maplet(keys, values, value_bits, fp_bits, seed=0):
    """One table built alone: `XorMaplet.build_many` of one."""
    (m,) = XorMaplet.build_many(
        [(np.asarray(keys, dtype=np.uint64), np.asarray(values, dtype=np.uint64), seed)],
        value_bits,
        fp_bits,
    )
    return m


unique_keys = st.lists(
    st.integers(min_value=0, max_value=2**63 - 1),
    min_size=1,
    max_size=300,
    unique=True,
)


@given(
    keys=unique_keys,
    value_bits=st.integers(min_value=1, max_value=16),
    seed=st.integers(min_value=0, max_value=2**31),
)
@settings(max_examples=40, deadline=None)
def test_exact_value_recovery(keys, value_bits, seed):
    arr = np.asarray(keys, dtype=np.uint64)
    vals = (arr % np.uint64(1 << value_bits)).astype(np.uint64)
    m = maplet(arr, vals, value_bits=value_bits, fp_bits=6, seed=seed)
    hits, out = m.lookup_many(arr)
    assert hits.all(), "present key missed the fingerprint guard"
    np.testing.assert_array_equal(out, vals)
    for k, v in zip(arr[:20], vals[:20]):
        assert m.get(int(k)) == int(v)


@given(keys=unique_keys, seed=st.integers(min_value=0, max_value=2**31))
@settings(max_examples=30, deadline=None)
def test_from_state_round_trip(keys, seed):
    arr = np.asarray(keys, dtype=np.uint64)
    vals = (arr % np.uint64(8)).astype(np.uint64)
    m = maplet(arr, vals, value_bits=3, fp_bits=5, seed=seed)
    # m.seed is the *settled* seed after any retries — from_state must not
    # replay the retry loop.
    n = XorMaplet.from_state(
        m._slots.copy(), m.nkeys, value_bits=3, fp_bits=5, seed=m.seed
    )
    probes = np.concatenate([arr, np.arange(2**40, 2**40 + 200, dtype=np.uint64)])
    h1, v1 = m.lookup_many(probes)
    h2, v2 = n.lookup_many(probes)
    np.testing.assert_array_equal(h1, h2)
    np.testing.assert_array_equal(v1, v2)
    assert n.size_bytes == m.size_bytes


@given(seed=st.integers(min_value=0, max_value=2**31))
@settings(max_examples=25, deadline=None)
def test_construction_deterministic(seed):
    rng = np.random.default_rng(seed % 1000)
    keys = rng.choice(np.arange(10_000, dtype=np.uint64), size=500, replace=False)
    vals = (keys % np.uint64(16)).astype(np.uint64)
    a = maplet(keys, vals, value_bits=4, fp_bits=4, seed=seed)
    b = maplet(keys, vals, value_bits=4, fp_bits=4, seed=seed)
    assert a.seed == b.seed and a.tries == b.tries
    np.testing.assert_array_equal(a._slots, b._slots)


def test_duplicate_keys_rejected():
    table = CsfAuxTable(4)
    table.insert_many(np.asarray([1, 2, 3, 2], dtype=np.uint64), np.asarray([0, 1, 2, 3]))
    with pytest.raises(ValueError, match="duplicate"):
        table.finalize()


def test_value_too_wide_rejected():
    with pytest.raises(ValueError):
        CsfAuxTable(4).insert_many(np.asarray([1, 2, 3], dtype=np.uint64), np.asarray([0, 1, 4]))


@pytest.mark.parametrize("nslots", [0, 7])
def test_from_state_needs_three_non_empty_segments(nslots):
    with pytest.raises(ValueError, match="segments"):
        XorMaplet.from_state(np.zeros(nslots, dtype=np.uint64), 1, 2, 4, seed=0)


def test_retry_exhaustion_raises(monkeypatch):
    monkeypatch.setattr(csf, "MAX_TRIES", 0)
    keys = np.arange(1, 200, dtype=np.uint64)
    assert maplet(keys, keys % np.uint64(4), value_bits=2, fp_bits=4) is None
    table = CsfAuxTable(4)
    table.insert_many(keys, keys % np.uint64(4))
    with pytest.raises(CsfConstructionError):
        table.finalize()


def test_retry_seed_stride():
    # With MAX_TRIES > 1 some seed must settle; the settled seed is always
    # seed + k * stride for the k-th attempt, so tries and seed agree.
    keys = np.arange(1, 400, dtype=np.uint64)
    vals = keys % np.uint64(8)
    m = maplet(keys, vals, value_bits=3, fp_bits=4, seed=123)
    assert m.tries >= 1
    assert m.seed == 123 + (m.tries - 1) * 0x9E37


def _guard_escape_rate(nkeys, nprobes, fp_bits, seed):
    rng = np.random.default_rng(seed)
    keys = rng.choice(
        np.arange(1, 10 * nkeys, dtype=np.uint64), size=nkeys, replace=False
    )
    vals = (keys % np.uint64(4)).astype(np.uint64)
    m = maplet(keys, vals, value_bits=2, fp_bits=fp_bits, seed=seed)
    absent = np.setdiff1d(
        rng.integers(10 * nkeys, 100 * nkeys, size=nprobes, dtype=np.uint64), keys
    )
    hits, _ = m.lookup_many(absent)
    return hits.mean(), absent.size


@pytest.mark.parametrize("fp_bits", [4, 6])
def test_false_candidate_rate_quick(fp_bits):
    rate, n = _guard_escape_rate(2_000, 30_000, fp_bits, seed=5)
    bound = 2.0**-fp_bits
    # 2x the analytic bound, with a small-sample allowance of 3 sigma.
    sigma = (bound / n) ** 0.5
    assert rate <= 2 * bound + 3 * sigma, (rate, bound)


@pytest.mark.slow
@pytest.mark.parametrize("fp_bits", [2, 4, 8])
def test_false_candidate_rate_full(fp_bits):
    rates = [
        _guard_escape_rate(20_000, 200_000, fp_bits, seed=s)[0] for s in range(3)
    ]
    bound = 2.0**-fp_bits
    assert max(rates) <= 2 * bound, (rates, bound)
