"""Hostile bytes against `aux_from_blob`, the one aux decoder.

Blobs reach `aux_from_blob` only from storage: attach rebuilds every
epoch's aux tables from its sealed extents.  `unseal` proves those bytes
are the ones the writer sealed, not that they are sane (older or other
code may have written them).
Whatever the blob, `aux_from_blob` has two outcomes: `ValueError`, or a
table that re-serializes and whose probes on arbitrary ``uint64`` keys
return ranks ``< nparts`` without raising — never another exception type,
and never memory sized by a header field nobody checked against the bytes
present.  Exact and Bloom blobs, which earlier code sealed, are swept
too (`RETIRED`): however they are mutated, the outcome is a `ValueError`.
The deterministic cases and sweeps (the five headers that used to escape
untyped, every truncation, every flipped byte) always run; the
hypothesis property has a fast entry for tier-1 and a ``_full`` twin under
``-m slow`` for the CI ``aux-tournament`` job.
"""

import json
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import strategies as st

from repro.core.auxtable import AUX_BACKENDS, aux_from_blob, aux_to_blob

from ..serve.test_proto_fuzz import both_profiles
from .test_aux_blob_golden import RETIRED

BACKENDS = sorted(AUX_BACKENDS)
NPARTS = 6  # not a power of two: 3-bit ranks can name partitions 6 and 7
U64 = 2**64 - 1
# Decoding unpacks a bit-packed payload a 64-bit word per value
# (`_unpack_bits`, ~25 B per value at its peak), so the narrowest slot
# costs the most per byte: a 2-bit cuckoo table of one slot per bucket,
# which adds its per-bucket counts, peaked at 131 B per payload byte
# (csf at 2 bits: 107).  The slack covers a maximal chain of minimal
# cuckoo tables.
ALLOC_FACTOR, ALLOC_SLACK = 144, 1 << 20


def _table(backend, nkeys):
    rng = np.random.default_rng(nkeys)
    t = AUX_BACKENDS[backend](NPARTS, capacity_hint=max(1, nkeys), seed=5)
    if nkeys:
        keys = rng.choice(1 << 40, size=nkeys, replace=False).astype(np.uint64)
        t.insert_many(keys, rng.integers(0, NPARTS, size=nkeys, dtype=np.uint64))
    return t


# Per backend: the keyless table, a small one, and one past the first
# cuckoo table's 64 slots (a two-table chain).
BLOBS = {b: [aux_to_blob(_table(b, n)) for n in (0, 9, 90)] for b in BACKENDS}
# The blob each sweep mutates: a small sealed one per backend, and the
# retired backends' blobs, which must stay refused under any mutation.
SWEPT = {**{b: BLOBS[b][1] for b in BACKENDS}, **RETIRED}


def split(blob):
    (hdr_len,) = struct.unpack_from("<I", blob)
    return json.loads(blob[4 : 4 + hdr_len]), blob[4 + hdr_len :]


def join(header, payload):
    hdr = json.dumps(header, sort_keys=True).encode()
    return struct.pack("<I", len(hdr)) + hdr + payload


def decode(blob):
    """`aux_from_blob` under an allocation meter: the table, or None for a
    `ValueError`.  Any other exception, or a peak beyond the bound, fails
    the test."""
    tracemalloc.start()
    try:
        try:
            return aux_from_blob(blob)
        except ValueError:
            return None
        finally:
            peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()
            assert peak <= ALLOC_FACTOR * len(blob) + ALLOC_SLACK, (peak, len(blob))
    except MemoryError:  # pragma: no cover - the bug this file exists for
        pytest.fail("decoder tried an allocation sized by an unchecked header field")


def check(blob, keys=(0, 1, 12345, U64)):
    """The whole contract for one blob."""
    t = decode(blob)
    if t is None:
        return None
    assert t.backend in AUX_BACKENDS and t.nparts >= 1 and len(t) >= 0
    aux_to_blob(t)
    probe = np.asarray(keys, dtype=np.uint64)
    counts, flat = t.candidates_many(probe)
    assert counts.shape == probe.shape and int(counts.sum()) == flat.size
    assert ((flat >= 0) & (flat < t.nparts)).all()
    assert (t.candidate_counts(probe) >= 0).all()
    for k in keys[:2]:
        ranks = np.asarray(t.candidate_ranks(int(k)))
        assert ((ranks >= 0) & (ranks < t.nparts)).all()
    return t


# -- the five headers that used to escape untyped ------------------------------


@pytest.mark.parametrize("value", [[1, 2], "cuckoo", 7, None, True])
def test_header_that_is_json_but_not_an_object(value):
    _, payload = split(BLOBS["cuckoo"][1])
    with pytest.raises(ValueError, match="not an object"):
        aux_from_blob(join(value, payload))


@pytest.mark.parametrize("backend", sorted(SWEPT))
def test_any_missing_header_field_is_a_value_error(backend):
    header, payload = split(SWEPT[backend])
    for name in header:
        with pytest.raises(ValueError):
            aux_from_blob(join({k: v for k, v in header.items() if k != name}, payload))


def test_huge_bucket_count_is_refused_before_allocating():
    header, payload = split(BLOBS["cuckoo"][1])
    blob = join({**header, "nbuckets": [2**36]}, payload)
    assert decode(blob) is None  # 1 TiB at the parent commit; metered here


def test_csf_fingerprint_wider_than_a_slot_is_refused_at_load():
    header, payload = split(BLOBS["csf"][1])
    with pytest.raises(ValueError, match="fp_bits"):
        aux_from_blob(join({**header, "fp_bits": 60}, payload))


@pytest.mark.parametrize(
    "edit",
    [
        lambda h: {"fnkeys": 0},  # no distinct keys, yet a slot payload
        lambda h: {"fnkeys": h["nkeys"] + 1},  # more distinct keys than sealed
        lambda h: {"nkeys": 0},  # nothing sealed, yet slots
        lambda h: {"fnkeys": h["fnkeys"] - 30},  # a segment those keys never build
    ],
    ids=["fnkeys=0", "fnkeys>nkeys", "nkeys=0", "segment"],
)
def test_csf_key_counts_and_segment_are_cross_checked(edit):
    """These loaded at the parent commit into a maplet whose `bits_per_key`
    divided by zero (the first three) or whose geometry no build makes."""
    header, payload = split(BLOBS["csf"][2])
    with pytest.raises(ValueError, match="csf|fnkeys"):
        aux_from_blob(join({**header, **edit(header)}, payload))


@pytest.mark.parametrize("name", ["xor", "btree", "", 3, None, ["cuckoo"]])
def test_unknown_backend_is_a_value_error(name):
    header, payload = split(BLOBS["cuckoo"][1])
    with pytest.raises(ValueError, match="unknown backend"):
        aux_from_blob(join({**header, "backend": name}, payload))


def test_rank_beyond_the_partition_count_is_refused_or_never_returned():
    """Three rank bits name eight partitions; the header says six.  A stored
    rank of 6 or 7 must not reach a reader, which opens tables by rank."""
    for backend in BACKENDS:
        header, payload = split(BLOBS[backend][2])
        for i in range(len(payload)):
            check(join(header, payload[:i] + bytes([payload[i] | 0xE7]) + payload[i + 1 :]))


# -- deterministic sweeps --------------------------------------------------------


@pytest.mark.parametrize("backend", BACKENDS)
def test_base_blobs_load(backend):
    for blob in BLOBS[backend]:
        assert aux_to_blob(check(blob)) == blob


@pytest.mark.parametrize("backend", sorted(SWEPT))
def test_every_truncation_is_a_value_error(backend):
    blob = SWEPT[backend]
    for n in range(len(blob)):
        assert decode(blob[:n]) is None, n


@pytest.mark.parametrize("backend", sorted(SWEPT))
def test_every_flipped_byte(backend):
    blob = SWEPT[backend]
    for i in range(len(blob)):
        check(blob[:i] + bytes([blob[i] ^ 0xFF]) + blob[i + 1 :])


# -- the property ----------------------------------------------------------------

retyped = st.one_of(
    st.none(),
    st.booleans(),
    st.floats(allow_nan=True),
    st.text(max_size=4),
    st.lists(st.integers(-2, 2**40), max_size=3),
    st.dictionaries(st.text(max_size=2), st.integers(0, 9), max_size=1),
)
# Partition counts jump from "near the original" straight past the 2^32
# cap: what lies between is a valid table nobody can afford to probe.
hostile_ints = st.sampled_from([-(2**63), -1, 0, 1, 2**32 + 1, 2**36, 2**62 + 1, 2**63, 2**64])


def mutated_value(value):
    """A same-typed neighbour, a hostile integer, or another type."""
    near = st.nothing()
    if type(value) is int:
        near = st.sampled_from([value - 1, value + 1, value * 2, value // 2])
    elif type(value) is list:
        near = st.one_of(
            st.just(value + value),
            st.just(value[:-1]),
            st.lists(st.one_of(st.integers(1, 64), hostile_ints), max_size=70),
        )
    elif type(value) is float:
        near = st.floats(allow_nan=True)
    return st.one_of(near, hostile_ints, retyped)


@st.composite
def mutated_blobs(draw):
    seeds = [b for blobs in BLOBS.values() for b in blobs] + list(RETIRED.values())
    blob = draw(st.sampled_from(seeds))
    header, payload = split(blob)
    for name in draw(st.lists(st.sampled_from(sorted(header)), max_size=3, unique=True)):
        if draw(st.booleans()):
            del header[name]
        else:
            header[name] = draw(mutated_value(header[name]))
    edit = draw(st.sampled_from(["keep", "truncate", "extend", "flip"]))
    if edit == "truncate":
        payload = payload[: draw(st.integers(0, len(payload)))]
    elif edit == "extend":
        payload += draw(st.binary(min_size=1, max_size=64))
    elif edit == "flip" and payload:
        bits = bytearray(payload)
        for at in draw(st.lists(st.integers(0, 8 * len(bits) - 1), min_size=1, max_size=8)):
            bits[at // 8] ^= 1 << (at % 8)
        payload = bytes(bits)
    blob = bytearray(join(header, payload))
    for at in draw(st.lists(st.integers(0, len(blob) - 1), max_size=2)):  # framing and JSON too
        blob[at] = draw(st.integers(0, 255))
    return bytes(blob)


probe_keys = st.lists(
    st.one_of(st.just(0), st.just(U64), st.integers(0, U64)), min_size=2, max_size=8
)


def check_mutated_blob(blob, keys):
    check(blob, keys)  # a hypothesis test must return None; `check` returns the table


test_mutated_blob, test_mutated_blob_full = both_profiles(
    check_mutated_blob, mutated_blobs(), probe_keys, quick=300, full=6000
)


def test_the_property_reaches_both_outcomes():
    """The mutations are not all rejected at the first gate: single-field
    edits of a valid blob both load and refuse."""
    header, payload = split(BLOBS["cuckoo"][2])
    assert check(join({**header, "nkeys": header["nkeys"] + 1}, payload)) is not None
    assert check(join({**header, "max_kicks": 0}, payload)) is not None
    assert check(join({**header, "slots_per_bucket": 8}, payload)) is None
    assert check(join({**header, "nparts": 4}, payload)) is None  # 2-bit ranks now
