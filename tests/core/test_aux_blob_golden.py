"""Golden blob-format regression tests for the two backends that seal.

The aux blob (`aux_to_blob`) is a persistence contract: epochs sealed by
older code must reload after an upgrade, and compaction carries blobs
forward verbatim.  Each test pins the exact serialized bytes of a tiny
deterministic table — if an edit changes the format, these fail loudly
instead of silently orphaning persisted epochs.  A construction change
that keeps the format but moves the bytes re-pins `GOLDEN` on purpose and
keeps the old bytes in `LEGACY`, which must still reload and answer.
Exact and Bloom tables once sealed too; their blobs (`RETIRED`, the same
table) are refused by backend name, wherever they come from.

The header's ``"v"`` tag is mandatory: the loader reads v2 and nothing
else — not the tag-less blobs that predate it, not anything newer than it
understands.
"""

import json
import struct

import numpy as np
import pytest

from repro.core.auxtable import _BLOB_VERSION, AUX_BACKENDS, aux_from_blob, aux_to_blob

NPARTS = 4
KEYS = np.asarray(
    [0x01, 0xDEADBEEFCAFEF00D, 0xFFFFFFFFFFFFFFFF, 0x1234, 0x77], dtype=np.uint64
)
RANKS = np.asarray([0, 3, 1, 2, 3], dtype=np.uint64)

# fmt: off
GOLDEN = {
    "cuckoo": bytes.fromhex(
        "9b0000007b226261636b656e64223a20226375636b6f6f222c202266705f6269"
        "7473223a20342c20226d61785f6b69636b73223a203530302c20226e6275636b"
        "657473223a205b31365d2c20226e6b657973223a20352c20226e706172747322"
        "3a20342c202273656564223a20392c2022736c6f74735f7065725f6275636b65"
        "74223a20342c202276223a20322c202276616c75655f62697473223a20327d00"
        "0000000000000000000000000000140000000000600000000000d00000c80000"
        "000000a80000000000000000000000"
    ),
    "csf": bytes.fromhex(
        "790000007b226261636b656e64223a2022637366222c2022666e6b657973223a"
        "20352c202266705f62697473223a20322c20226e6b657973223a20352c20226e"
        "7061727473223a20342c202273656564223a20392c20227365676d656e74223a"
        "2031312c202276223a20322c202276616c75655f62697473223a20327d0000f0"
        "0000000a0000000000000305f000"
    ),
}

# Blobs of the same table that backends which no longer seal wrote: the
# fleet router may still be sent one, and refuses it by name.
RETIRED = {
    "bloom": bytes.fromhex(
        "700000007b226261636b656e64223a2022626c6f6f6d222c2022626974735f70"
        "65725f6b6579223a20362e302c20226e62697473223a2036342c20226e686173"
        "686573223a20342c20226e6b657973223a20352c20226e7061727473223a2034"
        "2c202273656564223a20392c202276223a20327d04181222c013468c"
    ),
    "exact": bytes.fromhex(
        "350000007b226261636b656e64223a20226578616374222c20226e6b65797322"
        "3a20352c20226e7061727473223a20342c202276223a20327d01000000000000"
        "000df0fecaefbeaddeffffffffffffffff341200000000000077000000000000"
        "0000000000000000000000000003000000010000000000000001000000020000"
        "0000000000020000000300000000000000030000000400000000000000"
    ),
}

# Blobs an older construction sealed, for the same table: they must still
# load and answer, and are never written again.  The csf one is from the
# one-key-at-a-time peel; the round-synchronous peel that replaced it
# settles on the same seed and header, and only the slot payload differs.
LEGACY = {
    "csf": bytes.fromhex(
        "790000007b226261636b656e64223a2022637366222c2022666e6b657973223a"
        "20352c202266705f62697473223a20322c20226e6b657973223a20352c20226e"
        "7061727473223a20342c202273656564223a20392c20227365676d656e74223a"
        "2031312c202276223a20322c202276616c75655f62697473223a20327d000000"
        "000000005000000000000605fa00"
    ),
}
# fmt: on


def test_every_registered_backend_is_pinned():
    assert sorted(GOLDEN) == sorted(AUX_BACKENDS)


def _build(backend):
    t = AUX_BACKENDS[backend](NPARTS, capacity_hint=KEYS.size, seed=9)
    t.insert_many(KEYS, RANKS)
    return t


def _split(blob):
    (hdr_len,) = struct.unpack_from("<I", blob)
    header = json.loads(blob[4 : 4 + hdr_len])
    return header, blob[4 + hdr_len :]


@pytest.mark.parametrize("backend", sorted(GOLDEN))
def test_blob_bytes_pinned(backend):
    assert aux_to_blob(_build(backend)) == GOLDEN[backend]


@pytest.mark.parametrize("backend", sorted(GOLDEN))
def test_golden_blob_reloads(backend):
    t = aux_from_blob(GOLDEN[backend])
    assert t.backend == backend
    assert len(t) == KEYS.size
    for k, r in zip(KEYS, RANKS):
        assert int(r) in t.candidate_ranks(int(k))
    assert aux_to_blob(t) == GOLDEN[backend]


@pytest.mark.parametrize("backend", sorted(RETIRED))
def test_retired_backend_blob_is_refused_by_name(backend):
    with pytest.raises(ValueError, match=f"unknown backend '{backend}'"):
        aux_from_blob(RETIRED[backend])


@pytest.mark.parametrize("backend", sorted(LEGACY))
def test_legacy_blob_reloads_and_answers_as_the_current_one(backend):
    old, new = aux_from_blob(LEGACY[backend]), aux_from_blob(GOLDEN[backend])
    assert _split(LEGACY[backend])[0] == _split(GOLDEN[backend])[0]
    assert aux_to_blob(old) == LEGACY[backend]  # reloads as it was sealed
    for k, r in zip(KEYS, RANKS):
        assert old.candidate_ranks(int(k)).tolist() == [int(r)]
    old_counts, old_flat = old.candidates_many(KEYS)
    new_counts, new_flat = new.candidates_many(KEYS)
    np.testing.assert_array_equal(old_counts, new_counts)
    np.testing.assert_array_equal(old_flat, new_flat)


# Every blob the loader may face, retired ones included: those carry the
# current tag, so they are refused for their backend, not their version.
SEALED = {**GOLDEN, **RETIRED}


@pytest.mark.parametrize("backend", sorted(SEALED))
def test_blob_carries_version_tag(backend):
    header, _ = _split(SEALED[backend])
    assert header["v"] == _BLOB_VERSION == 2


def _retag(blob, version):
    """Rewrite a blob's header with a different (or absent) version tag."""
    header, payload = _split(blob)
    if version is None:
        header.pop("v", None)
    else:
        header["v"] = version
    hdr = json.dumps(header, sort_keys=True).encode()
    return struct.pack("<I", len(hdr)) + hdr + payload


@pytest.mark.parametrize("backend", sorted(SEALED))
def test_blob_without_version_tag_rejected(backend):
    # No tag is a blob older than the tag: every store here lives in an
    # in-process device, so none outlives the code that wrote it.
    with pytest.raises(ValueError, match="supports only v2"):
        aux_from_blob(_retag(SEALED[backend], None))


def test_future_version_rejected():
    for version in (_BLOB_VERSION + 1, 1, "2", 2.0):
        with pytest.raises(ValueError, match="supports only v2"):
            aux_from_blob(_retag(GOLDEN["cuckoo"], version))


def test_truncated_blob_rejected():
    blob = GOLDEN["csf"]
    with pytest.raises(ValueError):
        aux_from_blob(blob[:2])
    with pytest.raises(ValueError):
        aux_from_blob(blob[:20])
