"""Manifest documents of the wrong shape against `Manifest.from_bytes`.

A manifest generation's seal proves its bytes are the ones a commit wrote,
not that they describe a dataset.  Whatever the payload — arbitrary bytes,
a byte-edited document, or a valid document with a field dropped, added or
replaced by any JSON value — decoding has two outcomes: a `Manifest`,
which re-encodes to itself, or a `ValueError`, the one exception
`Manifest._load_valid` skips a generation for.  Never `KeyError`,
`TypeError` or `AttributeError`, which would stop recovery instead of
letting the previous generation win.  The deterministic sweeps always run;
the hypothesis property has a fast entry for tier-1 and a ``_full`` twin
under ``-m slow`` for the CI ``faults`` job.
"""

import json

import numpy as np
import pytest
from hypothesis import strategies as st

from repro.core.formats import FMT_FILTERKV
from repro.core.kv import random_kv_batch
from repro.core.multiepoch import MultiEpochStore
from repro.storage.blockio import StorageDevice
from repro.storage.envelope import seal
from repro.storage.manifest import MANIFEST_PREFIX, EpochInfo, Manifest

from ..serve.test_proto_fuzz import both_profiles


def _valid() -> Manifest:
    """Every field a manifest writes: an ingested epoch, a merged one with
    its own ``order``, and the retired ids' mapping."""
    m = Manifest(fmt="filterkv", nranks=2, value_bytes=16)
    for epoch in range(3):
        m.add_epoch(EpochInfo(epoch, 10, (f"part.{epoch:06d}.000000",), 512))
    m.remove_epoch(0)
    m.remove_epoch(1)
    m.add_epoch(EpochInfo(3, 15, ("part.000000.000000", "aux.000003.000000"), 700, 1))
    m.note_compaction([0, 1], 3)
    return m


VALID = _valid().to_bytes()
TOP_REQUIRED = ("version", "format", "nranks", "value_bytes", "epochs")
EPOCH_REQUIRED = ("epoch", "records", "files", "bytes")
WRONG = [None, True, -1, 1.5, "7", [], {}, ["x"], {"1": 2}]


def check(blob: bytes) -> bool:
    """Decode ``blob``: True for a `Manifest` (which must re-encode to
    itself), False for a `ValueError`; anything else fails the test."""
    try:
        m = Manifest.from_bytes(blob)
    except ValueError:
        return False
    assert isinstance(m, Manifest)
    assert all(isinstance(e.files, tuple) for e in m.epochs)
    assert Manifest.from_bytes(m.to_bytes()) == m
    return True


def test_the_valid_document_round_trips():
    assert check(VALID) and Manifest.from_bytes(VALID) == _valid()


@pytest.mark.parametrize("field", TOP_REQUIRED)
def test_a_missing_top_level_field_is_a_value_error(field):
    doc = json.loads(VALID)
    del doc[field]
    with pytest.raises(ValueError):
        Manifest.from_bytes(json.dumps(doc).encode())


@pytest.mark.parametrize("field", EPOCH_REQUIRED)
def test_a_missing_epoch_field_is_a_value_error(field):
    doc = json.loads(VALID)
    del doc["epochs"][0][field]
    with pytest.raises(ValueError):
        Manifest.from_bytes(json.dumps(doc).encode())


@pytest.mark.parametrize("value", WRONG, ids=repr)
def test_every_field_of_any_other_type_is_typed(value):
    """Each field, at the top, in an epoch entry and in the retired-id
    mapping, replaced by a value of every other JSON type."""
    base = json.loads(VALID)
    paths = [(k,) for k in base] + [("epochs", 1, k) for k in base["epochs"][1]]
    paths += [("compacted", k) for k in base["compacted"]]
    for path in paths:
        doc = json.loads(VALID)
        obj = doc
        for step in path[:-1]:
            obj = obj[step]
        obj[path[-1]] = value
        check(json.dumps(doc).encode())


def test_an_older_manifest_naming_each_epochs_aux_backend_loads():
    """Manifests used to name each epoch's aux backend(s); the key is
    read past, and the manifest re-encodes without it."""
    doc = json.loads(VALID)
    for entry, backend in zip(doc["epochs"], ["csf", "csf,cuckoo"]):
        entry["aux_backend"] = backend
    assert Manifest.from_bytes(json.dumps(doc).encode()) == _valid()


@pytest.mark.parametrize(
    "blob", [b"", b"[]", b"1", b'"x"', b"null", b'{"version": 1}', b"\xff\xfe", b"[" * 100_000]
)
def test_documents_that_are_no_object(blob):
    with pytest.raises(ValueError):
        Manifest.from_bytes(blob)


# -- recovery ---------------------------------------------------------------------


def test_recovery_falls_back_past_a_malformed_newest_generation():
    """A sealed newest generation whose document lacks its fields loses to
    the previous generation, and recovery names it."""
    rng = np.random.default_rng(55)
    device = StorageDevice()
    store = MultiEpochStore(nranks=2, fmt=FMT_FILTERKV, value_bytes=16, device=device, seed=5)
    dumps = [[random_kv_batch(40, 16, rng) for _ in range(2)] for _ in range(2)]
    for batches in dumps:
        store.write_epoch(batches)
    good = max(n for n in device.list_files() if n.startswith(MANIFEST_PREFIX))
    bad = f"{MANIFEST_PREFIX}{int(good[len(MANIFEST_PREFIX):]) + 1:06d}"
    device.create(bad)
    device.append(bad, seal(json.dumps({"version": 1, "format": "filterkv"}).encode()))

    recovered, report = MultiEpochStore.recover(device)
    assert recovered is not None and recovered.epochs == [0, 1]
    assert report.invalid_manifests == [bad]
    assert report.generation == int(good[len(MANIFEST_PREFIX):])
    for epoch, batches in enumerate(dumps):
        for b in batches:
            values, _ = recovered.get_many(b.keys, epoch)
            assert values == [b.value_of(i) for i in range(len(b))]


# -- the property -----------------------------------------------------------------

json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=8,
)


@st.composite
def edited_documents(draw) -> bytes:
    """A valid document with 1-3 fields dropped, added or replaced (at the
    top, in an epoch entry or in the retired-id mapping), then sometimes a
    byte edited or the tail cut; or bytes of no document at all."""
    if draw(st.integers(0, 9)) == 0:
        return draw(st.binary(max_size=120))
    doc = json.loads(VALID)
    for _ in range(draw(st.integers(1, 3))):
        obj = doc
        where = draw(st.sampled_from(["top", "epoch", "compacted"]))
        if where == "epoch" and isinstance(doc.get("epochs"), list) and doc["epochs"]:
            obj = doc["epochs"][draw(st.integers(0, len(doc["epochs"]) - 1))]
        elif where == "compacted" and isinstance(doc.get("compacted"), dict):
            obj = doc["compacted"]
        if not isinstance(obj, dict):
            continue
        key = draw(st.sampled_from(sorted(obj) + ["extra", "7"]))
        if key in obj and draw(st.booleans()):
            del obj[key]
        else:
            obj[key] = draw(json_values)
    blob = bytearray(json.dumps(doc).encode())
    if draw(st.booleans()):
        at = draw(st.integers(0, len(blob) - 1))
        blob[at] = draw(st.integers(0, 255))
    if draw(st.booleans()):
        del blob[draw(st.integers(0, len(blob) - 1)) :]
    return bytes(blob)


def check_edited_manifest(blob):
    check(blob)


test_edited_manifest, test_edited_manifest_full = both_profiles(
    check_edited_manifest, edited_documents(), quick=300, full=5000
)


def test_the_property_reaches_both_outcomes():
    """The edits are not all refused: an added field or another value of
    the right type still decodes."""
    doc = json.loads(VALID)
    doc["extra"] = [1, 2]
    doc["epochs"][0]["records"] = 99
    assert check(json.dumps(doc).encode())
    del doc["epochs"][0]["epoch"]
    assert not check(json.dumps(doc).encode())
