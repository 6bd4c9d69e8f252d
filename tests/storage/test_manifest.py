"""Unit tests for the dataset manifest and its atomic commit path."""

import numpy as np
import pytest

from repro.core.formats import FMT_BASE, FMT_DATAPTR, FMT_FILTERKV
from repro.core.kv import random_kv_batch
from repro.core.multiepoch import MultiEpochStore
from repro.core.pipeline import aux_table_name, main_table_name
from repro.storage.blockio import StorageDevice
from repro.storage.envelope import UnsupportedLayoutError, seal
from repro.storage.manifest import MANIFEST_NAME, MANIFEST_PREFIX, EpochInfo, Manifest
from repro.storage.sstable import FOOTER_BYTES, SSTableReader

from ..reference import ingest as ref
from ..reference.read import scan_rows


def _info(epoch, records=100):
    return EpochInfo(epoch=epoch, records=records, files=(f"part.{epoch:03d}.000000",), bytes=4096)


def test_roundtrip_bytes():
    m = Manifest(fmt="filterkv", nranks=8, value_bytes=56)
    m.add_epoch(_info(0))
    m.add_epoch(_info(1, records=200))
    n = Manifest.from_bytes(m.to_bytes())
    assert n.fmt == "filterkv"
    assert n.nranks == 8 and n.value_bytes == 56
    assert n.epoch_ids == [0, 1]
    assert n.total_records == 300
    assert n.epochs[1].files == ("part.001.000000",)


def test_save_and_load_from_device():
    dev = StorageDevice()
    m = Manifest(fmt="base", nranks=4, value_bytes=24)
    m.add_epoch(_info(0))
    m.commit(dev)
    assert any(n.startswith(MANIFEST_PREFIX) for n in dev.list_files())
    n = Manifest.load(dev)
    assert n.fmt == "base" and n.total_records == 100


def test_save_replaces_previous():
    dev = StorageDevice()
    m = Manifest(fmt="base", nranks=4, value_bytes=24)
    m.commit(dev)
    m.add_epoch(_info(0))
    m.commit(dev)
    assert Manifest.load(dev).epoch_ids == [0]


def test_commit_generations_increment_and_gc():
    dev = StorageDevice()
    m = Manifest(fmt="base", nranks=4, value_bytes=24)
    seqs = []
    for epoch in range(4):
        m.add_epoch(_info(epoch))
        seqs.append(m.commit(dev))
    assert seqs == [1, 2, 3, 4]
    gens = sorted(n for n in dev.list_files() if n.startswith(MANIFEST_PREFIX))
    assert gens == ["MANIFEST.000003", "MANIFEST.000004"]  # keep window of 2
    assert Manifest.load(dev).epoch_ids == [0, 1, 2, 3]


def test_torn_commit_falls_back_to_previous_generation():
    dev = StorageDevice()
    m = Manifest(fmt="base", nranks=4, value_bytes=24)
    m.add_epoch(_info(0))
    m.commit(dev)
    m.add_epoch(_info(1))
    m.commit(dev)
    # Tear the newest generation mid-blob, as a crash during commit would.
    newest = max(n for n in dev.list_files() if n.startswith(MANIFEST_PREFIX))
    dev.truncate(newest, dev.file_size(newest) // 2)
    assert Manifest.load(dev).epoch_ids == [0]  # previous version wins


def test_corrupt_commit_falls_back_to_previous_generation():
    dev = StorageDevice()
    m = Manifest(fmt="base", nranks=4, value_bytes=24)
    m.add_epoch(_info(0))
    m.commit(dev)
    m.add_epoch(_info(1))
    m.commit(dev)
    newest = max(n for n in dev.list_files() if n.startswith(MANIFEST_PREFIX))
    dev.corrupt(newest, dev.file_size(newest) // 2, xor=0x40)
    assert Manifest.load(dev).epoch_ids == [0]


def test_recovery_refuses_the_unsealed_legacy_manifest_and_touches_nothing():
    """A store whose manifest is the one unsealed ``MANIFEST`` extent of the
    layout before generations is refused by name, before recovery
    quarantines, commits or sweeps anything.  (Reading it, recovery swept
    that extent as an orphan, since only generations counted as referenced,
    and its own attach then found no manifest.)"""
    device = StorageDevice()
    store = MultiEpochStore(nranks=2, fmt=FMT_FILTERKV, value_bytes=16, device=device, seed=0)
    store.write_epoch([random_kv_batch(40, 16, np.random.default_rng(0)) for _ in range(2)])
    store.close()
    for name in device.list_files():
        if name.startswith(MANIFEST_PREFIX):
            device.delete(name)
    device.create(MANIFEST_NAME)
    device.append(MANIFEST_NAME, store.manifest.to_bytes())
    before = _files(device)
    with pytest.raises(UnsupportedLayoutError, match="MANIFEST"):
        MultiEpochStore.recover(device)
    assert _files(device) == before
    with pytest.raises(UnsupportedLayoutError):
        Manifest.load(device)


def test_load_with_no_manifest_raises():
    with pytest.raises(FileNotFoundError):
        Manifest.load(StorageDevice())


def test_remove_epoch():
    m = Manifest(fmt="base", nranks=2, value_bytes=8)
    m.add_epoch(_info(0))
    m.add_epoch(_info(1))
    assert m.remove_epoch(0).epoch == 0
    assert m.epoch_ids == [1]
    with pytest.raises(KeyError):
        m.remove_epoch(0)


def test_epochs_kept_sorted():
    m = Manifest(fmt="base", nranks=2, value_bytes=8)
    m.add_epoch(_info(3))
    m.add_epoch(_info(1))
    assert m.epoch_ids == [1, 3]


def test_duplicate_epoch_rejected():
    m = Manifest(fmt="base", nranks=2, value_bytes=8)
    m.add_epoch(_info(0))
    with pytest.raises(ValueError):
        m.add_epoch(_info(0))


def test_malformed_blob_rejected():
    with pytest.raises(ValueError):
        Manifest.from_bytes(b"not json at all {{{")
    with pytest.raises(ValueError):
        Manifest.from_bytes(b'{"version": 99}')


# -- recovery refuses, never repairs, a layout it does not read ------------------

TABLE_MAGIC_BLOCKSUM = 0xF117E5CB_DE17AF5  # SSTables with one checksum per block
SEAL_MAGIC_SUM64 = 0x5EA1ED_EC7E_2025  # envelopes under a 64-bit NumPy sum


def _files(device) -> dict[str, bytes]:
    out = {}
    for name in device.list_files():
        out[name] = device.read(name, 0, device.file_size(name))
    return out


def _set_magic(device, name: str, at: int, magic: int) -> None:
    """Rewrite the u64 magic at byte ``at`` of extent ``name`` in place."""
    old = int.from_bytes(device.read(name, at, 8), "little")
    for i, byte in enumerate((old ^ magic).to_bytes(8, "little")):
        if byte:
            device.corrupt(name, at + i, xor=byte)


@pytest.mark.parametrize("where", ["table footer", "aux seal", "every manifest seal"])
@pytest.mark.parametrize("deep", [False, True])
def test_recovery_refuses_an_earlier_layout_and_touches_nothing(where, deep):
    """A 3-epoch store one of whose extents is intact but in an earlier
    layout: recovery raises `UnsupportedLayoutError` before it quarantines,
    commits or sweeps anything — the device's files and bytes are as they
    were.  (Taking the refusal for corruption quarantined the epoch and
    swept its extents; with every manifest generation refused it read as
    "no valid manifest" and swept the whole store.)"""
    device = StorageDevice()
    store = MultiEpochStore(nranks=2, fmt=FMT_FILTERKV, value_bytes=16, device=device, seed=0)
    rng = np.random.default_rng(0)
    for _ in range(3):
        store.write_epoch([random_kv_batch(40, 16, rng) for _ in range(2)])
    store.close()
    if where == "table footer":
        name = main_table_name(1, 0)
        _set_magic(device, name, device.file_size(name) - FOOTER_BYTES, TABLE_MAGIC_BLOCKSUM)
    elif where == "aux seal":
        _set_magic(device, aux_table_name(1, 0), 0, SEAL_MAGIC_SUM64)
    else:
        for name in device.list_files():
            if name.startswith(MANIFEST_PREFIX):
                _set_magic(device, name, 0, SEAL_MAGIC_SUM64)
    before = _files(device)
    with pytest.raises(UnsupportedLayoutError, match="layout|seal"):
        Manifest.recover(device, deep=deep)
    assert _files(device) == before


@pytest.mark.parametrize("fmt", [FMT_BASE, FMT_DATAPTR, FMT_FILTERKV], ids=lambda f: f.name)
@pytest.mark.parametrize("deep", [False, True])
def test_recovery_refuses_a_length_framed_store_and_touches_nothing(fmt, deep):
    """A one-epoch store whose tables are in the layout before unframed
    rows (each rewritten by the reference encoder with ``u32 vlen`` rows
    and that layout's magic): `MultiEpochStore.recover` raises
    `UnsupportedLayoutError` naming the layout, and every extent is the
    byte it was."""
    device = StorageDevice()
    store = MultiEpochStore(nranks=2, fmt=fmt, value_bytes=16, device=device, seed=0)
    rng = np.random.default_rng(0)
    store.write_epoch([random_kv_batch(300, 16, rng) for _ in range(2)])
    store.close()
    tables = [name for name in device.list_files() if name.startswith("part.")]
    assert tables
    for name in tables:
        r = SSTableReader(device, name)
        items, block_size, bloom = scan_rows(r), r.meta.block_size, r.meta.bloom
        device.delete(name)
        device.create(name)
        device.append(name, ref.table_image(items, block_size, 10.0 if bloom else 0.0, framed=True))
    before = _files(device)
    with pytest.raises(UnsupportedLayoutError, match="length-framed row layout"):
        MultiEpochStore.recover(device, deep=deep)
    assert _files(device) == before
