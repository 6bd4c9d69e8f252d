"""Unit tests for the storage device model."""

import pytest

from repro.storage.blockio import (
    DeviceProfile,
    ExtentLostError,
    IOCounters,
    StorageDevice,
)


def test_append_then_read_roundtrip():
    dev = StorageDevice()
    dev.create("x")
    off = dev.append("x", b"hello")
    assert off == 0
    assert dev.append("x", b"world") == 5
    assert dev.read("x", 0, 5) == b"hello"
    assert dev.read("x", 5, 5) == b"world"
    assert dev.file_size("x") == 10


def test_short_read_at_eof():
    dev = StorageDevice()
    dev.create("x")
    dev.append("x", b"abc")
    assert dev.read("x", 1, 100) == b"bc"  # short read: offset within the extent
    assert dev.read("x", 3, 10) == b""  # exactly at EOF is still EOF, not loss


def test_read_past_end_is_loss_not_eof():
    dev = StorageDevice()
    dev.create("x")
    dev.append("x", b"abc")
    with pytest.raises(ExtentLostError):
        dev.read("x", 50, 10)


def test_read_after_truncate_underneath_raises():
    dev = StorageDevice()
    dev.create("x")
    dev.append("x", b"0123456789")
    dev.truncate("x", 4)
    assert dev.read("x", 0, 4) == b"0123"
    with pytest.raises(ExtentLostError):
        dev.read("x", 8, 2)  # those bytes were lost, not merely never written


def test_read_and_append_after_delete_underneath_raise():
    dev = StorageDevice()
    dev.create("x")
    dev.append("x", b"abc")
    dev.delete("x")
    with pytest.raises(ExtentLostError):
        dev.read("x", 0, 1)
    with pytest.raises(ExtentLostError):
        dev.append("x", b"more")


def test_corrupt_api_validates_and_flips():
    dev = StorageDevice()
    dev.create("x")
    dev.append("x", bytes([0x10, 0x20, 0x30]))
    dev.corrupt("x", 1)  # default: +1
    assert dev.read("x", 0, 3) == bytes([0x10, 0x21, 0x30])
    dev.corrupt("x", 1, xor=0x80)  # single-bit flip
    assert dev.read("x", 0, 3) == bytes([0x10, 0xA1, 0x30])
    with pytest.raises(ValueError):
        dev.corrupt("x", 99)
    with pytest.raises(ValueError):
        dev.corrupt("x", 0, delta=1, xor=1)
    with pytest.raises(FileNotFoundError):
        dev.corrupt("nope", 0)


def test_truncate_and_delete_validate():
    dev = StorageDevice()
    dev.create("x")
    dev.append("x", b"abcdef")
    with pytest.raises(ValueError):
        dev.truncate("x", 99)
    dev.truncate("x", 2)
    assert dev.file_size("x") == 2
    with pytest.raises(FileNotFoundError):
        dev.delete("gone")
    dev.delete("x")
    assert not dev.exists("x")


def test_missing_file_raises():
    dev = StorageDevice()
    with pytest.raises(FileNotFoundError):
        dev.file_size("nope")
    with pytest.raises(ExtentLostError):
        dev.append("nope", b"x")  # an append never creates


def test_create_is_uncharged_and_keeps_an_existing_extent():
    dev = StorageDevice()
    dev.create("x")
    assert dev.exists("x") and dev.file_size("x") == 0
    dev.append("x", b"abc")
    dev.create("x")
    assert dev.read("x", 0, 3) == b"abc"
    assert dev.counters.writes == 1 and dev.counters.reads == 1


def test_counters_track_ops_and_bytes():
    dev = StorageDevice(DeviceProfile(read_bandwidth=100.0, write_bandwidth=50.0, seek_time=0.5))
    dev.create("x")
    dev.append("x", b"A" * 100)
    dev.read("x", 0, 60)
    c = dev.counters
    assert c.writes == 1 and c.bytes_written == 100
    assert c.reads == 1 and c.bytes_read == 60
    assert c.write_time == pytest.approx(0.5 + 100 / 50.0)
    assert c.read_time == pytest.approx(0.5 + 60 / 100.0)


def test_counter_snapshot_delta():
    dev = StorageDevice()
    dev.create("x")
    dev.append("x", b"1234")
    before = dev.counters.snapshot()
    dev.read("x", 0, 4)
    d = dev.counters.delta(before)
    assert d.reads == 1
    assert d.writes == 0
    assert d.bytes_read == 4


def test_profile_validation():
    with pytest.raises(ValueError):
        DeviceProfile(read_bandwidth=0)
    with pytest.raises(ValueError):
        DeviceProfile(seek_time=-1)


def test_negative_read_args_rejected():
    dev = StorageDevice()
    dev.create("x")
    with pytest.raises(ValueError):
        dev.read("x", -1, 4)
    with pytest.raises(ValueError):
        dev.read("x", 0, -4)


def test_device_inventory():
    dev = StorageDevice()
    for name, data in (("b", b"xx"), ("a", b"y")):
        dev.create(name)
        dev.append(name, data)
    assert dev.list_files() == ["a", "b"]
    assert dev.exists("a") and not dev.exists("c")
    assert dev.total_bytes_stored() == 3
    assert dev.file_size("b") == 2


def test_iocounters_defaults():
    c = IOCounters()
    assert c.reads == c.writes == c.bytes_read == c.bytes_written == 0
