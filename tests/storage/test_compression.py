"""Unit tests for the Snappy-format codec."""

import numpy as np
import pytest

from repro.storage.compression import SnappyError, compress, decompress


def compression_ratio(data: bytes) -> float:
    """compressed/uncompressed size ratio (1.0 = incompressible)."""
    return len(compress(data)) / len(data) if data else 1.0


def roundtrip(data: bytes) -> None:
    assert decompress(compress(data)) == data


def test_empty():
    roundtrip(b"")
    assert compress(b"") == b"\x00"


def test_tiny_inputs():
    for n in range(1, 8):
        roundtrip(bytes(range(n)))


def test_incompressible_random():
    rng = np.random.default_rng(1)
    data = rng.integers(0, 256, size=100_000, dtype=np.uint8).tobytes()
    roundtrip(data)
    # Random bytes should expand only marginally.
    assert compression_ratio(data) < 1.05


def test_highly_repetitive():
    data = b"abcd" * 50_000
    roundtrip(data)
    assert compression_ratio(data) < 0.05


def test_run_of_single_byte_uses_overlapping_copy():
    data = b"\x00" * 10_000
    out = compress(data)
    assert decompress(out) == data
    # Copies are capped at 64 bytes/token (like reference snappy), so a
    # 10 KB run costs ~10000/64 three-byte tokens.
    assert len(out) < 600


def test_pointer_array_compresses_like_snappy():
    """Fig. 7b's workload: arrays of 12-byte pointers with low-entropy rank
    fields compress noticeably; high-entropy offsets resist compression."""
    rng = np.random.default_rng(2)
    n = 20_000
    ranks = rng.integers(0, 4, size=n, dtype="<u4")  # few partitions: low entropy
    offsets = np.arange(n, dtype="<u8") * 64
    ptrs = bytearray()
    for r, o in zip(ranks, offsets):
        ptrs += int(r).to_bytes(4, "little") + int(o).to_bytes(8, "little")
    ptrs = bytes(ptrs)
    roundtrip(ptrs)
    assert compression_ratio(ptrs) < 0.85


def test_text_like_data():
    data = (b"the quick brown fox jumps over the lazy dog. " * 500)[:20_001]
    roundtrip(data)
    assert compression_ratio(data) < 0.2


def test_multi_window_input():
    """Inputs beyond one 64 KiB window exercise window-local matching."""
    rng = np.random.default_rng(3)
    chunk = rng.integers(0, 256, size=1000, dtype=np.uint8).tobytes()
    data = chunk * 200  # ~200 KB
    roundtrip(data)
    assert compression_ratio(data) < 0.3


def test_long_literal_lengths():
    # Force literals with 1-byte and 2-byte extra-length encodings.
    rng = np.random.default_rng(4)
    for size in (61, 200, 300, 5000):
        data = rng.integers(0, 256, size=size, dtype=np.uint8).tobytes()
        roundtrip(data)


def test_all_match_length_tails():
    # Sweep match lengths across the 4..70 boundary splits.
    for tail in range(4, 80):
        data = b"0123456789abcdef" + b"X" * tail + b"0123456789abcdef" + b"X" * tail
        roundtrip(data)


def test_corrupt_inputs_raise():
    good = compress(b"hello world, hello world, hello")
    with pytest.raises(SnappyError):
        decompress(good[:-2])  # truncated body
    with pytest.raises(SnappyError):
        decompress(b"")  # missing preamble
    with pytest.raises(SnappyError):
        decompress(b"\x05\xff")  # bogus stream
    # Copy offset beyond decoded output.
    with pytest.raises(SnappyError):
        decompress(b"\x04" + bytes([0b10, 0xFF, 0x00]))


def test_length_mismatch_detected():
    out = bytearray(compress(b"abcabcabc"))
    out[0] += 1  # corrupt the preamble
    with pytest.raises(SnappyError):
        decompress(bytes(out))


def test_ratio_of_empty_is_one():
    assert compression_ratio(b"") == 1.0
