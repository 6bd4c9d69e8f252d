"""Unit tests for the KV batch model."""

import numpy as np
import pytest

from repro.core.kv import KEY_BYTES, KVBatch, random_kv_batch


def test_random_batch_shapes():
    b = random_kv_batch(100, 56, rng=1)
    assert len(b) == 100
    assert b.value_bytes == 56
    assert b.record_bytes == KEY_BYTES + 56 == 64
    assert b.total_bytes == 6400


def test_reproducible_with_seed():
    a = random_kv_batch(50, 8, rng=7)
    b = random_kv_batch(50, 8, rng=7)
    assert np.array_equal(a.keys, b.keys)
    assert np.array_equal(a.values, b.values)


def test_value_of_roundtrip():
    b = random_kv_batch(10, 16, rng=2)
    assert b.value_of(3) == b.values[3].tobytes()
    assert len(b.value_of(0)) == 16


def test_select_by_mask_and_index():
    b = random_kv_batch(20, 4, rng=3)
    m = b.keys % np.uint64(2) == 0
    sub = b.select(m)
    assert len(sub) == int(m.sum())
    sub2 = b.select(np.asarray([1, 5, 7]))
    assert np.array_equal(sub2.keys, b.keys[[1, 5, 7]])


def test_shape_validation():
    with pytest.raises(ValueError):
        KVBatch(np.zeros(3, dtype=np.uint64), np.zeros((2, 4), dtype=np.uint8))
    with pytest.raises(ValueError):
        KVBatch(np.zeros(3, dtype=np.uint64), np.zeros(3, dtype=np.uint8))


def test_zero_width_values_allowed():
    b = random_kv_batch(4, 0, rng=1)
    assert b.record_bytes == KEY_BYTES
    assert b.value_of(0) == b""


def test_negative_sizes_rejected():
    with pytest.raises(ValueError):
        random_kv_batch(-1, 8)
    with pytest.raises(ValueError):
        random_kv_batch(1, -8)
