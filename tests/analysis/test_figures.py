"""Unit tests for the ASCII figure renderers."""

import pytest

from repro.analysis.figures import ascii_series


def test_series_basic_shape():
    out = ascii_series({"a": [1, 2, 3]}, xlabels=[10, 20, 30], height=5)
    lines = out.splitlines()
    assert len(lines) == 5 + 3  # grid + axis + labels + legend
    assert sum(line.count("*") for line in lines[:5]) == 3  # grid marks only
    assert "a" in lines[-1]


def test_series_multiple_marks():
    out = ascii_series({"a": [1, 2], "b": [2, 1]}, xlabels=["x", "y"])
    assert "*" in out and "o" in out
    assert "a" in out and "b" in out


def test_series_logy():
    out = ascii_series({"a": [1, 10, 1000]}, xlabels=[1, 2, 3], logy=True, height=4)
    assert "1e+03" in out or "1000" in out


def test_series_title():
    out = ascii_series({"a": [1]}, xlabels=[1], title="Fig")
    assert out.startswith("Fig\n")


def test_series_validation():
    with pytest.raises(ValueError):
        ascii_series({}, xlabels=[1])
    with pytest.raises(ValueError):
        ascii_series({"a": [1, 2]}, xlabels=[1])
    with pytest.raises(ValueError):
        ascii_series({"a": [0, 1]}, xlabels=[1, 2], logy=True)


def test_flat_series_does_not_crash():
    out = ascii_series({"a": [5, 5, 5]}, xlabels=[1, 2, 3], height=6)
    grid_lines = out.splitlines()[:6]
    assert sum(line.count("*") for line in grid_lines) == 3
