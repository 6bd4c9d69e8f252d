"""Unit tests for report rendering."""

from repro.analysis.reporting import banner, format_value, percent, render_table


def test_render_table_alignment():
    out = render_table(["name", "val"], [["a", 1], ["bb", 22]])
    lines = out.splitlines()
    assert len(lines) == 4  # header, rule, two rows
    assert all(len(line) == len(lines[0]) for line in lines)
    assert "bb" in lines[3] and "22" in lines[3]


def test_render_table_with_title():
    out = render_table(["x"], [[1]], title="Table I")
    assert out.startswith("Table I\n")


def test_render_empty_rows():
    out = render_table(["col"], [])
    assert "col" in out


def test_format_value():
    assert format_value(3.14159) == "3.14"
    assert format_value(123456.0) == "1.23e+05"
    assert format_value(0.0001) == "0.0001"
    assert format_value(0.0) == "0"
    assert format_value("x") == "x"
    assert format_value(42) == "42"


def test_percent():
    assert percent(1.016) == "102%"
    assert percent(0.5) == "50%"


def test_banner():
    out = banner("hello")
    assert "hello" in out
    assert out.count("=") >= 80


def test_format_value_edge_cases():
    assert format_value(-0.0) == "0"  # negative zero is still zero
    assert format_value(1234.5) == "1.23e+03"
    assert format_value(0.009999) == "0.01"
    # %.2f rounding must not leak "1000.00" next to "1e+03" peers
    assert format_value(999.996) == "1e+03"
    assert format_value(-999.996) == "-1e+03"
    assert format_value(999.99) == "999.99"
    assert format_value(-1234.5) == "-1.23e+03"


def test_table_data_payload():
    from repro.analysis.reporting import table_data

    data = table_data(["a", "b"], [[1, 2.5], ["x", None]], title="T")
    assert data == {"title": "T", "columns": ["a", "b"], "rows": [[1, 2.5], ["x", None]]}


def test_table_data_unwraps_numpy_scalars():
    import numpy as np

    from repro.analysis.reporting import table_data

    data = table_data(["n"], [[np.int64(7)], [np.float32(0.5)]])
    assert data["rows"] == [[7], [0.5]]
    assert all(type(v) in (int, float) for row in data["rows"] for v in row)


def test_table_artifact_text_matches_render():
    from repro.analysis.reporting import table_artifact

    text, data = table_artifact(["h"], [[1]], title="t")
    assert text == render_table(["h"], [[1]], title="t")
    assert data["columns"] == ["h"]


def test_bench_document_envelope():
    from repro.analysis.reporting import BENCH_SCHEMA, bench_document

    doc = bench_document("fig7a", {"columns": ["x"], "rows": [[1]], "title": ""})
    assert doc["schema"] == BENCH_SCHEMA
    assert doc["bench"] == "fig7a"
    assert doc["rows"] == [[1]]
