"""`scripts/bench_trend.py` over two of the committed ``BENCH_*.json`` files."""

import json
import pathlib
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[2]
FILES = [ROOT / "BENCH_21.json", ROOT / "BENCH_19.json"]  # deliberately out of order


@pytest.fixture(scope="module")
def bt():
    sys.path.insert(0, str(ROOT / "scripts"))
    try:
        import bench_trend
    finally:
        sys.path.pop(0)
    return bench_trend


def test_rows_follow_the_committed_documents_in_pr_order(bt):
    rows = bt.trend(bt.load(FILES), "read-cold", "ops_per_s")
    assert [r["pr"] for r in rows] == [19, 21]
    by_pr = {r["pr"]: r for r in rows}
    for path in FILES:
        doc = json.loads(path.read_text())
        cell = doc["workloads"]["read-cold"]["ops_per_s"]
        row = by_pr[doc["pr"]]
        assert (row["parent"], row["change"]) == (cell["parent"]["median"], cell["change"]["median"])
        assert (row["rel"], row["pairs"], row["verdict"]) == (
            cell["median_change_rel"], cell["change_better_pairs"], cell["verdict"],
        )
    assert by_pr[19]["verdict"] == "improved" and by_pr[19]["rel"] > 0.5  # PR 19's 1.69x


def test_every_workload_and_metric_of_the_documents_is_listed_once_per_pr(bt):
    docs = bt.load(FILES)
    rows = bt.trend(docs)
    cells = {(w, m) for d in docs for w, ms in d["workloads"].items() for m in ms}
    assert {(r["workload"], r["metric"]) for r in rows} == cells
    assert len(rows) == sum(len(ms) for d in docs for ms in d["workloads"].values())
    assert {r["workload"] for r in bt.trend(docs, workload="fleet-wire")} == {"fleet-wire"}


def test_rendered_table_and_cli(bt, capsys):
    text = bt.render(bt.trend(bt.load(FILES), metric="device_reads_per_op"))
    assert text.count("device_reads_per_op  [count]") == 4  # one heading per workload
    assert "PR 19 " in text and "PR 21 " in text and "improved" in text
    assert bt.main([str(f) for f in FILES] + ["--workload", "read-cold", "--json"]) == 0
    assert {r["pr"] for r in json.loads(capsys.readouterr().out)} == {19, 21}
    assert bt.main([str(ROOT / "BENCHMARK.json")]) == 2  # not a bench_pairs document
