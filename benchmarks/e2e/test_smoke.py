"""Smoke test of the benchmark's contract (not part of the tier-1 suite).

    PYTHONPATH=src python -m pytest benchmarks/e2e/test_smoke.py -q

Runs every workload once at ``--smoke`` size, untraced and traced, and
checks that what `run.py` emits is what ``BENCHMARK.json`` declares.
"""

import json
import pathlib
import re
import shutil
import subprocess

import pytest

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
WORKLOADS = ["ingest-burst", "read-cold", "serve-churn", "fleet-wire"]
END_TO_END = [
    "setup_s", "ops_per_s", "p50_ms", "p95_ms", "cpu_us_per_op", "peak_rss_mb",
    "stored_bytes_per_user_byte", "written_bytes_per_user_byte", "device_reads_per_op",
]


def run(*args, cwd=ROOT, command=None):
    command = command or SPEC["command"]
    return subprocess.run(
        [*command, *args], cwd=cwd, capture_output=True, text=True, timeout=120
    )


def last_json(out):
    assert out.returncode == 0, out.stderr
    return json.loads(out.stdout.strip().splitlines()[-1])


def test_spec_is_within_the_contract():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert [w["name"] for w in SPEC["workloads"]] == WORKLOADS
    assert [m["name"] for m in SPEC["end_to_end"]] == END_TO_END
    assert 2 <= len(SPEC["workloads"]) <= 8
    assert 1 <= len(SPEC["end_to_end"]) <= 16
    assert 1 <= len(SPEC["per_layer"]) <= 128
    names = [x["name"] for key in ("workloads", "end_to_end", "per_layer") for x in SPEC[key]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(n) for n in names)
    for m in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert UNIT.fullmatch(m["unit"]) and m["better"] in ("lower", "higher")
    for m in SPEC["end_to_end"]:
        assert 0 < m["bound"] <= 0.25
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in SPEC["workloads"])
    assert isinstance(SPEC["run_seconds"], int) and 1 <= SPEC["run_seconds"] <= 60


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_emits_exactly_the_declared_metrics(workload, trace):
    result = last_json(run("--workload", workload, "--seed", "5", "--trace", str(trace), "--smoke"))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for m in declared:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], float)
        if not trace:
            assert got["value"] > 0, m["name"]


def test_seed_changes_inputs_not_operation_counts():
    a = last_json(run("--workload", "read-cold", "--seed", "1", "--smoke"))
    b = last_json(run("--workload", "read-cold", "--seed", "2", "--smoke"))
    assert a["attempted"] == b["attempted"]
    assert a["metrics"]["device_reads_per_op"] != b["metrics"]["device_reads_per_op"]


def test_all_workloads_interleaved():
    result = last_json(run("--smoke"))
    assert result["correct"] is True
    assert list(result["workloads"]) == WORKLOADS


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        HERE, tmp_path / "benchmarks" / "e2e", ignore=shutil.ignore_patterns("out", "__pycache__")
    )
    out = run("--workload", "read-cold", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert out.returncode != 0
    assert not out.stdout.strip().startswith("{")
