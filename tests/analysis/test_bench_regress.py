"""The CI perf-regression gate (`scripts/check_bench_regress.py`).

Runs the script the way CI does — as a subprocess over directories of
``repro.bench/v1`` documents — and also unit-tests the metric extraction
it is built on.
"""

import json
import pathlib
import subprocess
import sys

import pytest

SCRIPT = pathlib.Path(__file__).resolve().parents[2] / "scripts" / "check_bench_regress.py"


def _doc(qps: float, speedup: float) -> dict:
    return {
        "schema": "repro.bench/v1",
        "bench": "serve",
        "rows_detailed": [
            {"format": "filterkv", "arm": "served", "qps": qps, "speedup": speedup},
            {"format": "filterkv", "arm": "naive", "qps": qps / speedup},
        ],
        "latency_ms": {"p50": 0.1, "p99": 2.0},  # never gated
    }


def _write(d: pathlib.Path, name: str, doc: dict) -> None:
    d.mkdir(parents=True, exist_ok=True)
    (d / f"{name}.json").write_text(json.dumps(doc))


def _run(*argv: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(SCRIPT), *argv], capture_output=True, text=True
    )


def test_identical_results_pass(tmp_path):
    _write(tmp_path / "base", "serve", _doc(50_000, 12.0))
    _write(tmp_path / "cur", "serve", _doc(50_000, 12.0))
    p = _run("--baseline", str(tmp_path / "base"), "--current", str(tmp_path / "cur"))
    assert p.returncode == 0, p.stdout + p.stderr
    assert "OK: no throughput regressions" in p.stdout


def test_synthetic_25_percent_drop_fails(tmp_path):
    _write(tmp_path / "base", "serve", _doc(50_000, 12.0))
    _write(tmp_path / "cur", "serve", _doc(50_000 * 0.75, 12.0 * 0.75))
    p = _run("--baseline", str(tmp_path / "base"), "--current", str(tmp_path / "cur"))
    assert p.returncode == 1, p.stdout + p.stderr
    assert "REGRESSED" in p.stdout and "FAIL" in p.stdout
    assert "speedup" in p.stdout


def test_threshold_is_configurable(tmp_path):
    _write(tmp_path / "base", "serve", _doc(50_000, 12.0))
    _write(tmp_path / "cur", "serve", _doc(50_000 * 0.85, 12.0 * 0.85))  # -15%
    args = ("--baseline", str(tmp_path / "base"), "--current", str(tmp_path / "cur"))
    assert _run(*args).returncode == 0  # default 20% tolerates it
    assert _run(*args, "--threshold", "0.10").returncode == 1


def test_relative_only_ignores_absolute_qps(tmp_path):
    # QPS halves (different machine) but speedups hold: relative mode
    # passes, absolute mode fails.
    _write(tmp_path / "base", "serve", _doc(50_000, 12.0))
    _write(tmp_path / "cur", "serve", _doc(25_000, 12.0))
    args = ("--baseline", str(tmp_path / "base"), "--current", str(tmp_path / "cur"))
    assert _run(*args).returncode == 1
    assert _run(*args, "--relative-only").returncode == 0


def _amp_doc(amplification: float, qps: float = 1_000.0) -> dict:
    return {
        "schema": "repro.bench/v1",
        "bench": "compact",
        "rows_detailed": [
            {
                "format": "filterkv",
                "arm": "compacted",
                "read_amplification": amplification,
                "cold_lookups_per_s": qps,
            }
        ],
    }


def test_amplification_growth_fails_the_gate(tmp_path):
    """``amplification`` metrics gate in the *lower-is-better* direction:
    growth is the regression, shrinkage the improvement."""
    _write(tmp_path / "base", "compact", _amp_doc(1.1))
    _write(tmp_path / "cur", "compact", _amp_doc(1.1 * 1.4))  # reads grew 40%
    args = ("--baseline", str(tmp_path / "base"), "--current", str(tmp_path / "cur"))
    p = _run(*args)
    assert p.returncode == 1, p.stdout + p.stderr
    assert "read_amplification" in p.stdout and "REGRESSED" in p.stdout
    # Relative-only mode (CI) still gates it: amplification is dimensionless.
    assert _run(*args, "--relative-only").returncode == 1


def test_amplification_shrinkage_is_an_improvement(tmp_path):
    _write(tmp_path / "base", "compact", _amp_doc(2.0))
    _write(tmp_path / "cur", "compact", _amp_doc(1.2))
    p = _run("--baseline", str(tmp_path / "base"), "--current", str(tmp_path / "cur"))
    assert p.returncode == 0, p.stdout + p.stderr
    assert "improved" in p.stdout and "read_amplification" in p.stdout


def test_new_and_missing_benches_warn_but_do_not_fail(tmp_path):
    _write(tmp_path / "base", "serve", _doc(50_000, 12.0))
    _write(tmp_path / "base", "gone", _doc(10_000, 2.0))
    _write(tmp_path / "cur", "serve", _doc(50_000, 12.0))
    _write(tmp_path / "cur", "brand_new", _doc(10_000, 2.0))
    p = _run("--baseline", str(tmp_path / "base"), "--current", str(tmp_path / "cur"))
    assert p.returncode == 0
    assert "gone.json in baseline" in p.stderr
    assert "brand_new.json is new" in p.stderr


def test_missing_directory_is_a_usage_error(tmp_path):
    p = _run("--baseline", str(tmp_path / "nope"), "--current", str(tmp_path))
    assert p.returncode == 2


def test_committed_smoke_baselines_load(tmp_path):
    """The baselines CI gates against must stay parseable and non-empty."""
    sys.path.insert(0, str(SCRIPT.parent))
    try:
        import check_bench_regress as cbr
    finally:
        sys.path.pop(0)
    baseline_dir = SCRIPT.parent.parent / "benchmarks" / "results" / "baseline_smoke"
    loaded = cbr.load_dir(baseline_dir)
    assert {"serve", "query", "ingest", "compact"} <= set(loaded)
    for bench, metrics in loaded.items():
        assert metrics, f"{bench} baseline has no throughput metrics"
    # Relative metrics exist for --relative-only mode to gate on.
    assert any("speedup" in k for k in loaded["serve"])
    assert any("amplification" in k for k in loaded["compact"])


def test_extraction_identity_keys_are_order_stable(tmp_path):
    sys.path.insert(0, str(SCRIPT.parent))
    try:
        import check_bench_regress as cbr
    finally:
        sys.path.pop(0)
    doc = _doc(50_000, 12.0)
    shuffled = dict(doc)
    shuffled["rows_detailed"] = list(reversed(doc["rows_detailed"]))
    assert cbr.extract_metrics(doc) == cbr.extract_metrics(shuffled)
    keys = set(cbr.extract_metrics(doc))
    assert "rows_detailed[format=filterkv,arm=served].qps" in keys
    assert "rows_detailed[format=filterkv,arm=served].speedup" in keys
    assert not any("p50" in k or "p99" in k for k in keys)  # latency never gated
