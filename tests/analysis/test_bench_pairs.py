"""Verdict logic of `scripts/bench_pairs.py` on canned numbers.

The runner itself needs ~100 s per side per seed and is never run here;
what is pinned is how paired runs become ``improved`` / ``within bound`` /
``unresolved`` / ``regressed``, when the script's exit code is non-zero,
and how it names the commit each side ran.
"""

import pathlib
import subprocess
import sys

import pytest

SCRIPTS = pathlib.Path(__file__).resolve().parents[2] / "scripts"


@pytest.fixture(scope="module")
def bp():
    sys.path.insert(0, str(SCRIPTS))
    try:
        import bench_pairs
    finally:
        sys.path.pop(0)
    return bench_pairs


PARENT = [100.0, 101.0, 99.0, 100.5, 99.5, 100.2, 99.8, 100.1, 99.9, 100.0]


def test_nine_of_ten_wins_beyond_parent_iqr_is_improved(bp):
    change = [p * 1.3 for p in PARENT]
    change[4] = PARENT[4] * 0.99  # one lost pair is allowed
    row = bp.summarise(PARENT, change, "higher", 0.15)
    assert row["verdict"] == "improved" and row["change_better_pairs"] == "9/10"
    assert row["median_change_rel"] == pytest.approx(0.3, abs=0.01)


def test_eight_wins_or_a_gain_inside_the_parent_spread_is_not_improved(bp):
    change = [p * 1.3 for p in PARENT]
    change[3], change[4] = PARENT[3] * 0.99, PARENT[4] * 0.99
    assert bp.summarise(PARENT, change, "higher", 0.15)["verdict"] == "within bound"
    nudged = [p + 0.1 for p in PARENT]  # wins 10/10, but by less than the IQR
    row = bp.summarise(PARENT, nudged, "higher", 0.15)
    assert row["change_better_pairs"] == "10/10" and row["verdict"] == "within bound"


def test_direction_follows_better(bp):
    slower = [p * 1.3 for p in PARENT]
    assert bp.summarise(PARENT, slower, "lower", 0.2)["verdict"] == "regressed"
    assert bp.summarise(PARENT, slower, "higher", 0.2)["verdict"] == "improved"
    assert bp.summarise(PARENT, [p * 1.1 for p in PARENT], "lower", 0.2)["verdict"] == (
        "within bound"
    )


def test_spread_wider_than_bound_is_unresolved_not_unchanged(bp):
    noisy_parent = [1.0, 1.4, 0.8, 1.3, 0.9, 1.2, 1.0, 1.5, 0.7, 1.1]
    change = [1.05, 1.3, 0.9, 1.2, 1.0, 1.1, 1.1, 1.4, 0.8, 1.0]
    row = bp.summarise(noisy_parent, change, "lower", 0.25)
    assert row["parent_iqr_rel"] > 0.25 and row["verdict"] == "unresolved"
    # ...unless every run of the change beats every run of the parent: a
    # gain smaller than the parent's IQR is then no claim, but no doubt either.
    bimodal = [0.7, 1.5] * 5
    row = bp.summarise(bimodal, [0.5] * 5 + [0.6] * 5, "lower", 0.25)
    assert row["parent_iqr_rel"] > 0.25 and row["verdict"] == "within bound"


def test_exact_counters_equal_per_pair_and_zero_medians(bp):
    row = bp.summarise([0.0333] * 4, [0.0333] * 4, "lower", 0.08)
    assert row["verdict"] == "within bound" and row["equal_pairs"] == "4/4"
    assert row["median_change_rel"] == 0.0
    zero = bp.summarise([0.0] * 4, [0.0] * 4, "lower", 0.08)
    assert zero["verdict"] == "within bound" and zero["parent_iqr_rel"] == 0.0
    grown = bp.summarise([0.0] * 4, [1.0] * 4, "lower", 0.08)
    assert grown["verdict"] == "regressed" and grown["median_change_rel"] is None


def _side(ops: float, failed: int = 0, correct: bool = True) -> dict:
    metrics = {"ops_per_s": {"value": ops, "unit": "1/s"}, "setup_s": {"value": 1.0, "unit": "s"}}
    return {"correct": correct, "workloads": {"w": {"failed": failed, "metrics": metrics}}}


CONTRACT = {
    "workloads": [{"name": "w"}],
    "end_to_end": [
        {"name": "ops_per_s", "unit": "1/s", "better": "higher", "bound": 0.15},
        {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
    ],
}


def _report(bp, factor: float, **change_kw) -> dict:
    results = [
        {"seed": s, "first": "parent", "parent": _side(p), "change": _side(p * factor, **change_kw)}
        for s, p in enumerate(PARENT, 1)
    ]
    return bp.build_report(results, CONTRACT, {"pr": 0})


def test_report_schema_and_exit_codes(bp):
    good = _report(bp, 1.4)
    row = good["workloads"]["w"]["ops_per_s"]
    assert {"unit", "better", "bound", "parent", "change", "median_change_rel", "parent_iqr_rel",
            "change_iqr_rel", "change_better_pairs", "verdict", "runs"} <= set(row)
    assert good["seeds"] == list(range(1, 11)) and len(row["runs"]["change"]) == 10
    assert good["workloads"]["w"]["setup_s"]["equal_pairs"] == "10/10"
    assert bp.exit_code(good, ("w", "ops_per_s")) == 0
    assert bp.exit_code(good, ("w", "setup_s")) == 1  # claimed, but only within bound
    assert bp.exit_code(_report(bp, 0.8), None) == 1  # regressed
    assert bp.exit_code(_report(bp, 1.0, failed=1), None) == 1
    assert bp.exit_code(_report(bp, 1.0, correct=False), None) == 1
    assert bp.exit_code(_report(bp, 1.0), None) == 0


def test_seed_ranges(bp):
    assert bp.parse_seeds("1-3,7,11-12") == [1, 2, 3, 7, 11, 12]


def _git(cwd, *args):
    subprocess.run(
        ["git", "-c", "user.name=t", "-c", "user.email=t@t", *args],
        cwd=cwd, check=True, capture_output=True,
    )


@pytest.fixture
def checkouts(tmp_path):
    """A one-commit git work tree holding ``benchmarks/e2e/run.py``, and a
    `git archive` copy of it (no ``.git``)."""
    tree = tmp_path / "tree"
    (tree / "benchmarks" / "e2e").mkdir(parents=True)
    (tree / "benchmarks" / "e2e" / "run.py").write_text("print('{}')\n")
    _git(tree, "init", "-q")
    _git(tree, "add", "-A")
    _git(tree, "commit", "-q", "-m", "seed")
    copy = tmp_path / "copy"
    copy.mkdir()
    archive = subprocess.run(["git", "archive", "HEAD"], cwd=tree, check=True, capture_output=True)
    subprocess.run(["tar", "xf", "-"], cwd=copy, input=archive.stdout, check=True)
    return tree, copy


def test_a_side_records_its_commit_and_whether_tracked_files_differ(bp, checkouts):
    tree, copy = checkouts
    sha = subprocess.run(
        ["git", "rev-parse", "HEAD"], cwd=tree, capture_output=True, text=True, check=True
    ).stdout.strip()
    assert bp.git_head(tree) == sha
    (tree / "notes.txt").write_text("untracked\n")
    assert bp.git_head(tree) == sha
    (tree / "benchmarks" / "e2e" / "run.py").write_text("print('{\"x\": 1}')\n")
    assert bp.git_head(tree) == sha + "+dirty"
    # A copy without .git, and a directory inside the work tree, are no
    # checkout of their own.
    assert bp.git_head(copy) is None
    assert bp.git_head(tree / "benchmarks") is None


def test_a_side_that_is_no_git_work_tree_exits_2_at_startup(bp, checkouts, capsys):
    tree, copy = checkouts
    for parent, change in ((copy, tree), (tree, copy)):
        argv = ["--parent", str(parent), "--change", str(change), "--pr", "0"]
        assert bp.main(argv) == 2
        err = capsys.readouterr().err
        assert f"{copy} is not a git work tree" in err and "git clone" in err
    assert not (tree / "BENCH_0.json").exists() and not (copy / "BENCH_0.json").exists()
