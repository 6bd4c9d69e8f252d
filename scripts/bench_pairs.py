#!/usr/bin/env python3
"""Alternating parent/change pairs of the repo benchmark -> ``BENCH_<pr>.json``.

Runs ``python3 benchmarks/e2e/run.py --seed s`` once in each of two
checkouts for every seed, alternating which side goes first (odd positions
run the parent first, even positions the change), reads the end-to-end
metrics and their bounds from the change checkout's ``BENCHMARK.json``
(read-only) and writes one document in ``BENCH_17.json``'s schema: per
workload x metric the medians, quartiles, per-pair wins, a verdict and
every run.  The file is rewritten after each pair, so an interrupted
session still leaves the pairs it finished.

    python3 scripts/bench_pairs.py --parent /root/scratch/parent --change . \\
        --seeds 1-10 --pr 19 --claim read-cold:ops_per_s

Verdicts (the rules of the choosing-metrics guide, section 8):

* ``improved``     the change wins >= 9/10 of the pairs (ties count for
                   neither) and the medians differ by more than the
                   parent's own inter-quartile distance;
* ``regressed``    the change's median is worse than the parent's by more
                   than the metric's bound;
* ``unresolved``   neither, but either side's inter-quartile spread is
                   wider than the bound and the runs overlap, so "no
                   regression" cannot be told from noise;
* ``within bound`` otherwise.

Exits 1 on any ``regressed`` verdict, a wrong reply, more failed
operations than the parent or a ``--claim`` that did not come out
``improved``; 2 on usage errors.  A full run is ~100 s per side per seed:
this is a tool for a PR author, not a CI job.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import statistics
import subprocess
import sys

WIN_SHARE = 0.9  # of all pairs, ties counting for neither


def quartiles(runs: list[float]) -> dict:
    if len(runs) == 1:
        return {"q1": runs[0], "median": runs[0], "q3": runs[0]}
    q1, median, q3 = statistics.quantiles(runs, n=4, method="inclusive")
    return {"q1": q1, "median": median, "q3": q3}


def _rel(delta: float, base: float) -> float | None:
    """``delta`` as a share of ``base``, for the report (None: undefined)."""
    if delta == 0:
        return 0.0
    return round(delta / abs(base), 4) if base else None


def summarise(parent: list[float], change: list[float], better: str, bound: float) -> dict:
    """One workload x metric: quartiles, per-pair wins and the verdict.

    ``parent[i]`` and ``change[i]`` are the two sides of pair ``i``.
    """
    if len(parent) != len(change) or not parent:
        raise ValueError("need the same, non-zero number of runs on both sides")
    sign = 1.0 if better == "higher" else -1.0  # gain = sign * (change - parent)
    pq, cq = quartiles(parent), quartiles(change)
    gain = sign * (cq["median"] - pq["median"])
    wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    equal = sum(c == p for p, c in zip(parent, change))
    parent_iqr, change_iqr = pq["q3"] - pq["q1"], cq["q3"] - cq["q1"]
    noisy = (
        parent_iqr > bound * abs(pq["median"]) or change_iqr > bound * abs(cq["median"])
    )
    separated = min(sign * c for c in change) > max(sign * p for p in parent)
    if wins >= WIN_SHARE * len(parent) and gain > parent_iqr:
        verdict = "improved"
    elif -gain > bound * abs(pq["median"]):
        verdict = "regressed"
    elif noisy and not separated:
        verdict = "unresolved"
    else:
        verdict = "within bound"
    return {
        "better": better,
        "bound": bound,
        "parent": pq,
        "change": cq,
        "median_change_rel": _rel(cq["median"] - pq["median"], pq["median"]),
        "parent_iqr_rel": _rel(parent_iqr, pq["median"]),
        "change_iqr_rel": _rel(change_iqr, cq["median"]),
        "change_better_pairs": f"{wins}/{len(parent)}",
        "equal_pairs": f"{equal}/{len(parent)}",
        "verdict": verdict,
        "runs": {"parent": list(parent), "change": list(change)},
    }


def build_report(results: list[dict], contract: dict, header: dict) -> dict:
    """``results``: one ``{"seed", "first", "parent", "change"}`` per pair,
    each side the JSON object `run.py` prints last."""
    workloads: dict = {}
    for w in (w["name"] for w in contract["workloads"]):
        workloads[w] = {}
        for m in contract["end_to_end"]:
            runs = {
                side: [r[side]["workloads"][w]["metrics"][m["name"]]["value"] for r in results]
                for side in ("parent", "change")
            }
            row = summarise(runs["parent"], runs["change"], m["better"], m["bound"])
            workloads[w][m["name"]] = {"unit": m["unit"], **row}
    sides = ("parent", "change")
    return {
        **header,
        "seeds": [r["seed"] for r in results],
        "first_side": [r["first"] for r in results],
        "workloads": workloads,
        "failed_ops": {
            s: sum(w["failed"] for r in results for w in r[s]["workloads"].values())
            for s in sides
        },
        "all_replies_match_oracle": {s: all(r[s]["correct"] for r in results) for s in sides},
    }


def exit_code(report: dict, claim: tuple[str, str] | None) -> int:
    rows = {
        (w, m): row["verdict"] for w, metrics in report["workloads"].items()
        for m, row in metrics.items()
    }
    bad = [f"{w} {m}: regressed" for (w, m), v in rows.items() if v == "regressed"]
    if not all(report["all_replies_match_oracle"].values()):
        bad.append("a reply differed from the oracle")
    if report["failed_ops"]["change"] > report["failed_ops"]["parent"]:
        bad.append("more operations failed than at the parent")
    if claim is not None and rows.get(claim) != "improved":
        bad.append(f"claim {claim[0]} {claim[1]}: {rows.get(claim, 'no such metric')}")
    for line in bad:
        print(f"FAIL {line}", file=sys.stderr)
    return 1 if bad else 0


def run_once(checkout: pathlib.Path, seed: int) -> dict:
    proc = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--seed", str(seed)],
        cwd=checkout, capture_output=True, text=True,
    )
    last = proc.stdout.strip().splitlines()[-1:] or [""]
    try:
        return json.loads(last[0])
    except json.JSONDecodeError:
        raise SystemExit(
            f"{checkout}: run.py --seed {seed} exited {proc.returncode} without a result\n"
            f"{proc.stderr[-2000:]}"
        ) from None


def parse_seeds(text: str) -> list[int]:
    seeds: list[int] = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def git_head(checkout: pathlib.Path) -> str | None:
    """The commit ``checkout`` has checked out, ``<sha>+dirty`` when a
    tracked file differs from it, or None when ``checkout`` is not the top
    of a git work tree (a `git archive` copy, say)."""

    def git(*args: str) -> subprocess.CompletedProcess:
        return subprocess.run(["git", *args], cwd=checkout, capture_output=True, text=True)

    top = git("rev-parse", "--show-toplevel")
    head = git("rev-parse", "--verify", "HEAD")
    if top.returncode or head.returncode:
        return None
    if pathlib.Path(top.stdout.strip()).resolve() != checkout.resolve():
        return None  # a directory inside some other work tree
    dirty = git("diff", "--quiet", "HEAD").returncode != 0
    return head.stdout.strip() + ("+dirty" if dirty else "")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--parent", type=pathlib.Path, required=True, help="checkout of the parent commit")
    p.add_argument("--change", type=pathlib.Path, required=True, help="checkout of the change")
    p.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 3,11,12")
    p.add_argument("--pr", type=int, required=True)
    p.add_argument("--claim", help="workload:metric that must come out improved")
    p.add_argument("--out", type=pathlib.Path, help="default: BENCH_<pr>.json in the change checkout")
    args = p.parse_args(argv)
    heads = {}
    for name in ("parent", "change"):
        side = getattr(args, name)
        if not (side / "benchmarks" / "e2e" / "run.py").is_file():
            print(f"error: {side} has no benchmarks/e2e/run.py", file=sys.stderr)
            return 2
        heads[name] = git_head(side)
        if heads[name] is None:
            print(
                f"error: {side} is not a git work tree, so its commit cannot be "
                "recorded; make it with `git clone` or `git worktree add`",
                file=sys.stderr,
            )
            return 2
    contract = json.loads((args.change / "BENCHMARK.json").read_text())
    claim = tuple(args.claim.split(":", 1)) if args.claim else None
    out = args.out or args.change / f"BENCH_{args.pr}.json"
    header = {
        "pr": args.pr,
        "parent": heads["parent"],
        "change": heads["change"],
        "command": "python3 benchmarks/e2e/run.py --seed <seed>  (untraced)",
        "design": "alternating parent/change pairs, one per seed; "
        "odd positions run the parent first, even positions the change first",
        "claim": args.claim or "none: every metric within its BENCHMARK.json bound",
    }
    results: list[dict] = []
    report: dict = {}
    for i, seed in enumerate(parse_seeds(args.seeds)):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        pair = {"seed": seed, "first": order[0]}
        for side in order:
            print(f"pair {i + 1} seed {seed}: {side}", file=sys.stderr, flush=True)
            pair[side] = run_once(getattr(args, side), seed)
        results.append(pair)
        report = build_report(results, contract, header)
        out.write_text(json.dumps(report, indent=1) + "\n")
    for w, metrics in report["workloads"].items():
        for m, row in metrics.items():
            rel = row["median_change_rel"]
            print(
                f"{w:13s} {m:28s} {row['parent']['median']:>12.6g} -> "
                f"{row['change']['median']:>12.6g}  "
                f"{'n/a' if rel is None else format(rel, '+.2%'):>8s}  "
                f"better {row['change_better_pairs']:>5s}  {row['verdict']}"
            )
    return exit_code(report, claim)


if __name__ == "__main__":
    sys.exit(main())
