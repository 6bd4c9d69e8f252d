#!/usr/bin/env python3
"""The ``BENCH_*.json`` series, per workload x metric, as one table.

Every PR that touches performance commits the output of
``scripts/bench_pairs.py`` as ``BENCH_<pr>.json`` in the repo root.  This
prints the trajectory those files hold — for each workload and end-to-end
metric, one line per PR with the parent's and the change's median, the
relative move, how many pairs the change won and the verdict — so a
re-anchor reads the series instead of re-deriving it.

    python3 scripts/bench_trend.py                       # every file, every metric
    python3 scripts/bench_trend.py --workload read-cold --metric ops_per_s
    python3 scripts/bench_trend.py BENCH_19.json BENCH_23.json --json

A change-side median is not the next file's parent-side median: the box
drifts between sessions and PRs land in between.  Compare within a line,
and read the column of verdicts down.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]


def load(paths: list[pathlib.Path]) -> list[dict]:
    """The documents, ordered by PR number."""
    docs = []
    for path in paths:
        doc = json.loads(path.read_text())
        if "pr" not in doc or "workloads" not in doc:
            raise ValueError(f"{path} is not a bench_pairs document")
        docs.append(doc)
    return sorted(docs, key=lambda d: d["pr"])


def trend(docs: list[dict], workload: str | None = None, metric: str | None = None) -> list[dict]:
    """One row per (workload, metric, PR), workloads and metrics in the
    order the newest document lists them."""
    order: dict[tuple[str, str], None] = {}
    for doc in reversed(docs):
        for w, metrics in doc["workloads"].items():
            for m in metrics:
                order.setdefault((w, m), None)
    rows = []
    for w, m in order:
        if workload not in (None, w) or metric not in (None, m):
            continue
        for doc in docs:
            cell = doc["workloads"].get(w, {}).get(m)
            if cell is None:
                continue
            rows.append(
                {
                    "workload": w,
                    "metric": m,
                    "unit": cell["unit"],
                    "pr": doc["pr"],
                    "parent": cell["parent"]["median"],
                    "change": cell["change"]["median"],
                    "rel": cell["median_change_rel"],
                    "pairs": cell["change_better_pairs"],
                    "verdict": cell["verdict"],
                }
            )
    return rows


def _num(x: float) -> str:
    return f"{x:,.0f}" if abs(x) >= 1000 else f"{x:.4g}"


def render(rows: list[dict]) -> str:
    lines, last = [], None
    for r in rows:
        head = (r["workload"], r["metric"])
        if head != last:
            if last is not None:
                lines.append("")
            lines.append(f"{r['workload']}  {r['metric']}  [{r['unit']}]")
            last = head
        rel = "     n/a" if r["rel"] is None else f"{100 * r['rel']:+7.1f}%"
        lines.append(
            f"  PR {r['pr']:<3d} {_num(r['parent']):>10s} -> {_num(r['change']):>10s}"
            f"  {rel}  {r['pairs']:>5s}  {r['verdict']}"
        )
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("files", nargs="*", type=pathlib.Path, help="default: BENCH_*.json in the repo root")
    p.add_argument("--workload")
    p.add_argument("--metric")
    p.add_argument("--json", action="store_true", help="print the rows as JSON")
    args = p.parse_args(argv)
    files = args.files or list(ROOT.glob("BENCH_*.json"))
    if not files:
        print("no BENCH_*.json files found", file=sys.stderr)
        return 2
    try:
        rows = trend(load(files), args.workload, args.metric)
    except (OSError, ValueError) as e:
        print(f"bench_trend: {e}", file=sys.stderr)
        return 2
    print(json.dumps(rows, indent=1) if args.json else render(rows))
    return 0


if __name__ == "__main__":
    sys.exit(main())
