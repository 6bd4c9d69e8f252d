#!/usr/bin/env python3
"""A/A check: is the benchmark steady enough for its own bounds?

Runs the command in ``BENCHMARK.json`` the way the driver does: two sets
of ``--runs`` invocations per workload, each run of a set with another
seed, the two sets alternating (``A1 B1 A2 B2 ...``) so that slow drift of
the machine is shared.  Both sets use the same seeds, so run ``i`` of set A
and run ``i`` of set B have identical inputs.

For every workload and end-to-end metric it reports each set's median and
quartiles (`statistics.quantiles`, ``n=4``), the spread (interquartile
distance over the median) and how much worse set B's median is than set
A's, and fails if

* a spread, except that of ``setup_s``, exceeds the metric's bound,
* set B's median is worse than set A's by more than the bound, or
* a count that must repeat exactly for a fixed seed differs between the
  two sets (all count metrics on the single-caller workloads; on the
  concurrent ones the stored and written bytes per user byte).

Writes ``results/aa.json`` with every run and the machine it ran on.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import platform
import statistics
import subprocess
import sys
import time

import numpy

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent.parent

COUNTS = ("stored_bytes_per_user_byte", "written_bytes_per_user_byte", "device_reads_per_op")
SINGLE_CALLER = ("ingest-burst", "read-cold")


def invoke(command: list[str], workload: str, seed: int, seconds: int) -> dict:
    argv = [*command, "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if out.returncode != 0:
        raise SystemExit(f"{' '.join(argv)} exited {out.returncode}:\n{out.stderr[-2000:]}")
    result = json.loads(out.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed}: wrong answers")
    return result


def summarise(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"q1": q1, "median": median, "q3": q3, "spread": (q3 - q1) / median}


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--runs", type=int, default=10, help="invocations per set and workload (>= 5)")
    p.add_argument("--first-seed", type=int, default=1)
    p.add_argument("--out", type=pathlib.Path, default=HERE / "results" / "aa.json")
    args = p.parse_args()
    if args.runs < 5:
        p.error("--runs must be at least 5")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    seeds = list(range(args.first_seed, args.first_seed + args.runs))
    started = time.time()
    load_before = os.getloadavg()

    runs = {w["name"]: {"A": [], "B": []} for w in spec["workloads"]}
    for seed in seeds:
        for which in ("A", "B"):
            for name in runs:
                result = invoke(spec["command"], name, seed, spec["run_seconds"])
                runs[name][which].append(
                    {"seed": seed, "failed": result["failed"], "attempted": result["attempted"],
                     **{k: v["value"] for k, v in result["metrics"].items()}}
                )
                print(f"set {which} seed {seed} {name}: done", file=sys.stderr)

    problems = []
    table = {}
    for name, sets in runs.items():
        table[name] = {}
        for metric, m in bounds.items():
            a = summarise([r[metric] for r in sets["A"]])
            b = summarise([r[metric] for r in sets["B"]])
            sign = 1.0 if m["better"] == "lower" else -1.0
            gap = sign * (b["median"] - a["median"]) / a["median"]
            table[name][metric] = {"A": a, "B": b, "gap": gap, "bound": m["bound"]}
            for which, s in (("A", a), ("B", b)):
                if metric != "setup_s" and s["spread"] > m["bound"]:
                    problems.append(
                        f"{name} {metric}: set {which} spread {s['spread']:.4f} > bound {m['bound']}"
                    )
            if gap > m["bound"]:
                problems.append(f"{name} {metric}: set B worse by {gap:.4f} > bound {m['bound']}")
            exact = metric in COUNTS and (name in SINGLE_CALLER or metric != "device_reads_per_op")
            if exact and [r[metric] for r in sets["A"]] != [r[metric] for r in sets["B"]]:
                problems.append(f"{name} {metric}: not identical for equal seeds")
            print(
                f"{name:13s} {metric:28s} A {a['median']:>12.6g} ({a['spread']:.4f})  "
                f"B {b['median']:>12.6g} ({b['spread']:.4f})  gap {gap:+.4f}  bound {m['bound']}"
            )
        for which in ("A", "B"):
            if any(r["failed"] for r in sets[which]):
                problems.append(f"{name}: set {which} had failed operations")

    doc = {
        "seeds": seeds,
        "runs_per_set": args.runs,
        "machine": {
            "nproc": os.cpu_count(),
            "loadavg_before": load_before,
            "loadavg_after": os.getloadavg(),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "platform": platform.platform(),
            "elapsed_s": round(time.time() - started, 1),
        },
        "summary": table,
        "problems": problems,
        "runs": runs,
    }
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(doc, indent=1) + "\n")
    for line in problems:
        print("PROBLEM:", line)
    print(f"{'FAIL' if problems else 'OK'}: wrote {args.out}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
