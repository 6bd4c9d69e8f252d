#!/usr/bin/env python3
"""The repo benchmark: one command, every metric, every reply checked.

    python3 benchmarks/e2e/run.py --workload read-cold --seed 3 --seconds 15 --trace 0

runs one workload and prints, as the last line of stdout, one JSON object
``{"correct", "attempted", "failed", "metrics"}``: the end-to-end metrics
with ``--trace 0``, the per-layer metrics with ``--trace 1``.  Without
``--workload`` it runs all four, each in its own process, with their timed
rounds interleaved round-robin (``A1 B1 C1 D1 A2 ...``) so that slow drift
of the machine hits every workload alike and only one process runs at a
time.  A wrong reply ends the run with a non-zero exit code.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
SRC = HERE.parent.parent / "src"

# Fixed before the interpreter and NumPy start, so a run depends on its
# arguments only: no hash randomisation, no BLAS/OpenMP thread pool.
PINNED_ENV = {
    "PYTHONHASHSEED": "0",
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", help="one workload; default: all, rounds interleaved")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=None, help="length of the timed rounds together")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="one tiny round per workload")
    p.add_argument("--gated", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def main() -> int:
    args = parse_args()
    if any(os.environ.get(k) != v for k, v in PINNED_ENV.items()):
        os.execve(sys.executable, [sys.executable, *sys.argv], {**os.environ, **PINNED_ENV})
    if not (SRC / "repro").is_dir():
        print(f"error: {SRC}/repro not found: nothing to benchmark", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import harness
    from workloads import WORKLOADS, Sizes

    if args.workload is None:
        return run_all(args, list(WORKLOADS))
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; have {list(WORKLOADS)}", file=sys.stderr)
        return 2
    seconds = harness.RUN_SECONDS if args.seconds is None else args.seconds
    sizes = Sizes(ops=seconds / harness.RUN_SECONDS)
    if args.smoke:
        sizes = Sizes(ops=0.05, data=0.05)
    run = harness.measure_layers if args.trace else harness.measure
    try:
        result = run(args.workload, args.seed, sizes, args.smoke, gate if args.gated else None)
    except harness.WrongAnswer as e:
        print(f"WRONG ANSWER: {e}", file=sys.stderr)
        return 1
    report(result)
    line = {
        "correct": True,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": result["metrics"],
    }
    print(json.dumps(line), flush=True)
    return 0


def report(result: dict) -> None:
    name = result["workload"]
    attempted, failed = result["attempted"], result["failed"]
    print(
        f"[{name}] sent {attempted}  answered {attempted - failed}  failed {failed}  "
        f"samples {json.dumps(result['samples'])}"
    )
    for metric, m in result["metrics"].items():
        print(f"[{name}] {metric:42s} {m['value']:>16.6g} {m['unit']}")


def gate() -> None:
    """Child side of the interleaving: announce the next timed round and
    wait for the parent's go-ahead."""
    print("READY", flush=True)
    if not sys.stdin.readline():
        raise SystemExit("parent went away")


def run_all(args: argparse.Namespace, names: list[str]) -> int:
    """Parent side: one child per workload; set-ups one after another,
    then rounds round-robin, one child running at a time."""
    passthrough = ["--seed", str(args.seed), "--trace", str(args.trace)]
    if args.seconds is not None:
        passthrough += ["--seconds", str(args.seconds)]
    if args.smoke:
        passthrough.append("--smoke")
    children = {}
    results = {}

    def until_pause(name: str) -> None:
        """Relay a child's output until it asks for the next round or ends."""
        for raw in children[name].stdout:
            text = raw.rstrip("\n")
            if text == "READY":
                return
            if text.startswith("{"):
                results[name] = json.loads(text)
            else:
                print(text)
        children.pop(name).wait()

    try:
        for name in names:
            children[name] = subprocess.Popen(
                [sys.executable, __file__, "--workload", name, "--gated", *passthrough],
                stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
            )
            until_pause(name)  # its set-up runs alone
        while children:
            for name in list(children):
                children[name].stdin.write("go\n")
                children[name].stdin.flush()
                until_pause(name)
    finally:
        for child in children.values():
            child.kill()
            child.wait()
    ok = len(results) == len(names) and all(r["correct"] for r in results.values())
    print(json.dumps({"correct": ok, "workloads": results}))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
