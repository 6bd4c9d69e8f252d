"""Aux-backend tournament: every registered backend, scored head-to-head.

The sealed key→rank set an epoch commits is exactly a static maplet, so
the aux table's backend is a per-epoch *choice*, not a format constant.
This bench is the measurement behind that choice (`AUTO_BACKENDS` leads
with its winner): every backend in `AUX_BACKENDS` builds the same key→rank
workload and is scored on

* **bits/key** — sealed index size (what the router tier must hold),
* **partitions/query** — amplification over present keys,
* **build time** — insert + finalize, per key (best of three builds),
* **bulk lookups/s** — `candidates_many` throughput,

under two query mixes: *uniform* (every present key once) and *zipfian*
(skewed repetition of present keys — the serving tier's distribution).
Space and amplification are distribution-free; the zipfian arm exists to
show lookup throughput holds up under the skew the serving bench uses.

A second table times one sealed table the way a store epoch builds it
(`build_sealed_aux` at N=16, the e2e workloads' rank count) for the cuckoo
and the CSF, in one process, at 256 and 4 096 keys per partition.

Acceptance gates:

* the CSF backend's bits/key ≤ every *dynamic* filter backend (bloom,
  cuckoo) at equal-or-fewer partitions/query on the uniform workload,
* the CSF builds at ≤ 2.5× the cuckoo's µs/key in the same run (it is
  every store's default seal, so its build is on the ingest path), and
* no backend has a false negative: every present key finds a candidate.

``REPRO_AUX_SMOKE=1`` shrinks the key set for CI.  JSON rows carry
``name``/``config`` identity plus ``bits_per_key``/``partitions_per_query``
metric keys, which `scripts/check_bench_regress.py` gates lower-is-better,
and the CSF rows a ``build_speedup_vs_cuckoo`` (cuckoo µs/key over the
CSF's, same run) that it gates higher-is-better: a per-key build loop
would cut it ~10×.
"""

import os
import time

import numpy as np

from repro.analysis.reporting import table_artifact
from repro.core.auxtable import AUX_BACKENDS, build_sealed_aux, make_aux_table

SMOKE = os.environ.get("REPRO_AUX_SMOKE", "0") == "1"

NPARTS = 256
NKEYS = 4_000 if SMOKE else 50_000
DYNAMIC_BACKENDS = ("bloom", "cuckoo")
BUILD_REPS = 3
MAX_CSF_BUILD_VS_CUCKOO = 2.5
SEAL_NPARTS, SEAL_KEYS, SEAL_REPS = 16, (256, 4096), 7


def _workload(n, seed=5):
    rng = np.random.default_rng(seed)
    keys = rng.choice(np.arange(1, 8 * n, dtype=np.uint64), size=n, replace=False)
    ranks = rng.integers(0, NPARTS, size=n, dtype=np.uint64)
    return keys, ranks


def _zipf_queries(keys, n, seed=9, alpha=1.1):
    """Zipfian draws over the present-key population (rank-skewed)."""
    rng = np.random.default_rng(seed)
    idx = rng.zipf(alpha, size=4 * n) - 1
    idx = idx[idx < keys.size][:n]
    return keys[idx]


def _score(backend, keys, ranks, queries):
    build_s = float("inf")
    for _ in range(BUILD_REPS):
        t = make_aux_table(backend, NPARTS, capacity_hint=keys.size, seed=2)
        t0 = time.perf_counter()
        t.insert_many(keys, ranks)
        t.finalize()
        build_s = min(build_s, time.perf_counter() - t0)
    t1 = time.perf_counter()
    counts, _ = t.candidates_many(queries)
    lookup_s = time.perf_counter() - t1
    return {
        "name": backend,
        "keys": int(keys.size),
        "bits_per_key": round(t.size_bytes * 8 / keys.size, 3),
        "partitions_per_query": round(float(counts.mean()), 3),
        "build_s_per_key_us": round(build_s / keys.size * 1e6, 3),
        "lookups_per_s": round(queries.size / max(lookup_s, 1e-9)),
    }


def _seal_costs():
    """Best-of-`SEAL_REPS` `build_sealed_aux` seconds per table, cuckoo and
    CSF interleaved in one process, at each of `SEAL_KEYS` keys."""
    rows = []
    for n in SEAL_KEYS:
        keys, _ = _workload(n, seed=n)
        ranks = np.random.default_rng(n).integers(0, SEAL_NPARTS, size=n, dtype=np.uint64)
        best = {"cuckoo": float("inf"), "csf": float("inf")}
        for rep in range(SEAL_REPS):
            for backend in best:
                t0 = time.perf_counter()
                build_sealed_aux(keys, ranks, SEAL_NPARTS, (backend,), seed=rep)
                best[backend] = min(best[backend], time.perf_counter() - t0)
        rows.append([n, round(best["cuckoo"] * 1e6), round(best["csf"] * 1e6),
                     round(best["csf"] / best["cuckoo"], 2)])
    return rows


def test_aux_backend_tournament(report, benchmark):
    results = {}
    rows = []
    keys, ranks = _workload(NKEYS)
    for dist in ("uniform", "zipfian"):
        queries = keys if dist == "uniform" else _zipf_queries(keys, NKEYS)
        for backend in sorted(AUX_BACKENDS):
            r = _score(backend, keys, ranks, queries)
            r["config"] = dist
            results[(dist, backend)] = r
            rows.append(
                [
                    dist,
                    backend,
                    r["keys"],
                    r["bits_per_key"],
                    r["partitions_per_query"],
                    r["build_s_per_key_us"],
                    f"{r['lookups_per_s']:,}",
                ]
            )
    for dist in ("uniform", "zipfian"):
        csf, cuckoo = results[(dist, "csf")], results[(dist, "cuckoo")]
        csf["build_speedup_vs_cuckoo"] = round(
            cuckoo["build_s_per_key_us"] / max(csf["build_s_per_key_us"], 1e-3), 3
        )
    text, data = table_artifact(
        [
            "config",
            "name",
            "keys",
            "bits_per_key",
            "partitions_per_query",
            "build us/key",
            "lookups/s",
        ],
        rows,
        title=f"Aux-backend tournament at N={NPARTS} partitions"
        + (" (smoke scale)" if SMOKE else ""),
    )
    # Row dicts (not just table cells) go in the artifact so the regress
    # gate can match rows by name/config identity across runs.
    data["rows_detailed"] = [results[k] for k in sorted(results)]
    seal_text, seal_data = table_artifact(
        ["keys", "cuckoo us", "csf us", "csf / cuckoo"],
        _seal_costs(),
        title=f"Seal cost per table at N={SEAL_NPARTS} (build_sealed_aux, best of {SEAL_REPS})",
    )
    data["seal_cost"] = seal_data
    report(text + "\n\n" + seal_text, name="aux_tournament", data=data)

    # The CSF beats every dynamic filter on space without paying
    # for it in fan-out (present keys decode to exactly one partition).
    csf = results[("uniform", "csf")]
    for rival in DYNAMIC_BACKENDS:
        dyn = results[("uniform", rival)]
        assert csf["bits_per_key"] <= dyn["bits_per_key"], (rival, csf, dyn)
        assert csf["partitions_per_query"] <= dyn["partitions_per_query"], (rival, csf, dyn)
    # Cheap enough to be every store's default seal.
    for dist in ("uniform", "zipfian"):
        csf, cuckoo = results[(dist, "csf")], results[(dist, "cuckoo")]
        assert (
            csf["build_s_per_key_us"] <= MAX_CSF_BUILD_VS_CUCKOO * cuckoo["build_s_per_key_us"]
        ), (dist, csf, cuckoo)
    # No false negatives anywhere: every present key finds ≥ 1 candidate.
    for r in results.values():
        assert r["partitions_per_query"] >= 1.0, r

    # Timed kernel: bulk candidate resolution through the winner.
    t = make_aux_table("csf", NPARTS, capacity_hint=NKEYS, seed=2)
    t.insert_many(keys, ranks)
    t.finalize()
    benchmark(lambda: t.candidates_many(keys[:2000]))
