"""Aux-backend tournament: every registered backend, scored head-to-head.

The sealed key→rank set an epoch commits is exactly a static maplet, so
the aux table's backend is a per-epoch *choice*, not a format constant.
This bench is the measurement behind that choice (`AUTO_BACKENDS` leads
with its winner): every backend in `AUX_BACKENDS` builds the same key→rank
workload and is scored on

* **bits/key** — sealed index size (what the router tier must hold),
* **partitions/query** — amplification over present keys,
* **build time** — insert + finalize, per key,
* **bulk lookups/s** — `candidates_many` throughput,

under two query mixes: *uniform* (every present key once) and *zipfian*
(skewed repetition of present keys — the serving tier's distribution).
Space and amplification are distribution-free; the zipfian arm exists to
show lookup throughput holds up under the skew the serving bench uses.

Acceptance gates:

* the CSF backend's bits/key ≤ every *dynamic* filter backend (bloom,
  cuckoo) at equal-or-fewer partitions/query on the uniform workload, and
* no backend has a false negative: every present key finds a candidate.

``REPRO_AUX_SMOKE=1`` shrinks the key set for CI.  JSON rows carry
``name``/``config`` identity plus ``bits_per_key``/``partitions_per_query``
metric keys, which `scripts/check_bench_regress.py` gates lower-is-better.
"""

import os
import time

import numpy as np

from repro.analysis.reporting import table_artifact
from repro.core.auxtable import AUX_BACKENDS, make_aux_table

SMOKE = os.environ.get("REPRO_AUX_SMOKE", "0") == "1"

NPARTS = 256
NKEYS = 4_000 if SMOKE else 50_000
DYNAMIC_BACKENDS = ("bloom", "cuckoo")


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
    t = make_aux_table(backend, NPARTS, capacity_hint=keys.size, seed=2)
    t0 = time.perf_counter()
    t.insert_many(keys, ranks)
    t.finalize()
    build_s = time.perf_counter() - t0
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
    report(text, name="aux_tournament", data=data)

    # The CSF beats every dynamic filter on space without paying
    # for it in fan-out (present keys decode to exactly one partition).
    csf = results[("uniform", "csf")]
    for rival in DYNAMIC_BACKENDS:
        dyn = results[("uniform", rival)]
        assert csf["bits_per_key"] <= dyn["bits_per_key"], (rival, csf, dyn)
        assert csf["partitions_per_query"] <= dyn["partitions_per_query"], (rival, csf, dyn)
    # No false negatives anywhere: every present key finds ≥ 1 candidate.
    for r in results.values():
        assert r["partitions_per_query"] >= 1.0, r

    # Timed kernel: bulk candidate resolution through the winner.
    t = make_aux_table("csf", NPARTS, capacity_hint=NKEYS, seed=2)
    t.insert_many(keys, ranks)
    t.finalize()
    benchmark(lambda: t.candidates_many(keys[:2000]))
