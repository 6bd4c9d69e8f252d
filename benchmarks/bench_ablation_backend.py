"""Ablation: auxiliary-table backend.

Compares the paper's three aux-table designs — exact pointers, Bloom,
partial-key cuckoo — on the same key→rank workload: space per key, query
amplification, and lookup cost structure.  (`bench_aux_tournament.py`
scores every registered backend, the CSF included.)
"""

import numpy as np

from repro.analysis.reporting import table_artifact
from repro.core.auxtable import make_aux_table

NPARTS = 256


def _workload(n, seed=5):
    rng = np.random.default_rng(seed)
    keys = rng.integers(0, 2**63, size=n, dtype=np.uint64)
    ranks = rng.integers(0, NPARTS, size=n, dtype=np.uint64)
    return keys, ranks


def test_ablation_aux_backends(report, benchmark):
    rows = []
    metrics = {}
    n = 50_000
    keys, ranks = _workload(n)
    for backend in ("exact", "bloom", "cuckoo"):
        t = make_aux_table(backend, NPARTS, capacity_hint=n, seed=2)
        t.insert_many(keys, ranks)
        sample = keys[:600]
        amp = float(t.candidate_counts(sample).mean())
        metrics[backend] = (t.bytes_per_key, amp)
        rows.append([backend, n, round(t.bytes_per_key, 2), round(amp, 2)])
    text, data = table_artifact(
        ["backend", "keys", "bytes/key", "partitions/query"],
        rows,
        title=f"Ablation — aux-table backends at N={NPARTS} partitions",
    )
    report(text, name="ablation_backend", data=data)
    # Exact: 12 B, amplification 1.  Compact backends: ≤ ~2.5 B with small
    # amplification; cuckoo needs no exhaustive probing (its amp ≈ flat 2).
    assert metrics["exact"] == (12.0, 1.0)
    for backend in ("bloom", "cuckoo"):
        b, a = metrics[backend]
        assert b < 3.5, backend
        assert a < 4.0, backend
    keys, ranks = _workload(20_000, seed=6)
    t = make_aux_table("cuckoo", NPARTS, capacity_hint=20_000)
    t.insert_many(keys, ranks)
    benchmark(lambda: t.candidate_counts(keys[:500]))
