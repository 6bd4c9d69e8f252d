"""Ablation: direct all-to-all vs DeltaFS-style 3-hop shuffle routing.

The paper's substrate routes shuffle traffic through per-node
representatives.  This ablation executes both routing modes on real
pipelines and quantifies the trade: 3-hop collapses partially-filled
per-rank-pair batches into full node-pair aggregates (fewer wire RPCs —
exactly what slow manycore progress paths need) at the price of extra
node-local copies.
"""

import pytest

from repro.analysis.reporting import table_artifact
from repro.cluster import SimCluster
from repro.core.formats import FMT_FILTERKV


def _run(routing, nranks=32, ppn=4, records=2000):
    cluster = SimCluster(
        nranks=nranks,
        fmt=FMT_FILTERKV,
        value_bytes=56,
        routing=routing,
        ppn=ppn,
        seed=12,
    )
    return cluster.run_epoch(records)


def test_ablation_routing(report, benchmark):
    rows = []
    stats = {}
    for routing in ("direct", "3hop"):
        st = _run(routing)
        stats[routing] = st
        rows.append(
            [
                routing,
                st.rpc_messages,
                st.local_messages,
                round(st.shuffle_bytes / max(1, st.rpc_messages)),
            ]
        )
    text, data = table_artifact(
        ["routing", "wire RPCs", "local msgs", "avg wire payload B"],
        rows,
        title="Ablation — shuffle routing (32 ranks × 4 per node, FilterKV)",
    )
    report(text, name="ablation_routing", data=data)
    d, t = stats["direct"], stats["3hop"]
    assert t.rpc_messages < d.rpc_messages  # fewer wire messages
    assert t.shuffle_bytes == d.shuffle_bytes  # identical payload bytes
    assert t.local_messages > d.local_messages  # paid in local hops
    # Aggregation fills the wire messages it does send.
    assert t.shuffle_bytes / t.rpc_messages > d.shuffle_bytes / d.rpc_messages
    benchmark(lambda: _run("3hop", nranks=8, records=500))


def test_ablation_routing_scaling(report, benchmark):
    """The message reduction grows with how *partial* per-pair batches are:
    fewer records per rank → bigger win for aggregation."""
    rows = []
    ratios = []
    for records in (500, 2000, 8000):
        d = _run("direct", records=records)
        t = _run("3hop", records=records)
        ratio = d.rpc_messages / t.rpc_messages
        ratios.append(ratio)
        rows.append([records, d.rpc_messages, t.rpc_messages, round(ratio, 2)])
    text, data = table_artifact(
        ["records/rank", "direct RPCs", "3hop RPCs", "reduction"],
        rows,
        title="Ablation — 3-hop advantage vs burst size",
    )
    report(text, name="ablation_routing_scaling", data=data)
    assert ratios[0] >= ratios[-1]  # small bursts benefit most
    assert ratios[0] > 2.0
    benchmark(lambda: _run("direct", nranks=8, records=500))
