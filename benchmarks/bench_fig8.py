"""Fig. 8: write slowdown and RPC counts vs job size (64–640 processes).

The paper's microbenchmark on CMU's Narwhal cluster: every process
generates 960 MB of 64-byte KV pairs (15 M records), partitions them
online, and the run's *write slowdown* (extra time vs writing raw) is
reported at 50 % and 75 % residual network bandwidth.

Reproduction strategy (DESIGN.md §5): byte/message accounting is measured
by executing the real pipelines on a scaled cluster, validated against the
format specs, and the validated specs drive the calibrated machine model
across the paper's full sweep.
"""

import pytest

from repro.analysis.figures import ascii_series
from repro.analysis.reporting import percent, table_artifact
from repro.cluster import NARWHAL, SimCluster
from repro.core.costmodel import WriteRunConfig, model_write_phase
from repro.core.formats import FMT_BASE, FMT_DATAPTR, FMT_FILTERKV

FORMATS = (FMT_BASE, FMT_DATAPTR, FMT_FILTERKV)
PROCS = (64, 128, 256, 384, 512, 640)
KV_BYTES = 64
DATA_PER_PROC = 960e6


def _cfg(fmt, nprocs, resid):
    return WriteRunConfig(
        fmt=fmt,
        machine=NARWHAL,
        nprocs=nprocs,
        kv_bytes=KV_BYTES,
        data_per_proc=DATA_PER_PROC,
        residual_fraction=resid,
    )


def test_fig8_accounting_validated_by_execution(report, benchmark):
    """Exact per-record bytes from real pipelines match the model's specs."""
    rows = []
    for fmt in FORMATS:
        cluster = SimCluster(
            nranks=16, fmt=fmt, value_bytes=KV_BYTES - 8, seed=5
        )
        st = cluster.run_epoch(8000)
        spec_net = fmt.shuffle_bytes_per_record(KV_BYTES - 8, 16) * 15 / 16
        measured = st.shuffle_bytes_per_record
        rows.append([fmt.name, round(spec_net, 2), round(measured, 2)])
        assert measured == pytest.approx(spec_net, rel=0.03)
    text, data = table_artifact(
        ["format", "spec net B/rec", "executed net B/rec"],
        rows,
        title="Fig. 8 input validation — model specs vs real pipeline execution",
    )
    report(text, name="fig8_validation", data=data)
    benchmark(
        lambda: SimCluster(nranks=4, fmt=FMT_FILTERKV, value_bytes=56, seed=1).run_epoch(2000)
    )


def test_fig8a_rpc_messages(report, benchmark):
    rows = []
    for nprocs in PROCS:
        row = [nprocs]
        for fmt in FORMATS:
            row.append(model_write_phase(_cfg(fmt, nprocs, 0.5)).rpc_messages_total)
        rows.append(row)
    text, data = table_artifact(
        ["processes", "Fmt-Base", "Fmt-DataPtr", "Fmt-FilterKV"],
        rows,
        title="Fig. 8a — total RPC messages exchanged",
    )
    report(text, name="fig8a", data=data)
    # Message counts scale with payload: base ≈ 4× dataptr ≈ 8× filterkv.
    last = rows[-1]
    assert last[1] > 3.5 * last[2] > 6 * last[3] / 2
    benchmark(lambda: model_write_phase(_cfg(FMT_BASE, 640, 0.5)).rpc_messages_total)


@pytest.mark.parametrize("resid,panel", [(0.5, "fig8b"), (0.75, "fig8c")])
def test_fig8bc_write_slowdown(report, benchmark, resid, panel):
    rows = []
    series = {f.name: [] for f in FORMATS}
    for nprocs in PROCS:
        row = [nprocs]
        for fmt in FORMATS:
            s = model_write_phase(_cfg(fmt, nprocs, resid)).slowdown
            series[fmt.name].append(s)
            row.append(percent(s))
        rows.append(row)
    table, data = table_artifact(
        ["processes", "Fmt-Base", "Fmt-DataPtr", "Fmt-FilterKV"],
        rows,
        title=f"Fig. {panel[-2:]} — write slowdown, {int(resid * 100)}% residual bandwidth",
    )
    chart = ascii_series(
        {name: [s * 100 for s in vals] for name, vals in series.items()},
        xlabels=list(PROCS),
        logy=True,
        title="write slowdown (%), log scale",
    )
    report(table + "\n\n" + chart, name=panel, data=data)
    # Paper shape: FilterKV < DataPtr < Base everywhere; base grows steeply.
    for i in range(len(PROCS)):
        assert series["filterkv"][i] < series["dataptr"][i] < series["base"][i]
    assert series["base"][-1] > 4 * series["base"][0]
    assert series["base"][-1] > 5.0  # several hundred percent at 640 procs
    benchmark(lambda: model_write_phase(_cfg(FMT_FILTERKV, 640, resid)).slowdown)
