#!/usr/bin/env python3
"""Compare the three partitioning formats on one workload (paper Fig. 3).

Runs Fmt-Base, Fmt-DataPtr, and Fmt-FilterKV over the same random KV burst
on a simulated cluster, then projects the measured per-record costs onto
the Narwhal machine model to show the end-to-end write slowdowns the paper
reports in Fig. 8.

Run:  python examples/format_comparison.py
"""

from repro.analysis.reporting import banner, percent, render_table
from repro.cluster import NARWHAL, SimCluster
from repro.core import FMT_BASE, FMT_DATAPTR, FMT_FILTERKV
from repro.core.costmodel import WriteRunConfig, model_write_phase

NRANKS = 16
RECORDS = 20_000
VALUE_BYTES = 56


def main() -> None:
    print(banner("Fmt-Base vs Fmt-DataPtr vs Fmt-FilterKV"))
    rows = []
    for fmt in (FMT_BASE, FMT_DATAPTR, FMT_FILTERKV):
        cluster = SimCluster(
            nranks=NRANKS,
            fmt=fmt,
            value_bytes=VALUE_BYTES,
            seed=1,
        )
        st = cluster.run_epoch(RECORDS)
        # Project the same format onto a 256-process Narwhal job (Fig. 8's
        # midpoint) at 50 % residual bandwidth.
        model = model_write_phase(
            WriteRunConfig(
                fmt=fmt,
                machine=NARWHAL,
                nprocs=256,
                kv_bytes=8 + VALUE_BYTES,
                data_per_proc=960e6,
                residual_fraction=0.5,
            )
        )
        rows.append(
            [
                fmt.name,
                st.rpc_messages,
                round(st.shuffle_bytes_per_record, 2),
                round(st.storage_bytes_per_record, 2),
                percent(model.slowdown),
                model.bottleneck,
            ]
        )
    print(
        render_table(
            ["format", "msgs", "net B/rec", "disk B/rec", "slowdown@256p", "bottleneck"],
            rows,
            title="\nmeasured per-record costs → modeled Narwhal slowdown",
        )
    )
    print(
        "\nReading: FilterKV ships the fewest bytes (keys only) while keeping"
        "\nstorage near the raw data size — base floods the network, DataPtr"
        "\nfloods storage with 12-byte pointers."
    )


if __name__ == "__main__":
    main()
