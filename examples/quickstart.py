#!/usr/bin/env python3
"""Quickstart: partition one output burst with FilterKV and query it back.

Runs a 16-process simulated job where every process generates random
64-byte KV pairs, partitions them online with the FilterKV format (values
stay local, keys shuffle into compact cuckoo aux tables), and then answers
point queries through the auxiliary tables.

Run:  python examples/quickstart.py
"""

import numpy as np

from repro import FMT_FILTERKV, SimCluster
from repro.analysis.reporting import banner, render_table
from repro.core.kv import random_kv_batch

NRANKS = 16
RECORDS_PER_RANK = 20_000
VALUE_BYTES = 56  # 64-byte KV pairs, the paper's staple workload


def main() -> None:
    print(banner("FilterKV quickstart"))
    cluster = SimCluster(
        nranks=NRANKS,
        fmt=FMT_FILTERKV,
        value_bytes=VALUE_BYTES,
        seed=42,
    )
    # Each rank generates its own burst of random 64-byte KV pairs.
    batches = [
        random_kv_batch(RECORDS_PER_RANK, VALUE_BYTES, np.random.default_rng(1000 + r))
        for r in range(NRANKS)
    ]
    for rank, batch in enumerate(batches):
        cluster.put(rank, batch)
    cluster.finish_epoch()
    stats = cluster.stats

    print(
        render_table(
            ["metric", "value"],
            [
                ["records partitioned", stats.records],
                ["RPC messages", stats.rpc_messages],
                ["bytes shuffled / record", round(stats.shuffle_bytes_per_record, 2)],
                ["bytes stored / record", round(stats.storage_bytes_per_record, 2)],
                ["aux index bytes / key", round(stats.aux_bytes / stats.records, 3)],
            ],
            title="\nwrite-phase accounting",
        )
    )

    # Query keys that rank 0 generated.
    batch = batches[0]
    engine = cluster.query_engine()
    rows = []
    for i in (0, 123, 4567):
        key = int(batch.keys[i])
        value, cost = engine.get(key)
        assert value == batch.value_of(i), "read your writes!"
        rows.append(
            [f"{key:#018x}", cost.partitions_searched, cost.reads, cost.bytes_read]
        )
    print(
        render_table(
            ["key", "partitions", "storage reads", "bytes fetched"],
            rows,
            title="\npoint queries (lossy aux tables → ≥1 candidate partitions)",
        )
    )
    print("\nOK: all queried values matched what was written.")


if __name__ == "__main__":
    main()
