#!/usr/bin/env python3
"""In-situ indexing of a VPIC-style particle simulation (paper §V-B).

A reduced magnetic-reconnection-style run: particles drift across rank
domains; every few steps each rank dumps the 64-byte state of the
particles it currently holds.  Each dump epoch is partitioned in-situ with
FilterKV, so afterwards a scientist can pull one particle's *trajectory* —
its state at every timestep — with a handful of reads per epoch instead of
scanning the whole dataset.

Run:  python examples/vpic_insitu.py
"""

from repro.apps.vpic import VPICSimulation
from repro.analysis.reporting import banner, render_table
from repro.cluster import SimCluster
from repro.core import FMT_FILTERKV

NRANKS = 8
PARTICLES_PER_RANK = 5_000
EPOCHS = 4
STEPS_PER_EPOCH = 3


def main() -> None:
    print(banner("VPIC + FilterKV in-situ indexing"))
    sim = VPICSimulation(NRANKS, PARTICLES_PER_RANK, drift=0.15, seed=7)
    target = int(sim.ids[1234])  # the particle our scientist cares about

    epochs = []  # (cluster, engine) per dump
    rows = []
    for epoch in range(EPOCHS):
        owners_before = sim.owner_of()
        sim.step(STEPS_PER_EPOCH)
        cluster = SimCluster(
            nranks=NRANKS,
            fmt=FMT_FILTERKV,
            value_bytes=56,
            epoch=epoch,
            seed=epoch,
        )
        for rank, batch in enumerate(sim.dump()):
            cluster.put(rank, batch)
        cluster.finish_epoch()
        st = cluster.stats
        epochs.append(cluster)
        rows.append(
            [
                epoch,
                sim.timestep,
                f"{sim.migration_fraction(owners_before) * 100:.1f}%",
                st.rpc_messages,
                round(st.shuffle_bytes_per_record, 2),
                round(st.aux_bytes / st.records, 2),
            ]
        )
    print(
        render_table(
            ["epoch", "t", "migrated", "msgs", "net B/rec", "aux B/key"],
            rows,
            title="\nper-epoch in-situ partitioning",
        )
    )

    # Trajectory query: read the particle back from every epoch.
    rows = []
    for epoch, cluster in enumerate(epochs):
        value, cost = cluster.query_engine().get(target)
        assert cost.found, "particles never vanish"
        import numpy as np

        state = np.frombuffer(value, dtype="<f4")
        rows.append(
            [epoch, f"{state[0]:.3f}", f"{state[1]:+.3f}", cost.partitions_searched, cost.reads]
        )
    print(
        render_table(
            ["epoch", "x", "v", "partitions", "reads"],
            rows,
            title=f"\ntrajectory of particle {target:#x}",
        )
    )
    print("\nOK: trajectory recovered from every epoch.")


if __name__ == "__main__":
    main()
