"""Process-parallel ingest: rank pipelines fanned across the worker pool.

`SimCluster(parallel="process", pool=...)` buffers `put` calls instead of
executing them, then `run_parallel_epoch` replays the epoch in two pool
phases mirroring the pipeline's two sides:

1. **Writers** — each worker runs the real `WriterState` for a stripe of
   ranks over a `MirrorDevice`, consuming the buffered batches (shipped as
   one columnar shared-memory blob per task).  Instead of delivering
   envelopes, workers record them grouped *per put call* (plus one flush
   group from `finish`).
2. **Receivers** — the parent replays the recorded groups through its own
   router in the exact global order the `put` calls happened (and then
   flush groups in rank order, as `finish_epoch` would), which both charges
   the wire counters identically and produces per-destination envelope
   streams.  Those streams ship to receiver workers running the real
   `ReceiverState` per rank.

Because every worker executes the unmodified pipeline code on batches in
the same order the serial path would, the produced extents are
byte-identical to ``parallel="off"``; worker I/O counters and metric
registries travel back and fold into the parent's, so the *accounting* is
identical too.  That equivalence is what the tier-1 parallel suite pins.

Restrictions: ``routing="direct"`` only (the 3-hop aggregator's buffers
are cross-rank state that cannot be striped), and no fault injection
(``faults=`` arms a device the workers cannot see).
"""

from __future__ import annotations

from collections import deque

import numpy as np

from ..core.formats import FORMATS
from ..core.kv import KVBatch
from ..core.partitioning import HashPartitioner
from ..core.pipeline import Envelope, ReceiverState, WriterState, aux_table_name
from ..core.auxtable import aux_from_blob
from ..obs import NULL_REGISTRY, MetricsRegistry
from ..storage.envelope import unseal
from ..storage.log import ValueLog
from .shm import BlobMap, MirrorDevice, ShmBlob, pack_arrays, unpack_arrays

__all__ = ["run_parallel_epoch"]


class _WriterView:
    """Post-epoch stand-in for a `WriterState`: just the numbers stats reads."""

    __slots__ = ("rank", "records_written", "local_storage_bytes")

    def __init__(self, rank, records_written, local_storage_bytes):
        self.rank = rank
        self.records_written = records_written
        self.local_storage_bytes = local_storage_bytes


class _ReceiverView:
    """Post-epoch stand-in for a `ReceiverState`: the aux table and counts."""

    __slots__ = ("rank", "aux", "records_received")

    def __init__(self, rank, aux, records_received):
        self.rank = rank
        self.aux = aux
        self.records_received = records_received


def _worker_metrics(cfg) -> tuple[MetricsRegistry | None, MetricsRegistry | None]:
    """(pipeline registry, device registry) mirroring the parent's wiring:
    one object when the cluster and its device share a registry, separate
    ones when the device carries its own (the store case)."""
    metrics = MetricsRegistry("pool-worker") if cfg["metrics_on"] else None
    if cfg["shared_metrics"]:
        return metrics, metrics
    dev = MetricsRegistry("pool-worker-dev") if cfg["dev_metrics_on"] else None
    return metrics, dev


def _writer_task(p: dict) -> dict:
    """Pool task: run `WriterState` for a stripe of ranks, recording envelopes."""
    cfg = p["cfg"]
    fmt = FORMATS[cfg["fmt"]]
    metrics, dev_metrics = _worker_metrics(cfg)
    device = MirrorDevice(cfg["profile"], metrics=dev_metrics)
    for name, base in p["vlog_base"].items():
        device.set_base(name, base)
    partitioner = HashPartitioner(cfg["nranks"])
    arrays = (
        unpack_arrays(p["batches"].view(), p["array_metas"]) if p["array_metas"] else []
    )
    shipped: list[Envelope] = []
    per_rank: dict[int, dict] = {}
    payload_chunks: list = []
    for i, rank in enumerate(p["ranks"]):
        keys, values = arrays[2 * i], arrays[2 * i + 1]
        w = WriterState(
            rank,
            fmt,
            partitioner,
            device,
            cfg["value_bytes"],
            send=shipped.append,
            batch_bytes=cfg["batch_bytes"],
            epoch=cfg["epoch"],
            block_size=cfg["block_size"],
            spill_budget_bytes=cfg["spill_budget_bytes"],
            bulk=cfg["bulk"],
            metrics=metrics,
        )
        groups: list[list[tuple[int, int, int]]] = []

        def _take_group():
            metas = [(e.dest, e.nrecords, len(e.payload)) for e in shipped]
            payload_chunks.extend(e.payload for e in shipped)
            shipped.clear()
            groups.append(metas)

        off = 0
        for n in p["counts"][i]:
            w.put_batch(KVBatch(keys[off : off + n], values[off : off + n]))
            off += n
            _take_group()
        w.finish()
        _take_group()  # flush group, replayed by the parent in rank order
        per_rank[rank] = {
            "groups": groups,
            "records_written": w.records_written,
            "local_storage_bytes": w.local_storage_bytes,
        }
    out = {
        "ranks": p["ranks"],
        "per_rank": per_rank,
        "payload": ShmBlob.pack(payload_chunks),
        "extents": BlobMap.pack(device.local_extents()),
        "append_names": set(device._base),
        "io": device.counters,
        "metrics": metrics,
        "dev_metrics": dev_metrics if dev_metrics is not metrics else None,
    }
    p["batches"].release()  # detach quietly before GC tears the frame down
    return out


def _receiver_task(p: dict) -> dict:
    """Pool task: run `ReceiverState` for a stripe of ranks over its streams."""
    cfg = p["cfg"]
    fmt = FORMATS[cfg["fmt"]]
    metrics, dev_metrics = _worker_metrics(cfg)
    device = MirrorDevice(cfg["profile"], metrics=dev_metrics)
    view = p["envs"].view() if p["envs"] is not None else memoryview(b"")
    off = 0
    received = {}
    for rank in p["ranks"]:
        r = ReceiverState(
            rank,
            cfg["nranks"],
            fmt,
            device,
            cfg["value_bytes"],
            epoch=cfg["epoch"],
            block_size=cfg["block_size"],
            aux_seed=cfg["aux_seed"],
            bulk=cfg["bulk"],
            aux_policy=cfg["aux_policy"],
            metrics=metrics,
        )
        for src, nrec, nb in p["env_metas"][rank]:
            r.deliver(Envelope(src, rank, view[off : off + nb], nrec))
            off += nb
        r.finish()
        received[rank] = r.records_received
    out = {
        "ranks": p["ranks"],
        "received": received,
        "extents": BlobMap.pack(device.local_extents()),
        "io": device.counters,
        "metrics": metrics,
        "dev_metrics": dev_metrics if dev_metrics is not metrics else None,
    }
    p["envs"].release()
    return out


def run_parallel_epoch(cluster) -> None:
    """Execute a buffered `SimCluster` epoch across ``cluster.pool``."""
    pool = cluster.pool
    nranks = cluster.nranks
    nworkers = min(pool.workers, nranks)
    stripes = [list(range(w, nranks, nworkers)) for w in range(nworkers)]
    metrics_on = cluster.metrics is not NULL_REGISTRY
    cfg = {
        "fmt": cluster.fmt.name,
        "nranks": nranks,
        "value_bytes": cluster.value_bytes,
        "batch_bytes": cluster.batch_bytes,
        "epoch": cluster.epoch,
        "block_size": cluster._block_size,
        "spill_budget_bytes": cluster._spill_budget_bytes,
        "bulk": cluster.bulk,
        "profile": cluster.device.profile,
        "metrics_on": metrics_on,
        "dev_metrics_on": cluster.device.metrics is not NULL_REGISTRY,
        "shared_metrics": cluster.metrics is cluster.device.metrics,
        "aux_seed": cluster.seed,
        "aux_policy": cluster.aux_policy,
    }

    # -- phase 1: writers --------------------------------------------------
    payloads = []
    for ranks in stripes:
        arrays, counts = [], []
        for rank in ranks:
            batches = cluster._pending[rank]
            counts.append([len(b) for b in batches])
            if batches:
                arrays.append(np.concatenate([b.keys for b in batches]))
                arrays.append(np.concatenate([b.values for b in batches], axis=0))
            else:
                arrays.append(np.zeros(0, dtype=np.uint64))
                arrays.append(np.zeros((0, cluster.value_bytes), dtype=np.uint8))
        metas, chunks = pack_arrays(arrays)
        blob = ShmBlob.pack(chunks)
        if blob.shared:
            pool.note_shm_bytes(blob.nbytes)
        vlog_base = {}
        if cluster.fmt.name == "dataptr":
            for rank in ranks:
                name = ValueLog.filename(rank)
                vlog_base[name] = (
                    cluster.device.file_size(name) if cluster.device.exists(name) else 0
                )
        payloads.append(
            {
                "cfg": cfg,
                "ranks": ranks,
                "counts": counts,
                "array_metas": metas,
                "batches": blob,
                "vlog_base": vlog_base,
            }
        )
    results = pool.run(_writer_task, payloads)
    for p in payloads:
        if p["batches"].shared:
            pool.drop_shm_bytes(p["batches"].nbytes)
        p["batches"].release(unlink=True)

    # -- replay: exact serial envelope order through the parent router -----
    group_queues: dict[int, deque] = {}
    for res in results:
        pv = res["payload"].view()
        off = 0
        for rank in res["ranks"]:
            info = res["per_rank"][rank]
            groups = deque()
            for gmeta in info["groups"]:
                envs = []
                for dest, nrec, nb in gmeta:
                    envs.append(Envelope(rank, dest, pv[off : off + nb], nrec))
                    off += nb
                groups.append(envs)
            group_queues[rank] = groups
    streams: list[list[Envelope]] = [[] for _ in range(nranks)]
    cluster._parallel_streams = streams
    try:
        for rank in cluster._put_order:
            for env in group_queues[rank].popleft():
                cluster.router.send(env)
        for rank in range(nranks):  # finish_epoch flushes writers in rank order
            for env in group_queues[rank].popleft():
                cluster.router.send(env)
    finally:
        cluster._parallel_streams = None

    writer_views = {}
    for res in results:
        ext = res["extents"]
        for name in ext.names():
            cluster.device.adopt_extent(
                name, ext.get(name), append=name in res["append_names"]
            )
        ext.release(unlink=True)
        cluster.device.absorb_counters(res["io"])
        if res["metrics"] is not None:
            cluster.metrics.merge(res["metrics"])
        if res["dev_metrics"] is not None:
            cluster.device.metrics.merge(res["dev_metrics"])
        for rank in res["ranks"]:
            info = res["per_rank"][rank]
            writer_views[rank] = _WriterView(
                rank, info["records_written"], info["local_storage_bytes"]
            )

    # -- phase 2: receivers ------------------------------------------------
    payloads2 = []
    for ranks in stripes:
        env_metas, chunks = {}, []
        for rank in ranks:
            ms = []
            for env in streams[rank]:
                ms.append((env.src, env.nrecords, len(env.payload)))
                chunks.append(env.payload)
            env_metas[rank] = ms
        blob = ShmBlob.pack(chunks)  # copies out of the phase-1 payload blobs
        if blob.shared:
            pool.note_shm_bytes(blob.nbytes)
        payloads2.append(
            {"cfg": cfg, "ranks": ranks, "env_metas": env_metas, "envs": blob}
        )
    for res in results:  # phase-2 blobs hold copies; the originals can go
        res["payload"].release(unlink=True)
    results2 = pool.run(_receiver_task, payloads2)
    for p in payloads2:
        if p["envs"].shared:
            pool.drop_shm_bytes(p["envs"].nbytes)
        p["envs"].release(unlink=True)

    received = {}
    for res in results2:
        ext = res["extents"]
        for name in ext.names():
            cluster.device.adopt_extent(name, ext.get(name))
        ext.release(unlink=True)
        cluster.device.absorb_counters(res["io"])
        if res["metrics"] is not None:
            cluster.metrics.merge(res["metrics"])
        if res["dev_metrics"] is not None:
            cluster.device.metrics.merge(res["dev_metrics"])
        received.update(res["received"])

    # -- rebuild in-memory views the parent hands out ----------------------
    receiver_views = []
    for rank in range(nranks):
        aux = None
        if cluster.fmt.name == "filterkv":
            # Reload the sealed blob bit-exactly, without charging reads the
            # serial path never performs (its aux object stays in memory).
            raw = cluster.device._require(aux_table_name(cluster.epoch, rank)).getvalue()
            aux = aux_from_blob(
                unseal(raw),
                metrics=cluster.metrics if metrics_on else None,
                metric_labels={"rank": str(rank)},
            )
        receiver_views.append(_ReceiverView(rank, aux, received.get(rank, 0)))
    cluster.writers = [writer_views[r] for r in range(nranks)]
    cluster.receivers = receiver_views
    cluster._pending = [[] for _ in range(nranks)]
    cluster._put_order = []
