"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``info``     — package, module, and machine inventory;
* ``compare``  — run all three formats on a simulated cluster and print
  the measured network/storage/message costs;
* ``metrics``  — run an instrumented simulation and emit the full
  metrics registry as JSON or JSONL;
* ``advise``   — recommend a format for a deployment (machine, job size,
  KV size, read weight);
* ``recover``  — crash-consistency demo: write epochs under fault
  injection, crash mid-epoch, recover, verify what survived;
* ``compact``  — read-amplification demo: write overlapping epochs,
  measure per-query device reads, compact, verify byte-equality and
  re-measure;
* ``serve``    — build a synthetic dataset and serve point queries over
  the sealed-frame TCP protocol (``repro.serve``);
* ``loadgen``  — drive a serving tier with Zipfian/uniform load and
  print client-observed QPS, latency quantiles, and shed counts;
  ``--trace-sample`` traces a fraction of requests end-to-end and
  ``--trace-out``/``--chrome-trace-out`` export the slowest span trees;
* ``top``      — live dashboard against a running ``repro serve``:
  trailing-window QPS, per-status rates, latency quantiles, and the
  most recent sampled request traces; against a ``repro fleet --serve``
  front end it renders the router dashboard (failovers, per-shard
  breakers);
* ``fleet``    — sharded serving demo (``repro.fleet``): build an
  N-shard fleet with R-way replication, drive it through the
  ring-order router, kill a shard under load, verify byte-correct
  answers through failover, recover, and re-verify; ``--serve`` mounts
  the router behind the TCP front end instead;
* ``table1``   — print the paper's Table I from the Bloom math;
* ``machines`` — list the built-in machine models.
"""

from __future__ import annotations

import argparse
import math
import sys

import numpy as np

__all__ = ["main", "build_parser"]


def _at_least(floor: int):
    """An argparse type: an integer >= ``floor``, else a usage error that
    names the flag (not a traceback from deep in the run)."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
        if value < floor:
            raise argparse.ArgumentTypeError(f"must be >= {floor}, got {value}")
        return value

    return parse


def _float_where(test, want: str):
    """An argparse type: a number for which ``test`` holds, else a usage
    error saying it must be ``want``."""

    def parse(text: str) -> float:
        try:
            value = float(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected a number, got {text!r}") from None
        if not test(value):
            raise argparse.ArgumentTypeError(f"must be {want}, got {value}")
        return value

    return parse


_RATE = _float_where(lambda v: 0.0 <= v <= 1.0, "a rate in [0, 1]")
_SECONDS = _float_where(lambda v: 0.0 < v < math.inf, "a finite number of seconds > 0")


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="repro",
        description="FilterKV: compact filters for fast online data partitioning "
        "(CLUSTER'19 reproduction)",
    )
    sub = p.add_subparsers(dest="command", required=True)

    sub.add_parser("info", help="package and experiment inventory")
    sub.add_parser("machines", help="list machine models")
    sub.add_parser("table1", help="print Table I (Bloom bytes/key bounds)")

    c = sub.add_parser("compare", help="run the three formats on a simulated cluster")
    c.add_argument("--ranks", type=_at_least(2), default=8)
    c.add_argument("--records", type=_at_least(1), default=10_000, help="records per rank")
    c.add_argument("--value-bytes", type=int, default=56)
    c.add_argument("--seed", type=int, default=0)

    m = sub.add_parser("metrics", help="run an instrumented simulation, emit telemetry")
    m.add_argument(
        "--format",
        dest="fmt",
        choices=["base", "dataptr", "filterkv", "all"],
        default="all",
    )
    m.add_argument("--ranks", type=_at_least(2), default=4)
    m.add_argument("--records", type=_at_least(1), default=5_000, help="records per rank")
    m.add_argument("--value-bytes", type=int, default=56)
    m.add_argument("--seed", type=int, default=0)
    m.add_argument("--queries", type=int, default=256, help="point queries to sample")
    m.add_argument("--out", metavar="FILE", default="-", help="output file ('-' = stdout)")
    m.add_argument(
        "--jsonl", action="store_true", help="one series per line instead of a document"
    )

    r = sub.add_parser(
        "recover",
        help="demonstrate crash recovery: write epochs, crash, recover, verify",
    )
    r.add_argument("--ranks", type=_at_least(2), default=4)
    r.add_argument("--records", type=_at_least(1), default=2_000, help="records per rank per epoch")
    r.add_argument("--epochs", type=int, default=3)
    r.add_argument("--value-bytes", type=int, default=24)
    r.add_argument("--seed", type=int, default=0)
    r.add_argument(
        "--crash-op",
        type=int,
        default=10,
        help="crash this many device operations into the final epoch",
    )
    r.add_argument(
        "--format",
        dest="fmt",
        choices=["base", "dataptr", "filterkv"],
        default="filterkv",
    )
    r.add_argument(
        "--corrupt",
        action="store_true",
        help="also flip a stored byte in a committed epoch before recovering",
    )
    r.add_argument(
        "--deep", action="store_true", help="verify data-block checksums during recovery"
    )

    c2 = sub.add_parser(
        "compact",
        help="demonstrate epoch compaction: write epochs, compact, verify, re-measure",
    )
    c2.add_argument("--ranks", type=_at_least(2), default=4)
    c2.add_argument(
        "--records", type=_at_least(1), default=2_000, help="records per rank per epoch"
    )
    c2.add_argument("--epochs", type=_at_least(2), default=6)
    c2.add_argument("--value-bytes", type=int, default=24)
    c2.add_argument("--seed", type=int, default=0)
    c2.add_argument(
        "--format",
        dest="fmt",
        choices=["base", "dataptr", "filterkv"],
        default="filterkv",
    )
    c2.add_argument(
        "--overlap",
        type=float,
        default=0.25,
        help="fraction of each epoch's keys rewritten from the previous epoch",
    )
    c2.add_argument(
        "--probes",
        type=_at_least(1),
        default=256,
        help="keys sampled for the before/after measurement",
    )

    def _dataset_args(sp, ranks=8, records=2_000):
        sp.add_argument("--ranks", type=_at_least(2), default=ranks)
        sp.add_argument("--records", type=_at_least(1), default=records, help="records per rank")
        sp.add_argument("--epochs", type=int, default=1)
        sp.add_argument("--value-bytes", type=int, default=24)
        sp.add_argument("--seed", type=int, default=0)

    s = sub.add_parser("serve", help="serve point queries over TCP (repro.serve)")
    s.add_argument(
        "--format", dest="fmt", choices=["base", "dataptr", "filterkv"], default="filterkv"
    )
    _dataset_args(s)
    s.add_argument("--host", default="127.0.0.1")
    s.add_argument("--port", type=int, default=0, help="0 = let the OS pick")
    s.add_argument("--max-batch", type=_at_least(1), default=64)
    s.add_argument("--max-inflight", type=_at_least(1), default=1024)
    s.add_argument("--queue-high-watermark", type=_at_least(1), default=512)
    s.add_argument(
        "--trace-sample",
        type=_RATE,
        default=0.0,
        metavar="RATE",
        help="server-side trace sampling rate in [0,1] (client-sampled "
        "requests are always traced)",
    )
    s.add_argument(
        "--stats-window", type=_SECONDS, default=10.0, help="stats_live trailing window (s)"
    )

    lg = sub.add_parser("loadgen", help="drive a serving tier and report latency/QPS")
    lg.add_argument(
        "--format",
        dest="fmt",
        choices=["base", "dataptr", "filterkv", "all"],
        default="all",
    )
    _dataset_args(lg)
    lg.add_argument("--requests", type=_at_least(1), default=5_000)
    lg.add_argument("--mode", choices=["closed", "open"], default="closed")
    lg.add_argument("--concurrency", type=_at_least(1), default=16, help="closed-loop workers")
    lg.add_argument("--rate", type=float, default=20_000.0, help="open-loop arrival QPS")
    lg.add_argument(
        "--distribution", choices=["zipfian", "uniform"], default="zipfian"
    )
    lg.add_argument("--theta", type=float, default=1.0, help="Zipfian skew")
    lg.add_argument("--deadline-ms", type=float, default=None)
    lg.add_argument(
        "--tcp", action="store_true", help="go through the TCP front end, not in-process"
    )
    lg.add_argument("--json-out", metavar="FILE", default=None, help="also write reports as JSON")
    lg.add_argument(
        "--trace-sample",
        type=_RATE,
        default=0.0,
        metavar="RATE",
        help="trace this fraction of requests end-to-end (client span + "
        "server span tree)",
    )
    lg.add_argument(
        "--trace-out",
        metavar="FILE",
        default=None,
        help="write the slowest sampled traces as repro.trace/v1 JSONL",
    )
    lg.add_argument(
        "--chrome-trace-out",
        metavar="FILE",
        default=None,
        help="write the slowest sampled traces as a Chrome trace_event JSON "
        "(load in chrome://tracing or Perfetto)",
    )
    lg.add_argument(
        "--keep-traces", type=int, default=4, help="slowest sampled traces to keep per format"
    )

    t = sub.add_parser("top", help="live dashboard for a running `repro serve`")
    t.add_argument("--host", default="127.0.0.1")
    t.add_argument("--port", type=int, required=True)
    t.add_argument("--interval", type=float, default=2.0, help="refresh period (s)")
    t.add_argument(
        "--iterations",
        type=int,
        default=0,
        help="stop after N refreshes (0 = run until Ctrl-C)",
    )
    t.add_argument("--window", type=_SECONDS, default=None, help="override the stats window (s)")
    t.add_argument("--traces", type=int, default=2, help="recent traces to show per refresh")

    f = sub.add_parser(
        "fleet",
        help="sharded serving demo: ring routing, kill a shard, verify, recover",
    )
    f.add_argument("--shards", type=_at_least(1), default=3)
    f.add_argument("--rf", type=_at_least(1), default=2, help="replicas per key (ring owners)")
    f.add_argument("--ranks", type=_at_least(2), default=4, help="writer ranks per shard")
    f.add_argument(
        "--records", type=_at_least(1), default=8_000, help="records per epoch (fleet-wide)"
    )
    f.add_argument("--epochs", type=int, default=2)
    f.add_argument("--value-bytes", type=int, default=24)
    f.add_argument("--seed", type=int, default=0)
    f.add_argument("--vnodes", type=_at_least(1), default=64, help="ring vnodes per shard")
    f.add_argument(
        "--tcp", action="store_true", help="shards behind real TCP front ends"
    )
    f.add_argument("--requests", type=_at_least(1), default=2_000, help="requests per load burst")
    f.add_argument("--concurrency", type=_at_least(1), default=16, help="closed-loop workers")
    f.add_argument(
        "--distribution", choices=["zipfian", "uniform"], default="zipfian"
    )
    f.add_argument("--theta", type=float, default=1.0, help="Zipfian skew")
    f.add_argument(
        "--kill",
        type=int,
        default=0,
        metavar="SHARD",
        help="shard to crash between bursts (-1 = skip the failure drill)",
    )
    f.add_argument("--json-out", metavar="FILE", default=None, help="also write reports as JSON")
    f.add_argument(
        "--serve",
        action="store_true",
        help="after ingest, mount the router behind the TCP front end and "
        "serve until Ctrl-C (pairs with `repro top`)",
    )
    f.add_argument("--host", default="127.0.0.1")
    f.add_argument("--port", type=int, default=0, help="0 = let the OS pick (--serve)")

    a = sub.add_parser("advise", help="recommend a format for a deployment")
    a.add_argument("--machine", default="narwhal")
    a.add_argument("--procs", type=int, default=256)
    a.add_argument("--kv-bytes", type=int, default=64)
    a.add_argument("--data-per-proc", type=float, default=960e6)
    a.add_argument("--residual", type=float, default=None)
    a.add_argument("--read-weight", type=float, default=0.1)
    return p


def _cmd_info() -> str:
    import repro

    lines = [
        f"repro {repro.__version__} — FilterKV reproduction (IEEE CLUSTER 2019)",
        "subpackages: filters, storage, net, cluster, core, apps, analysis",
        "experiments: Table I, Figs. 1/7/8/9/10/11 (see benchmarks/)",
        "docs: README.md, DESIGN.md, EXPERIMENTS.md",
    ]
    return "\n".join(lines)


def _cmd_machines() -> str:
    from .cluster.machines import MACHINES

    rows = []
    for m in MACHINES.values():
        rows.append(
            f"{m.name:16s} cpu={m.cpu.name:12s} x{m.cpu.cores_per_node:<3d} "
            f"ppn={m.ppn:<3d} transport={m.transport.name:12s} "
            f"storage={m.storage_bw_per_node / 1e6:.0f} MB/s/node"
        )
    return "\n".join(rows)


def _cmd_table1() -> str:
    from .analysis.models import TABLE1_MACHINES
    from .analysis.reporting import render_table

    rows = [
        [m.rank, m.name, f"{m.cores / 1000:.0f}K", round(m.b2(), 2), round(m.b10(), 2)]
        for m in TABLE1_MACHINES
    ]
    return render_table(["rank", "machine", "cores", "b2 B/key", "b10 B/key"], rows)


def _instrumented_run(fmt, ranks, records, value_bytes, seed, queries):
    """One epoch (plus a query sample) with telemetry on.

    Returns the registry: every series the run produced — pipeline,
    aux/filter, storage, reader — including compression counters, which
    flow through the process-wide default registry installed for the
    duration of the run.
    """
    from .cluster.simcluster import SimCluster
    from .core.kv import random_kv_batch
    from .obs import MetricsRegistry, set_default_registry

    registry = MetricsRegistry(fmt.name)
    prev = set_default_registry(registry)
    try:
        cluster = SimCluster(
            nranks=ranks,
            fmt=fmt,
            value_bytes=value_bytes,
            seed=seed,
            metrics=registry,
        )
        # Same generation loop as SimCluster.run_epoch (one seeded stream,
        # 4096-record batches), but keeping each rank's first batch so the
        # query sample spans every source rank — sampling only rank 0 would
        # always find the key at the first (lowest) candidate and hide read
        # amplification.
        pools = []
        rng = np.random.default_rng(seed)
        for rank in range(ranks):
            remaining = records
            first = True
            while remaining > 0:
                n = min(4096, remaining)
                batch = random_kv_batch(n, value_bytes, rng)
                if first:
                    pools.append(batch.keys)
                    first = False
                cluster.put(rank, batch)
                remaining -= n
        cluster.finish_epoch()
        if queries > 0:
            engine = cluster.query_engine()
            for i in range(queries):
                pool = pools[i % ranks]
                engine.get(int(pool[(i * 37) % len(pool)]))
    finally:
        set_default_registry(prev)
    return registry


def _cmd_compare(args) -> str:
    from .analysis.reporting import render_table
    from .cluster.simcluster import SimCluster
    from .core.formats import FMT_BASE, FMT_DATAPTR, FMT_FILTERKV

    rows = []
    for fmt in (FMT_BASE, FMT_DATAPTR, FMT_FILTERKV):
        cluster = SimCluster(
            nranks=args.ranks, fmt=fmt, value_bytes=args.value_bytes, seed=args.seed
        )
        st = cluster.run_epoch(args.records)
        rows.append(
            [
                fmt.name,
                cluster.aux_backends() or "-",
                st.rpc_messages,
                round(st.shuffle_bytes_per_record, 2),
                round(st.storage_bytes_per_record, 2),
                round(st.aux_bytes / st.records, 2) if st.aux_bytes else "-",
            ]
        )
    return render_table(
        ["format", "aux", "msgs", "net B/rec", "disk B/rec", "aux B/key"],
        rows,
        title=f"{args.ranks} ranks × {args.records} records × "
        f"{8 + args.value_bytes} B KV pairs",
    )


def _cmd_metrics(args) -> str:
    from .core.formats import FMT_BASE, FMT_DATAPTR, FMT_FILTERKV
    from .obs import MetricsRegistry, dump_jsonl, registry_to_json

    by_name = {f.name: f for f in (FMT_BASE, FMT_DATAPTR, FMT_FILTERKV)}
    formats = list(by_name.values()) if args.fmt == "all" else [by_name[args.fmt]]
    merged = MetricsRegistry("metrics")
    for fmt in formats:
        registry = _instrumented_run(
            fmt, args.ranks, args.records, args.value_bytes, args.seed, args.queries
        )
        merged.merge(registry, format=fmt.name)
    text = dump_jsonl(merged) if args.jsonl else registry_to_json(merged) + "\n"
    if args.out != "-":
        import pathlib

        pathlib.Path(args.out).write_text(text)
        return f"metrics: {len(merged)} series -> {args.out}"
    return text.rstrip("\n")


def _cmd_recover(args) -> str:
    """Crash-consistency walkthrough: the EXPERIMENTS.md transcript."""
    from .core.formats import FORMATS
    from .core.kv import random_kv_batch
    from .core.multiepoch import MultiEpochStore
    from .core.pipeline import epoch_files
    from .faults import CrashPoint, FaultPlan, FaultyStorageDevice
    from .obs import MetricsRegistry

    fmt = FORMATS[args.fmt]
    registry = MetricsRegistry("recover")
    device = FaultyStorageDevice(FaultPlan(seed=args.seed), metrics=registry)
    store = MultiEpochStore(
        nranks=args.ranks,
        fmt=fmt,
        value_bytes=args.value_bytes,
        device=device,
        seed=args.seed,
    )
    rng = np.random.default_rng(args.seed)
    lines = [
        f"writing {args.epochs} epochs: {args.ranks} ranks x {args.records:,} "
        f"records, format={fmt.name}"
    ]
    keys_by_epoch: list[np.ndarray] = []
    for e in range(args.epochs):
        batches = [random_kv_batch(args.records, args.value_bytes, rng) for _ in range(args.ranks)]
        if e == args.epochs - 1:
            device.plan.crash_at(device.op_index + args.crash_op)
        try:
            store.write_epoch(batches)
        except CrashPoint as exc:
            lines.append(f"epoch {e}: ** CRASH ** ({exc})")
            break
        keys_by_epoch.append(np.concatenate([b.keys for b in batches]))
        lines.append(f"epoch {e}: committed, {args.ranks * args.records:,} records")
    if args.corrupt and keys_by_epoch:
        victim = next(n for n in device.list_files() if n.startswith("part.000."))
        device.corrupt(victim, device.file_size(victim) // 3, xor=0x04)
        lines.append(f"flipped one stored bit in committed extent {victim!r}")

    lines.append("")
    lines.append("$ repro recover")
    recovered, report = MultiEpochStore.recover(device, deep=args.deep, metrics=registry)
    lines.append(report.summary())
    lines.append("")

    checked = hits = 0
    for e in report.committed_epochs:
        keys = keys_by_epoch[e]
        sample = keys[:: max(1, keys.size // 16)][:16]
        for k in sample:
            value, _ = recovered.get(int(k), e)
            checked += 1
            hits += value is not None
    lines.append(f"verification: {hits}/{checked} sampled keys readable from committed epochs")
    uncommitted = [e for e in range(len(keys_by_epoch) + 1) if e not in report.committed_epochs]
    kept = {n for info in (recovered.manifest.epochs if recovered else ()) for n in info.files}
    leftovers = [n for e in uncommitted for n in epoch_files(device, e, fmt) if n not in kept]
    lines.append(f"uncommitted epochs absent from storage: {not leftovers}")
    return "\n".join(lines)


def _cmd_compact(args) -> str:
    """Read-amplification walkthrough: the compaction transcript."""
    from .core.formats import FORMATS
    from .core.kv import KVBatch, random_kv_batch
    from .core.multiepoch import EpochRetiredError, MultiEpochStore

    fmt = FORMATS[args.fmt]
    store = MultiEpochStore(
        nranks=args.ranks, fmt=fmt, value_bytes=args.value_bytes, seed=args.seed
    )
    rng = np.random.default_rng(args.seed)
    lines = [
        f"writing {args.epochs} epochs: {args.ranks} ranks x {args.records:,} "
        f"records, format={fmt.name}, overlap={args.overlap:.0%}"
    ]
    prev_keys: np.ndarray | None = None
    all_keys: list[np.ndarray] = []
    for _ in range(args.epochs):
        batches = [
            random_kv_batch(args.records, args.value_bytes, rng)
            for _ in range(args.ranks)
        ]
        if prev_keys is not None and args.overlap > 0:
            # Rewrite a slice of the previous epoch's keys with fresh
            # values: the newest-wins duplicates compaction must dedupe.
            for i, b in enumerate(batches):
                n = int(len(b) * args.overlap)
                if n:
                    keys = b.keys.copy()
                    keys[:n] = rng.choice(prev_keys, size=n, replace=False)
                    batches[i] = KVBatch(keys, b.values)
        store.write_epoch(batches)
        prev_keys = np.concatenate([b.keys for b in batches])
        all_keys.append(prev_keys)
    # Probe the whole history, not just the newest dump: keys last written
    # long ago are the ones whose lookups walk (and pay for) every epoch.
    universe = np.unique(np.concatenate(all_keys))

    def measure(label: str) -> tuple[float, float]:
        probe_keys = rng.choice(universe, size=min(args.probes, universe.size), replace=False)
        reads = searched = 0
        for k in probe_keys:
            _, _, stats = store.lookup(int(k), cached=False)
            reads += stats.reads
            searched += stats.partitions_searched
        n = probe_keys.size
        lines.append(
            f"{label}: {len(store.epochs)} live epoch(s), "
            f"{reads / n:.2f} device reads / query, "
            f"{searched / n:.2f} partitions searched / query"
        )
        return reads / n, searched / n

    before_reads, _ = measure("before")

    sample = rng.choice(universe, size=min(args.probes, universe.size), replace=False)
    truth = {int(k): store.lookup(int(k))[0] for k in sample}

    lines.append("")
    lines.append("$ repro compact")
    report = store.compact()
    lines.append(report.summary())
    lines.append("")

    ok = sum(store.lookup(k)[0] == v for k, v in truth.items())
    lines.append(f"verification: {ok}/{len(truth)} sampled keys byte-identical after compaction")
    retired = report.source_epochs[0]
    try:
        store.get(int(sample[0]), retired)
        verdict = "answered"
    except EpochRetiredError as e:
        verdict = f"refused ({e})"
    lines.append(
        f"retired epoch {retired}: {verdict}; "
        f"next epoch id {store.manifest.next_epoch} (never reused)"
    )
    after_reads, _ = measure("after")
    if after_reads > 0:
        lines.append(f"read amplification cut: {before_reads / after_reads:.2f}x")
    store.close()
    return "\n".join(lines)


def _build_served_store(args):
    """Synthetic dataset for the serving commands: ``--epochs`` dumps of
    random KV pairs (random keys ⇒ writer rank uncorrelated with owner,
    so FilterKV sees realistic false-candidate rates).  Returns
    ``(store, keys, expected)`` where ``expected`` maps every newest-epoch
    key to its value."""
    from .core.formats import FORMATS
    from .core.kv import random_kv_batch
    from .core.multiepoch import MultiEpochStore

    fmt = FORMATS[args.fmt]
    store = MultiEpochStore(
        nranks=args.ranks, fmt=fmt, value_bytes=args.value_bytes, seed=args.seed
    )
    rng = np.random.default_rng(args.seed)
    expected: dict[int, bytes] = {}
    for _ in range(args.epochs):
        batches = [
            random_kv_batch(args.records, args.value_bytes, rng) for _ in range(args.ranks)
        ]
        store.write_epoch(batches)
        expected = {
            int(k): bytes(v)
            for b in batches
            for k, v in zip(b.keys, np.asarray(b.values).reshape(len(b), -1))
        }
    keys = np.fromiter(expected, dtype=np.int64)
    return store, keys, expected


def _cmd_serve(args) -> int:
    import asyncio

    from .obs import TraceCollector
    from .serve import QueryService, ServeServer

    store, keys, _ = _build_served_store(args)
    print(store.describe())

    async def run() -> None:
        service = QueryService(
            store,
            max_batch=args.max_batch,
            max_inflight=args.max_inflight,
            queue_high_watermark=args.queue_high_watermark,
            tracer=TraceCollector(sample_rate=args.trace_sample),
            stats_window_s=args.stats_window,
        )
        async with ServeServer(service, host=args.host, port=args.port) as server:
            # flush so clients scripting around a piped server see the
            # bound port before the first query
            print(
                f"serving {keys.size:,} keys on {server.host}:{server.port} "
                "(Ctrl-C to stop)",
                flush=True,
            )
            await server.serve_forever()

    try:
        asyncio.run(run())
    except KeyboardInterrupt:
        print("\nstopped")
    return 0


def _cmd_loadgen(args) -> str:
    import asyncio

    from .analysis.reporting import render_table
    from .serve import InprocClient, KeySampler, QueryService, ServeServer, TCPClient, run_load

    formats = ["base", "dataptr", "filterkv"] if args.fmt == "all" else [args.fmt]
    deadline_s = args.deadline_ms / 1e3 if args.deadline_ms is not None else None
    rows, reports = [], []

    async def drive(fmt_name: str):
        sub_args = argparse.Namespace(**{**vars(args), "fmt": fmt_name})
        store, keys, expected = _build_served_store(sub_args)
        sampler = KeySampler(
            keys, distribution=args.distribution, theta=args.theta, seed=args.seed
        )
        service = QueryService(store)
        load_kwargs = dict(
            mode=args.mode,
            concurrency=args.concurrency,
            rate_qps=args.rate,
            deadline_s=deadline_s,
            expected=expected,
            trace_rate=args.trace_sample,
            trace_seed=args.seed,
            keep_traces=args.keep_traces,
        )
        if args.tcp:
            async with ServeServer(service) as server:
                async with TCPClient(server.host, server.port) as client:
                    report = await run_load(client, sampler, args.requests, **load_kwargs)
        else:
            async with service:
                report = await run_load(
                    InprocClient(service), sampler, args.requests, **load_kwargs
                )
        svc_stats = service.stats()
        return report, svc_stats

    for fmt_name in formats:
        report, svc_stats = asyncio.run(drive(fmt_name))
        reports.append({"format": fmt_name, "report": report.to_dict(), "service": svc_stats})
        lat = report.latency_ms
        rows.append(
            [
                fmt_name,
                report.requests,
                f"{report.qps:,.0f}",
                lat["p50"],
                lat["p95"],
                lat["p99"],
                report.shed,
                svc_stats["result_cache"]["hits"],
                f"{report.incorrect}/{report.checked}",
            ]
        )
    out = render_table(
        [
            "format",
            "reqs",
            "qps",
            "p50 ms",
            "p95 ms",
            "p99 ms",
            "shed",
            "rc hits",
            "bad",
        ],
        rows,
        title=f"{args.mode}/{args.distribution} load, {args.ranks} ranks x "
        f"{args.records:,} records x {args.epochs} epoch(s)",
    )
    if args.json_out:
        import json
        import pathlib

        pathlib.Path(args.json_out).write_text(json.dumps(reports, indent=2) + "\n")
        out += f"\nreports -> {args.json_out}"
    out += _export_loadgen_traces(args, reports)
    return out


def _export_loadgen_traces(args, reports: list[dict]) -> str:
    """Write the slowest sampled traces from a loadgen run to disk.

    All formats' kept traces go into one document — trace ids are unique
    per tree, so JSONL consumers and the Chrome trace viewer keep them
    apart without per-format files.
    """
    if not (args.trace_out or args.chrome_trace_out):
        return ""
    import json
    import pathlib

    from .obs import chrome_trace, dump_trace_jsonl, span_from_dict

    spans = [
        span_from_dict(d)
        for rep in reports
        for _lat_ms, tree in rep["report"].get("slow_traces", [])
        for d in tree
    ]
    notes = []
    if args.trace_out:
        pathlib.Path(args.trace_out).write_text(dump_trace_jsonl(spans))
        notes.append(f"traces -> {args.trace_out}")
    if args.chrome_trace_out:
        doc = chrome_trace(spans)
        pathlib.Path(args.chrome_trace_out).write_text(json.dumps(doc) + "\n")
        notes.append(f"chrome trace -> {args.chrome_trace_out}")
    if not spans:
        notes.append("(no traces sampled — raise --trace-sample?)")
    return "\n" + ", ".join(notes)


def _build_fleet(args):
    """Fleet + ingested dataset for the ``fleet`` command.  Returns
    ``(fleet, keys, expected)`` with ``expected`` holding the newest
    value per key across every epoch."""
    from .core.kv import random_kv_batch
    from .fleet import Fleet, FleetSpec

    spec = FleetSpec(
        nshards=args.shards,
        rf=args.rf,
        nranks=args.ranks,
        value_bytes=args.value_bytes,
        seed=args.seed,
        vnodes=args.vnodes,
        tcp=args.tcp,
        # Pin the shard caches small: epochs are immutable, so a crashed
        # shard's warm caches keep answering hot keys *correctly* — which
        # makes the failure drill invisible.  Cold reads must touch the
        # device, so the crash surfaces and the router's failover shows.
        service_kwargs=dict(result_cache_entries=16, table_cache_entries=1),
    )
    fleet = Fleet(spec)
    rng = np.random.default_rng(args.seed)
    expected: dict[int, bytes] = {}
    for _ in range(args.epochs):
        batch = random_kv_batch(args.records, args.value_bytes, rng)
        fleet.ingest(batch)
        values = np.asarray(batch.values).reshape(len(batch), -1)
        expected.update(
            (int(k), bytes(v)) for k, v in zip(batch.keys, values)
        )
    keys = np.fromiter(expected, dtype=np.int64)
    return fleet, keys, expected


def _cmd_fleet(args) -> int:
    import asyncio

    from .serve import ANY_EPOCH, KeySampler, ServeServer, run_load

    fleet, keys, expected = _build_fleet(args)
    rf = fleet.rf
    print(
        f"fleet: {args.shards} shard(s) x {args.ranks} ranks, rf={rf}, "
        f"{keys.size:,} keys across {args.epochs} epoch(s)"
    )

    async def serve_forever() -> None:
        async with fleet:
            async with ServeServer(
                fleet.router, host=args.host, port=args.port
            ) as server:
                print(
                    f"fleet router serving {keys.size:,} keys on "
                    f"{server.host}:{server.port} (Ctrl-C to stop; "
                    f"`repro top --port {server.port}` to watch)",
                    flush=True,
                )
                await server.serve_forever()

    def burst_line(label: str, report) -> str:
        lat = report.latency_ms
        return (
            f"{label}: {report.requests} reqs, {report.qps:,.0f} qps, "
            f"p50={lat['p50']:.3f}ms p99={lat['p99']:.3f}ms, "
            f"bad={report.incorrect}/{report.checked}"
        )

    async def drill() -> list[dict]:
        reports = []

        def sampler(phase: int) -> KeySampler:
            # A fresh hot set per burst: with one seed throughout, the
            # degraded burst replays burst 1's keys and the shards' result
            # caches absorb the crash — correct, but nothing fails over.
            return KeySampler(
                keys,
                distribution=args.distribution,
                theta=args.theta,
                seed=args.seed + 7919 * phase,
            )

        load_kwargs = dict(
            mode="closed",
            concurrency=args.concurrency,
            epoch=ANY_EPOCH,
            expected=expected,
        )
        async with fleet:
            router = fleet.router
            rep = await run_load(router, sampler(0), args.requests, **load_kwargs)
            st = router.stats()
            reports.append({"phase": "healthy", "report": rep.to_dict(), "router": st})
            print(burst_line("healthy   ", rep))
            if args.kill >= 0:
                if args.kill not in fleet.shards:
                    raise SystemExit(
                        f"--kill {args.kill}: no such shard (0..{args.shards - 1})"
                    )
                print(f"\n** crashing shard {args.kill} under load **")
                fleet.crash_shard(args.kill)
                rep = await run_load(router, sampler(1), args.requests, **load_kwargs)
                st = router.stats()
                reports.append({"phase": "degraded", "report": rep.to_dict(), "router": st})
                print(burst_line("degraded  ", rep))
                print(
                    f"            failovers: {st['failovers']}, retries: "
                    f"{st['retries']}, breaker skips: {st['breaker_skips']}, "
                    f"breakers: {st['breakers']}"
                )
                await fleet.recover_shard(args.kill)
                node = fleet.shards[args.kill]
                print(
                    f"recovered shard {args.kill}: "
                    f"{node.last_recovery.summary().splitlines()[0]}"
                )
                rep = await run_load(router, sampler(2), args.requests, **load_kwargs)
                st = router.stats()
                reports.append({"phase": "recovered", "report": rep.to_dict(), "router": st})
                print(burst_line("recovered ", rep))
                print(f"            breakers: {st['breakers']}")
            rolled = fleet.rollup()
            print(
                f"\nfleet totals: {int(rolled.total('fleet.requests')):,} shard "
                f"requests served for "
                f"{int(fleet.merged_metrics().total('fleet.router.requests')):,} "
                "routed queries"
            )
            bad = sum(r["report"]["incorrect"] for r in reports)
            checked = sum(r["report"]["checked"] for r in reports)
            print(f"verification: {checked - bad}/{checked} answers byte-correct")
        return reports

    try:
        if args.serve:
            asyncio.run(serve_forever())
            return 0
        reports = asyncio.run(drill())
    except KeyboardInterrupt:
        print("\nstopped")
        return 0
    if args.json_out:
        import json
        import pathlib

        pathlib.Path(args.json_out).write_text(json.dumps(reports, indent=2) + "\n")
        print(f"reports -> {args.json_out}")
    bad = sum(r["report"]["incorrect"] for r in reports)
    return 1 if bad else 0


def _render_fleet_top_frame(live: dict, stats: dict, where: str) -> str:
    """One dashboard frame for ``repro top`` against a fleet router
    (pure: testable without a TTY)."""
    lat = live.get("latency_ms", {})
    counts = live.get("counts", {})
    rates = live.get("rates_per_s", {})
    lines = [
        f"repro top — fleet router @ {where}  (trailing {live.get('window_s', '?')}s)",
        f"  qps {live.get('qps', 0):>10,.1f}",
        "  status   " + "  ".join(
            f"{s}={counts.get(s, 0)} ({rates.get(s, 0.0):,.1f}/s)" for s in counts
        ),
        f"  latency  p50 {lat.get('p50', 0.0):.3f}ms  p95 {lat.get('p95', 0.0):.3f}ms  "
        f"p99 {lat.get('p99', 0.0):.3f}ms  max {lat.get('max', 0.0):.3f}ms",
        f"  routing  failovers {stats.get('failovers', 0)}",
    ]
    for sid, shard in sorted(live.get("shards", {}).items()):
        lines.append(f"  shard {sid}  breaker {shard.get('breaker', '?')}")
    return "\n".join(lines)


def _render_top_frame(live: dict, stats: dict, traces: list[list[dict]], where: str) -> str:
    """One dashboard frame for ``repro top`` (pure: testable without a TTY)."""
    from .obs import render_tree, span_from_dict

    lat = live.get("latency_ms", {})
    rc = stats.get("result_cache", {})
    counts = live.get("counts", {})
    rates = live.get("rates_per_s", {})
    lines = [
        f"repro top — {live.get('format', '?')} @ {where}  "
        f"(trailing {live.get('window_s', '?')}s)",
        f"  qps {live.get('qps', 0):>10,.1f}   inflight {live.get('inflight', 0):<4d} "
        f"queue {live.get('queue_depth', 0):<4d} "
        f"shedding {'YES' if live.get('shedding') else 'no '}  "
        f"shed_rate {live.get('shed_rate', 0.0):.2%}",
        "  status   " + "  ".join(
            f"{s}={counts.get(s, 0)} ({rates.get(s, 0.0):,.1f}/s)" for s in counts
        ),
        f"  latency  p50 {lat.get('p50', 0.0):.3f}ms  p95 {lat.get('p95', 0.0):.3f}ms  "
        f"p99 {lat.get('p99', 0.0):.3f}ms  max {lat.get('max', 0.0):.3f}ms",
        f"  caches   result {rc.get('hits', 0)}/{rc.get('hits', 0) + rc.get('misses', 0)} hit",
    ]
    if traces:
        lines.append(f"  traces   {live.get('traces_retained', 0)} retained; most recent:")
        for tree in traces:
            rendered = render_tree([span_from_dict(d) for d in tree])
            lines.extend("    " + ln for ln in rendered.splitlines())
    return "\n".join(lines)


def _cmd_top(args) -> int:
    import asyncio

    from .serve import TCPClient

    async def run() -> None:
        where = f"{args.host}:{args.port}"
        async with TCPClient(args.host, args.port) as client:
            i = 0
            while True:
                live = await client.stats_live(window_s=args.window)
                stats = await client.stats()
                if live.get("format") == "fleet":
                    print(_render_fleet_top_frame(live, stats, where))
                else:
                    traces = await client.traces(args.traces) if args.traces > 0 else []
                    print(_render_top_frame(live, stats, traces[-args.traces :], where))
                i += 1
                if args.iterations and i >= args.iterations:
                    return
                print()
                await asyncio.sleep(args.interval)

    try:
        asyncio.run(run())
    except KeyboardInterrupt:
        print("\nstopped")
    except ConnectionError as e:
        raise SystemExit(f"cannot reach {args.host}:{args.port}: {e}")
    return 0


def _cmd_advise(args) -> str:
    from .cluster.machines import MACHINES
    from .core.advisor import recommend_format

    if args.machine not in MACHINES:
        raise SystemExit(f"unknown machine {args.machine!r}; try: {', '.join(MACHINES)}")
    advice = recommend_format(
        MACHINES[args.machine],
        nprocs=args.procs,
        kv_bytes=args.kv_bytes,
        data_per_proc=args.data_per_proc,
        residual_fraction=args.residual,
        read_weight=args.read_weight,
    )
    return advice.explain()


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    np.set_printoptions(legacy=False)
    out = {
        "info": _cmd_info,
        "machines": _cmd_machines,
        "table1": _cmd_table1,
    }
    if args.command in out:
        print(out[args.command]())
    elif args.command == "compare":
        print(_cmd_compare(args))
    elif args.command == "metrics":
        print(_cmd_metrics(args))
    elif args.command == "recover":
        print(_cmd_recover(args))
    elif args.command == "compact":
        print(_cmd_compact(args))
    elif args.command == "serve":
        return _cmd_serve(args)
    elif args.command == "fleet":
        return _cmd_fleet(args)
    elif args.command == "loadgen":
        print(_cmd_loadgen(args))
    elif args.command == "top":
        return _cmd_top(args)
    elif args.command == "advise":
        print(_cmd_advise(args))
    return 0


if __name__ == "__main__":
    sys.exit(main())
