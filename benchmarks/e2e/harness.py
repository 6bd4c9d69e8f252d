"""Round protocol, metric reduction and the traced pass.

One workload runs in one process: `setup` several times (the median is
`setup_s`, the last one is kept), then `ROUNDS` timed rounds of a fixed
operation count.  Timing metrics are the median over rounds; latency
percentiles pool every round's samples.  The collector is off inside a
round and run between rounds.  `gate`, when given, is called before every
timed round: `run.py` uses it to interleave the rounds of several
workload processes so that only one of them runs at a time.
"""

from __future__ import annotations

import gc
import pathlib
import resource
import statistics
import time

import numpy as np

import calibration
import layers
from repro.obs import MetricsRegistry
from workloads import WORKLOADS, Round, Sizes

ROUNDS = 6
SETUPS = 3
RUN_SECONDS = 15  # what the committed operation counts are sized for, on the reference box
MIN_LATENCY_SAMPLES = 200
MIN_COVERAGE = 0.90
OUT_DIR = pathlib.Path(__file__).resolve().parent / "out"

# name -> (unit, better); bounds live in BENCHMARK.json.
END_TO_END = {
    "setup_s": ("s", "lower"),
    "ops_per_s": ("1/s", "higher"),
    "p50_ms": ("ms", "lower"),
    "p95_ms": ("ms", "lower"),
    "cpu_us_per_op": ("us", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "stored_bytes_per_user_byte": ("count", "lower"),
    "written_bytes_per_user_byte": ("count", "lower"),
    "device_reads_per_op": ("count", "lower"),
}


class WrongAnswer(Exception):
    """A reply differed from the oracle's bytes."""


class Clock:
    """Times the ``with`` block of one round: wall, process CPU and device
    I/O, with the collector off, and under the round's root span when a
    tracer is given.  The workload calls `tick` every few operations; the
    calibration units those ticks run are taken out of the round's time
    and give `speed`, by which the rest is divided (see `calibration`)."""

    def __init__(self, workload, tracer: layers.Tracer | None = None):
        self.workload = workload
        self.tracer = tracer
        self.raw_wall = self.raw_cpu = self.tick_cpu = 0.0
        self.ticks: list[float] = []
        self.io = (0, 0, 0)

    def tick(self) -> None:
        cpu0 = time.process_time()
        self.ticks.append(calibration.unit())
        self.tick_cpu += time.process_time() - cpu0

    @property
    def speed(self) -> float:
        """How many times slower than nominal the machine ran this round
        (the median tick, so that one descheduled tick does not count)."""
        return statistics.median(self.ticks) / calibration.NOMINAL_UNIT_S

    @property
    def wall(self) -> float:
        return (self.raw_wall - sum(self.ticks)) / self.speed

    @property
    def cpu(self) -> float:
        return (self.raw_cpu - self.tick_cpu) / self.speed

    def __enter__(self):
        gc.collect()
        gc.disable()
        self._io0 = self.workload.io()
        self._root = self.tracer.begin_round(self.workload.root_metric) if self.tracer else None
        self._cpu0 = time.process_time()
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.raw_wall = time.perf_counter() - self._t0
        self.raw_cpu = time.process_time() - self._cpu0
        if self._root is not None:
            self.tracer.end_round(self._root)
        self.io = tuple(b - a for a, b in zip(self._io0, self.workload.io()))
        gc.enable()


class Timed:
    """What a pass of timed rounds saw."""

    def __init__(self):
        self.clocks: list[Clock] = []
        self.rounds: list[Round] = []
        self.failed = 0

    @property
    def ops(self) -> int:
        return sum(r.ops for r in self.rounds)

    def latencies(self) -> np.ndarray:
        """Every round's latency samples, each at its round's machine speed."""
        return np.concatenate(
            [np.asarray(r.latencies) / c.speed for r, c in zip(self.rounds, self.clocks)]
        )

    def extra(self, key: str) -> np.ndarray:
        parts = [np.asarray(r.extra[key]) for r in self.rounds if key in r.extra]
        return np.concatenate(parts) if parts else np.zeros(0)


def run_rounds(workload, first: int, n: int, gate=None, tracer=None) -> Timed:
    if tracer is None:
        still = layers.wrapped()
        if still:
            raise AssertionError(f"untraced rounds with wrappers installed: {still}")
    timed = Timed()
    for i in range(first, first + n):
        if gate is not None:
            gate()
        clock = Clock(workload, tracer)
        round_ = workload.round(i, clock)
        failed, wrong = round_.check()
        if wrong:
            raise WrongAnswer(f"{workload.name}: round {i}: {wrong} replies differ from the oracle")
        timed.failed += failed
        timed.clocks.append(clock)
        timed.rounds.append(round_)
    schedules = {r.schedule for r in timed.rounds}
    if len(schedules) != 1:
        raise AssertionError(f"{workload.name}: rounds ran different schedules: {schedules}")
    return timed


def _set_up(cls, seed: int, sizes: Sizes, times: int, registry=None):
    """Build the workload ``times`` times; keep the last."""
    seconds = []
    workload = None
    for _ in range(times):
        if workload is not None:
            workload.teardown()
        gc.collect()
        t0 = time.perf_counter()
        workload = cls(seed, sizes, registry)
        workload.setup()
        seconds.append(time.perf_counter() - t0)
    return workload, seconds


def _ms(samples, q: float) -> float:
    return float(np.percentile(np.asarray(samples, dtype=np.float64), q)) * 1e3


def measure(name: str, seed: int, sizes: Sizes, smoke: bool = False, gate=None) -> dict:
    """The untraced run: every end-to-end metric of one workload."""
    rounds, setups = (1, 1) if smoke else (ROUNDS, SETUPS)
    workload, setup_seconds = _set_up(WORKLOADS[name], seed, sizes, setups)
    timed = run_rounds(workload, 0, rounds, gate)
    latencies = timed.latencies()
    if not smoke and latencies.size < MIN_LATENCY_SAMPLES:
        raise AssertionError(f"{name}: only {latencies.size} latency samples")
    reads = sum(c.io[0] for c in timed.clocks)
    written = workload.io()[2]
    stored = workload.stored_bytes()
    live_bytes = workload.live_records() * workload.record_bytes
    user_bytes = workload.user_bytes
    workload.teardown()
    values = {
        "setup_s": statistics.median(setup_seconds),
        "ops_per_s": statistics.median(r.ops / c.wall for r, c in zip(timed.rounds, timed.clocks)),
        "p50_ms": _ms(latencies, 50),
        "p95_ms": _ms(latencies, 95),
        "cpu_us_per_op": statistics.median(
            c.cpu / r.ops * 1e6 for r, c in zip(timed.rounds, timed.clocks)
        ),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "stored_bytes_per_user_byte": stored / live_bytes,
        "written_bytes_per_user_byte": written / user_bytes,
        "device_reads_per_op": reads / timed.ops,
    }
    return {
        "workload": name,
        "attempted": timed.ops,
        "failed": timed.failed,
        "metrics": {k: {"value": values[k], "unit": END_TO_END[k][0]} for k in END_TO_END},
        "samples": {
            "setups": len(setup_seconds),
            "rounds": len(timed.rounds),
            "latency_samples": int(latencies.size),
            "ops_per_round": timed.rounds[0].ops,
            "schedule": list(timed.rounds[0].schedule),
        },
    }


def measure_layers(name: str, seed: int, sizes: Sizes, smoke: bool = False, gate=None) -> dict:
    """The traced run: half the rounds unwrapped (the overhead baseline),
    then the same number under the span wrappers."""
    half = 1 if smoke else ROUNDS // 2
    registry = MetricsRegistry("bench")
    workload, _ = _set_up(WORKLOADS[name], seed, sizes, 1, registry)
    plain = run_rounds(workload, 0, half, gate)
    tracer = layers.Tracer()
    counts0 = _counts(workload, registry)
    undo = layers.install(tracer)
    try:
        traced = run_rounds(workload, half, half, gate, tracer)
    finally:
        layers.uninstall(undo)
    counts1 = _counts(workload, registry)
    delta = {k: counts1[k] - counts0.get(k, 0) for k in counts1}
    workload.teardown()
    values = _layer_values(tracer, delta, counts1, plain, traced)
    if not smoke and values["trace.coverage_share"] < MIN_COVERAGE:
        raise AssertionError(
            f"{name}: named layers explain only {values['trace.coverage_share']:.2f} of the traced wall"
        )
    tracer.write_chrome_trace(OUT_DIR / f"trace-{name}-seed{seed}.json")
    return {
        "workload": name,
        "attempted": plain.ops + traced.ops,
        "failed": plain.failed + traced.failed,
        "metrics": {k: {"value": float(v), "unit": PER_LAYER[k][0]} for k, v in values.items()},
        "samples": {"untraced_rounds": half, "traced_rounds": half, "spans": tracer.opened},
    }


def _counts(workload, registry: MetricsRegistry) -> dict:
    out = workload.counts()
    out["bc_hits"] = registry.total("sstable.block_cache.hits")
    out["bc_misses"] = registry.total("sstable.block_cache.misses")
    return out


def _share(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


# Per-layer metric -> (unit, better).  Every `LAYERS` row is a self time
# in seconds, summed over the traced rounds; the rest are counts and ratios
# of the same rounds, from the program's own counters and the span
# boundaries.  A metric reads 0 on a workload that never enters its layer.
PER_LAYER = {
    **{metric: ("s", "lower") for metric in layers.LAYERS},
    "core.pipeline.wire_bytes_per_record": ("count", "lower"),
    "storage.memtable.spills": ("count", "lower"),
    "core.auxtable.bits_per_key": ("count", "lower"),
    "core.compact.runs": ("count", "lower"),
    "core.compact.bytes_rewritten": ("count", "lower"),
    "core.compact.stall_max_ms": ("ms", "lower"),
    "core.multiepoch.commit_stall_ms_p50": ("ms", "lower"),
    "core.auxtable.candidates_per_key": ("count", "lower"),
    "core.reader.partitions_per_query": ("count", "lower"),
    "core.reader.false_candidate_share": ("count", "lower"),
    "core.reader.bulk_call_ms_p50": ("ms", "lower"),
    "core.multiepoch.epochs_walked_per_op": ("count", "lower"),
    "storage.sstable.blocks_decoded_per_op": ("count", "lower"),
    "storage.sstable.block_cache_hit_share": ("count", "higher"),
    "storage.blockio.bytes_read_per_op": ("count", "lower"),
    "serve.service.queue_wait_ms_p50": ("ms", "lower"),
    "serve.service.batch_keys_mean": ("count", "higher"),
    "serve.service.coalesced_share": ("count", "higher"),
    "serve.service.hit_p50_ms": ("ms", "lower"),
    "serve.service.miss_p50_ms": ("ms", "lower"),
    "serve.service.p99_ms": ("ms", "lower"),
    "serve.service.refused": ("count", "lower"),
    "serve.cache.hit_share": ("count", "higher"),
    "serve.cache.negative_hit_share": ("count", "higher"),
    "serve.cache.evictions": ("count", "lower"),
    "serve.cache.invalidations": ("count", "lower"),
    "serve.proto.bytes_per_op": ("count", "lower"),
    "fleet.router.forward_wait_s": ("s", "lower"),
    "fleet.router.aux_routed_share": ("count", "higher"),
    "fleet.router.scatter": ("count", "lower"),
    "fleet.router.retries": ("count", "lower"),
    "fleet.router.aux_resident_bytes": ("count", "lower"),
    "trace.wall_s": ("s", "lower"),
    "trace.coverage_share": ("count", "higher"),
    "trace.overhead_share": ("count", "lower"),
}


def _layer_values(tracer, delta: dict, totals: dict, plain: Timed, traced: Timed) -> dict:
    d = lambda k: delta.get(k, 0)  # noqa: E731
    ops = traced.ops
    latencies = traced.latencies()
    cached = traced.extra("cached").astype(bool)
    stalls = traced.extra("commit_stall_s")
    bulk = traced.extra("bulk_call_s")
    compactions = tracer.durations["repro.core.multiepoch.MultiEpochStore.compact"]
    queue_waits = tracer.waits["repro.serve.service.QueryService.get"]
    p50 = lambda xs: _ms(xs, 50) if len(xs) else 0.0  # noqa: E731
    values = {metric: tracer.self_s[metric] for metric in layers.LAYERS}
    values.update(
        {
            "core.pipeline.wire_bytes_per_record": _share(d("wire_bytes"), d("records")),
            "storage.memtable.spills": tracer.calls["repro.storage.memtable.RunWriter.spill"],
            "core.auxtable.bits_per_key": _share(8 * d("aux_bytes"), d("records")),
            "core.compact.runs": tracer.calls["repro.core.compact.Compactor.run"],
            "core.compact.bytes_rewritten": d("compact_bytes_rewritten"),
            "core.compact.stall_max_ms": max(compactions, default=0.0) * 1e3,
            "core.multiepoch.commit_stall_ms_p50": p50(stalls),
            "core.auxtable.candidates_per_key": _share(
                tracer.measured["candidates"], tracer.measured["probe_keys"]
            ),
            "core.reader.partitions_per_query": _share(
                d("partitions_searched"), d("reader_queries")
            ),
            "core.reader.false_candidate_share": _share(
                d("partitions_searched") - d("reader_hits"), d("partitions_searched")
            ),
            "core.reader.bulk_call_ms_p50": p50(bulk),
            "core.multiepoch.epochs_walked_per_op": _share(d("reader_queries"), ops),
            "storage.sstable.blocks_decoded_per_op": _share(d("data_reads"), ops),
            "storage.sstable.block_cache_hit_share": _share(
                d("bc_hits"), d("bc_hits") + d("bc_misses")
            ),
            "storage.blockio.bytes_read_per_op": _share(sum(c.io[1] for c in traced.clocks), ops),
            "serve.service.queue_wait_ms_p50": p50(queue_waits),
            "serve.service.batch_keys_mean": _share(d("batch_keys"), d("batches")),
            "serve.service.coalesced_share": _share(d("coalesced"), d("service_requests")),
            "serve.service.hit_p50_ms": p50(latencies[cached]) if cached.size else 0.0,
            "serve.service.miss_p50_ms": p50(latencies[~cached]) if cached.size else 0.0,
            "serve.service.p99_ms": _ms(latencies, 99) if cached.size else 0.0,
            "serve.service.refused": d("refused"),
            "serve.cache.hit_share": _share(d("rc_hits"), d("rc_hits") + d("rc_misses")),
            "serve.cache.negative_hit_share": _share(
                d("neg_skipped"), d("neg_skipped") + d("partitions_searched")
            ),
            "serve.cache.evictions": d("rc_evictions"),
            "serve.cache.invalidations": tracer.calls["repro.serve.service.QueryService.invalidate"],
            "serve.proto.bytes_per_op": _share(tracer.measured["proto_bytes"], ops),
            "fleet.router.forward_wait_s": sum(
                tracer.waits["repro.fleet.router.FleetRouter.get"]
            ),
            "fleet.router.aux_routed_share": _share(d("aux_routed"), d("router_requests")),
            "fleet.router.scatter": d("scatter"),
            "fleet.router.retries": d("retries"),
            "fleet.router.aux_resident_bytes": totals.get("aux_resident_bytes", 0),
            "trace.wall_s": tracer.wall_s,
            "trace.coverage_share": 1.0 - _share(tracer.self_s["other.self_s"], tracer.wall_s),
            "trace.overhead_share": statistics.median(c.wall for c in traced.clocks)
            / statistics.median(c.wall for c in plain.clocks)
            - 1.0,
        }
    )
    assert values.keys() == PER_LAYER.keys()
    return values
