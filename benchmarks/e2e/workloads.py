"""The four benchmark workloads.

Each drives only the library's public surfaces with library defaults and
never selects an execution mode, so a changed default is measured as a
user would get it.  All four are closed loops: the callers are analysis
scripts and simulation ranks that wait for each reply.

A workload is built from ``(seed, sizes)`` alone.  `setup` builds the data
and the system and runs a discarded warm-up; `round` prepares one fixed
schedule of operations, performs it inside ``with clock:`` (the only part
the harness times) and returns what it saw.  Replies are byte-checked
against a `SortedOracle` after the clock stops.
"""

from __future__ import annotations

import asyncio
import contextlib
import time
from dataclasses import dataclass, field
from typing import Callable, ContextManager

import numpy as np

from repro.apps.vpic import PARTICLE_BYTES, PARTICLE_VALUE_BYTES, VPICSimulation
from repro.core.compact import CompactionPolicy
from repro.core.formats import FMT_FILTERKV
from repro.core.kv import KEY_BYTES, KVBatch, random_kv_batch
from repro.core.multiepoch import MultiEpochStore
from repro.fleet import Fleet, FleetSpec
from repro.obs import MetricsRegistry
from repro.serve import ANY_EPOCH, NOT_FOUND, OK, QueryService, ServeServer, TCPClient
from repro.storage.blockio import StorageDevice

from oracle import SortedOracle

__all__ = ["WORKLOADS", "Round", "Sizes"]

CONNECTIONS = 2
OUTSTANDING = 16  # closed-loop callers per connection
BULK_KEYS = 256  # keys per get_many call
TICK_EVERY = 50  # wire requests between calibration ticks


class _NoClock(contextlib.nullcontext):
    def tick(self) -> None:
        pass


NO_CLOCK = _NoClock()  # warm-ups are not timed


@dataclass(frozen=True)
class Sizes:
    """``ops`` scales the per-round operation counts (``--seconds`` over the
    default run length); ``data`` scales the datasets and is 1 except under
    ``--smoke``."""

    ops: float = 1.0
    data: float = 1.0

    def n(self, base: int, floor: int = 1) -> int:
        return max(floor, int(round(base * self.ops)))

    def d(self, base: int, floor: int = 1) -> int:
        return max(floor, int(round(base * self.data)))


@dataclass
class Round:
    ops: int
    latencies: list  # seconds, one per latency sample
    schedule: tuple  # must be identical in every round of a workload
    # Run after the clock stops: (failed, wrong).  A refusal or an error
    # fails an operation; a reply with other bytes than the oracle's is wrong.
    check: Callable[[], tuple[int, int]]
    extra: dict = field(default_factory=dict)  # raw samples for layer metrics


def _device(registry: MetricsRegistry | None) -> StorageDevice:
    # Only a traced run passes a registry: the block-cache counters are on
    # no other public surface.
    return StorageDevice(metrics=registry) if registry is not None else StorageDevice()


def _by_rank(batch: KVBatch, nranks: int) -> list[KVBatch]:
    """One flat batch as ``nranks`` writer batches (round-robin, so the
    key->writer mapping is unrelated to the hash partitioner)."""
    writer = np.arange(len(batch)) % nranks
    return [batch.select(writer == r) for r in range(nranks)]


def _flatten(dump: list[KVBatch]) -> tuple[np.ndarray, np.ndarray]:
    return (
        np.concatenate([b.keys for b in dump]),
        np.concatenate([b.values for b in dump]),
    )


def _absent_keys(rng: np.random.Generator, n: int, present: np.ndarray) -> np.ndarray:
    """``n`` keys that are in no dump."""
    keys = rng.integers(0, 2**63, size=n, dtype=np.uint64)
    keys[np.isin(keys, present)] ^= np.uint64(1)  # a 1-in-2^45 event
    return keys


def _with_absent(
    rng: np.random.Generator, keys: np.ndarray, share: float, present: np.ndarray
) -> np.ndarray:
    absent = rng.random(keys.size) < share
    keys[absent] = _absent_keys(rng, int(absent.sum()), present)
    return keys


def _hist_total(reg: MetricsRegistry, name: str) -> float:
    return sum(inst.total for n, _, inst in reg.series() if n == name)


def _service_counts(reg: MetricsRegistry) -> dict:
    """Raw serving and reader counters from a service's ``metrics=``
    registry (a fleet passes the merged view of its shards')."""
    by_status = {
        s: reg.total("serve.requests", status=s)
        for s in ("ok", "not_found", "overloaded", "deadline_exceeded", "error")
    }
    return {
        "service_requests": sum(by_status.values()),
        "refused": sum(by_status.values()) - by_status["ok"] - by_status["not_found"],
        "coalesced": reg.total("serve.coalesced"),
        "batches": reg.total("serve.batches"),
        "batch_keys": _hist_total(reg, "serve.batch_occupancy"),
        "rc_hits": reg.total("serve.result_cache.hits"),
        "rc_misses": reg.total("serve.result_cache.misses"),
        "rc_evictions": reg.total("serve.result_cache.evictions"),
        "neg_skipped": reg.total("serve.negative_cache.skipped_probes"),
        "reader_queries": reg.total("reader.queries"),
        "reader_hits": reg.total("reader.hits"),
        "partitions_searched": reg.total("reader.partitions_probed"),
        "data_reads": reg.total("reader.storage_reads", category="data"),
    }


class Workload:
    name = ""
    why = ""
    record_bytes = PARTICLE_BYTES
    # What a traced round's root span is: the benchmark's own loop here,
    # the asyncio loop that runs client and servers in the wire workloads.
    root_metric = "loadgen.self_s"

    def __init__(self, seed: int, sizes: Sizes, registry: MetricsRegistry | None = None):
        self.seed = seed
        self.sizes = sizes
        self.registry = registry
        self.user_bytes = 0  # bytes of records handed to write_epoch / ingest

    def setup(self) -> None:
        raise NotImplementedError

    def teardown(self) -> None:
        pass

    def round(self, i: int, clock: ContextManager) -> Round:
        raise NotImplementedError

    def devices(self) -> list[StorageDevice]:
        raise NotImplementedError

    def io(self) -> tuple[int, int, int]:
        """Cumulative ``(reads, bytes_read, bytes_written)`` of every
        device this workload has used."""
        cs = [d.counters for d in self.devices()]
        return (
            sum(c.reads for c in cs),
            sum(c.bytes_read for c in cs),
            sum(c.bytes_written for c in cs),
        )

    def stored_bytes(self) -> int:
        return sum(d.total_bytes_stored() for d in self.devices())

    def live_records(self) -> int:
        """Records the live epochs hold: what `stored_bytes` pays for."""
        return self.store.manifest.total_records

    def counts(self) -> dict:
        """Cumulative raw counters read off the program's own surfaces;
        the traced pass reports their deltas."""
        return {}


class IngestBurst(Workload):
    """One caller dumps VPIC timesteps into a fresh store every round."""

    name = "ingest-burst"
    why = (
        "only the write path works (partition/encode, SSTable write, aux build, "
        "manifest seal, compaction rewrite); reader, serve and fleet do nothing"
    )

    NRANKS = 16
    PARTICLES_PER_RANK = 256
    DUMPS = 36  # per round; the (4, 4) policy merges at every 3rd dump from the 4th
    SAMPLE = 512  # keys read back per live epoch after each round

    def setup(self) -> None:
        s = self.sizes
        sim = VPICSimulation(self.NRANKS, s.d(self.PARTICLES_PER_RANK, 16), seed=self.seed)
        self.dumps = []
        for _ in range(s.n(self.DUMPS, 7)):
            sim.step(1)
            self.dumps.append(sim.dump())
        self.oracles = [SortedOracle(*_flatten(d)) for d in self.dumps]
        rng = np.random.default_rng(self.seed + 1)
        n = min(self.SAMPLE, sim.nparticles)
        self.sample = np.concatenate(
            [rng.choice(sim.ids, size=n, replace=False), _absent_keys(rng, n // 8, sim.ids)]
        )
        self.store = None
        self._retired_io = (0, 0, 0)  # devices of finished rounds
        self._counts = dict.fromkeys(
            ("records", "wire_bytes", "aux_bytes", "compact_runs", "compact_bytes_rewritten"), 0
        )
        self.round(-1, NO_CLOCK).check()  # warm-up: one whole discarded round

    def round(self, i: int, clock: ContextManager) -> Round:
        self._retired_io = self.io()  # the last round's device is done with
        self.store = None
        latencies, epoch_ids, cluster_stats = [], [], []
        rewritten = merges = 0
        with clock:
            store = self.store = MultiEpochStore(
                nranks=self.NRANKS,
                fmt=FMT_FILTERKV,
                value_bytes=PARTICLE_VALUE_BYTES,
                device=_device(self.registry),
                compaction=CompactionPolicy(max_live_epochs=4, merge_factor=4),
            )
            for dump in self.dumps:
                epoch_ids.append(store.manifest.next_epoch)
                t0 = time.perf_counter()
                cluster_stats.append(store.write_epoch(dump))
                latencies.append(time.perf_counter() - t0)
                clock.tick()
                clock.tick()
                if store.compactions != merges:
                    merges = store.compactions
                    rewritten += store.last_compaction.bytes_written
        records = sum(cs.records for cs in cluster_stats)
        self.user_bytes += records * PARTICLE_BYTES
        c = self._counts
        c["records"] += records
        c["wire_bytes"] += sum(cs.shuffle_bytes for cs in cluster_stats)
        c["aux_bytes"] += sum(cs.aux_bytes for cs in cluster_stats)
        c["compact_runs"] += merges
        c["compact_bytes_rewritten"] += rewritten

        def check() -> tuple[int, int]:
            # Read back through a cold attach: nothing may live only in the
            # writer's memory.  Every dump holds every particle, so a live
            # epoch serves the newest dump that was merged into it.
            reopened = MultiEpochStore.attach(store.device)
            wrong = 0
            for live in reopened.epochs:
                newest = max(
                    d for d, e in enumerate(epoch_ids) if reopened.resolve_epoch(e) == live
                )
                values, _ = reopened.get_many(self.sample, live)
                wrong += self.oracles[newest].wrong(self.sample, values)
            reopened.close()
            return 0, wrong

        return Round(
            ops=records,
            latencies=latencies,
            schedule=(records, len(self.dumps), merges),
            check=check,
            extra={"commit_stall_s": latencies},
        )

    def devices(self) -> list[StorageDevice]:
        return [self.store.device] if self.store is not None else []

    def io(self) -> tuple[int, int, int]:
        return tuple(a + b for a, b in zip(self._retired_io, super().io()))

    def counts(self) -> dict:
        return dict(self._counts)


class ReadCold(Workload):
    """One caller reads a freshly attached multi-epoch dataset, first one
    key at a time, then in bulk; no serving tier and nothing warm."""

    name = "read-cold"
    why = (
        "aux probe, index search, block read+checksum+decode are ~all the time; scalar get "
        "and bulk get_many run side by side so merging one into the other cannot hide a cost"
    )

    NRANKS = 16
    PARTICLES_PER_RANK = 4096
    EPOCHS = 6
    SCALAR_GETS = 1400  # per round
    BULK_CALLS = 72  # per round, BULK_KEYS keys each
    ABSENT_SHARE = 0.10

    def setup(self) -> None:
        s = self.sizes
        sim = VPICSimulation(self.NRANKS, s.d(self.PARTICLES_PER_RANK, 32), seed=self.seed)
        writer = MultiEpochStore(
            nranks=self.NRANKS,
            fmt=FMT_FILTERKV,
            value_bytes=PARTICLE_VALUE_BYTES,
            device=_device(self.registry),
        )
        self.oracles = {}
        for _ in range(self.EPOCHS):
            sim.step(5)
            dump = sim.dump()
            epoch = writer.manifest.next_epoch
            writer.write_epoch(dump)
            self.oracles[epoch] = SortedOracle(*_flatten(dump))
            self.user_bytes += sim.nparticles * PARTICLE_BYTES
        writer.close()
        self.store = MultiEpochStore.attach(writer.device)
        self.epochs = np.asarray(self.store.epochs)
        self.ids = sim.ids
        self.rng = np.random.default_rng(self.seed + 1)
        self._counts = dict.fromkeys(
            ("reader_queries", "partitions_searched", "reader_hits", "data_reads"), 0
        )
        self._run(s.n(self.SCALAR_GETS) // 4, s.n(self.BULK_CALLS) // 4, NO_CLOCK).check()

    def teardown(self) -> None:
        self.store.close()

    def _keys(self, n: int) -> np.ndarray:
        return _with_absent(
            self.rng, self.rng.choice(self.ids, size=n), self.ABSENT_SHARE, self.ids
        )

    def round(self, i: int, clock: ContextManager) -> Round:
        return self._run(self.sizes.n(self.SCALAR_GETS), self.sizes.n(self.BULK_CALLS), clock)

    def _run(self, scalar_gets: int, bulk_calls: int, clock: ContextManager) -> Round:
        get, get_many = self.store.get, self.store.get_many
        keys = self._keys(scalar_gets)
        epochs = self.rng.choice(self.epochs, size=scalar_gets)
        bulk_keys = [self._keys(BULK_KEYS) for _ in range(bulk_calls)]
        bulk_epochs = self.rng.choice(self.epochs, size=bulk_calls).tolist()
        latencies, values, stats, bulk_values, bulk_s = [], [], [], [], []
        with clock:
            for j, (key, epoch) in enumerate(zip(keys.tolist(), epochs.tolist())):
                t0 = time.perf_counter()
                value, st = get(key, epoch)
                latencies.append(time.perf_counter() - t0)
                values.append(value)
                stats.append(st)
                if j % 32 == 0:
                    clock.tick()
            for bkeys, epoch in zip(bulk_keys, bulk_epochs):
                t0 = time.perf_counter()
                vals, sts = get_many(bkeys, epoch)
                bulk_s.append(time.perf_counter() - t0)
                clock.tick()
                bulk_values.append(vals)
                stats.extend(sts)
        c = self._counts
        c["reader_queries"] += len(stats)
        c["partitions_searched"] += sum(st.partitions_searched for st in stats)
        c["reader_hits"] += sum(1 for st in stats if st.found)
        c["data_reads"] += sum(st.breakdown_reads.get("data", 0) for st in stats)

        def check() -> tuple[int, int]:
            wrong = 0
            for epoch in self.epochs.tolist():
                at = np.flatnonzero(epochs == epoch)
                wrong += self.oracles[epoch].wrong(keys[at], [values[j] for j in at.tolist()])
            for bkeys, epoch, vals in zip(bulk_keys, bulk_epochs, bulk_values):
                wrong += self.oracles[epoch].wrong(bkeys, vals)
            return 0, wrong

        return Round(
            ops=scalar_gets + bulk_calls * BULK_KEYS,
            latencies=latencies,
            schedule=(scalar_gets, bulk_calls),
            check=check,
            extra={"bulk_call_s": bulk_s},
        )

    def devices(self) -> list[StorageDevice]:
        return [self.store.device]

    def counts(self) -> dict:
        return dict(self._counts)


class WireWorkload(Workload):
    """Closed-loop TCP driver: `CONNECTIONS` connections, each with
    `OUTSTANDING` callers that wait for every reply before the next send.
    Client and server share one event loop in this process, so
    `cpu_us_per_op` includes the client."""

    root_metric = "eventloop.self_s"

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.loop = asyncio.new_event_loop()
        self.clients: list[TCPClient] = []

    def _await(self, coro):
        return self.loop.run_until_complete(coro)

    def teardown(self) -> None:
        self._await(self._shutdown())
        self.loop.close()

    async def _shutdown(self) -> None:
        raise NotImplementedError

    async def _connect(self, port: int) -> None:
        self.clients = [
            await TCPClient("127.0.0.1", port).connect() for _ in range(CONNECTIONS)
        ]

    async def _disconnect(self) -> None:
        for client in self.clients:
            await client.close()
        self.clients = []

    async def _drive(self, keys: list[int], commits: dict[int, Callable[[], None]], clock):
        """Issue ``keys`` in order across all callers.  ``commits[j]`` runs
        on this loop, synchronously, before request ``j`` is sent: nothing
        is answered while it runs, which is the stall a commit or a
        compaction imposes on a single-loop service."""
        n = len(keys)
        replies, latencies, stalls = [None] * n, [0.0] * n, []
        cursor = iter(range(n))
        await asyncio.gather(
            *(
                self._caller(client, cursor, keys, commits, replies, latencies, stalls, clock)
                for client in self.clients
                for _ in range(OUTSTANDING)
            )
        )
        return replies, latencies, stalls

    async def _caller(
        self, client, cursor, keys, commits, replies, latencies, stalls, clock
    ) -> None:
        """One closed-loop caller; all callers share ``cursor``, so every
        request is sent once and in order."""
        for j in cursor:
            if j % TICK_EVERY == 0:
                clock.tick()
            commit = commits.get(j)
            if commit is not None:
                t0 = time.perf_counter()
                commit()
                stalls.append(time.perf_counter() - t0)
            t0 = time.perf_counter()
            replies[j] = await client.get(keys[j], epoch=ANY_EPOCH)
            latencies[j] = time.perf_counter() - t0

    def _wire_round(
        self, keys: np.ndarray, commits: dict, clock: ContextManager, schedule=()
    ) -> Round:
        expected = self.oracle.expected(keys)
        key_list = keys.tolist()
        with clock:
            replies, latencies, stalls = self._await(self._drive(key_list, commits, clock))

        def check() -> tuple[int, int]:
            failed = wrong = 0
            for reply, want in zip(replies, expected):
                if reply.status == OK:
                    wrong += reply.value != want
                elif reply.status == NOT_FOUND:
                    wrong += want is not None
                else:
                    failed += 1
            return failed, wrong

        cached = np.fromiter((r.cached for r in replies), dtype=bool, count=len(replies))
        return Round(
            ops=len(replies),
            latencies=latencies,
            schedule=schedule,
            check=check,
            extra={"commit_stall_s": stalls, "cached": cached},
        )


class ServeChurn(WireWorkload):
    """Skewed reads over TCP while fresh-key dumps commit and compact
    underneath, on the service's own loop."""

    name = "serve-churn"
    why = (
        "writes beside reads: result/negative cache, generation invalidation, "
        "serve.proto framing and commit/compaction stalls meet only here"
    )
    record_bytes = KEY_BYTES + PARTICLE_VALUE_BYTES

    NRANKS = 8
    BASE_DUMPS = 4  # merged into one epoch by the policy during setup
    BASE_KEYS = 8192  # per base dump
    DUMP_KEYS = 1024  # per in-round dump
    DUMPS_PER_ROUND = 3  # the third leaves 4 live epochs, so each round ends in a merge
    REQUESTS = 6000  # per round
    THETA = 0.99

    def setup(self) -> None:
        s = self.sizes
        rng = self.rng = np.random.default_rng(self.seed)
        self.store = MultiEpochStore(
            nranks=self.NRANKS,
            fmt=FMT_FILTERKV,
            value_bytes=PARTICLE_VALUE_BYTES,
            device=_device(self.registry),
            compaction=CompactionPolicy(max_live_epochs=4, merge_factor=4),
        )
        base = [
            random_kv_batch(s.d(self.BASE_KEYS, 64), PARTICLE_VALUE_BYTES, rng)
            for _ in range(self.BASE_DUMPS)
        ]
        self.rewritten = 0  # bytes compaction has written
        for batch in base:
            self._commit(batch)
        keys, values = _flatten(base)
        self.oracle = SortedOracle(keys, values)
        self.popularity = rng.permutation(keys)  # hottest first
        self.service = QueryService(self.store, result_cache_entries=max(1, keys.size // 8))
        self.server = ServeServer(self.service)
        self._await(self.server.start())
        self._await(self._connect(self.server.port))
        # Warm-up: reads only, so the first timed round starts, like every
        # later one, from a single merged epoch.
        self._wire_round(self._sample(s.n(self.REQUESTS) // 2), {}, NO_CLOCK).check()

    async def _shutdown(self) -> None:
        await self._disconnect()
        await self.server.close()
        self.store.close()

    def _commit(self, batch: KVBatch) -> None:
        merges = self.store.compactions
        self.store.write_epoch(_by_rank(batch, self.NRANKS))
        self.user_bytes += batch.total_bytes
        if self.store.compactions != merges:
            self.rewritten += self.store.last_compaction.bytes_written

    def _sample(self, n: int) -> np.ndarray:
        """Zipfian over every key committed so far."""
        cdf = np.cumsum(1.0 / np.power(np.arange(1, self.popularity.size + 1), self.THETA))
        idx = np.searchsorted(cdf, self.rng.random(n) * cdf[-1], side="left")
        return self.popularity[np.minimum(idx, self.popularity.size - 1)]

    def round(self, i: int, clock: ContextManager) -> Round:
        n = self.sizes.n(self.REQUESTS, 8)
        per = self.DUMPS_PER_ROUND
        cuts = [n * (j + 1) // (per + 1) for j in range(per)] + [n]
        segments, commits = [self._sample(cuts[0])], {}
        merges, live = self.store.compactions, len(self.store.epochs)
        for j in range(per):
            batch = random_kv_batch(
                self.sizes.d(self.DUMP_KEYS, 16), PARTICLE_VALUE_BYTES, self.rng
            )
            self.oracle = self.oracle.merged(batch.keys, batch.values)
            # New keys land at random popularity ranks, so some are hot.
            at = np.sort(self.rng.integers(0, self.popularity.size + 1, size=len(batch)))
            self.popularity = np.insert(self.popularity, at, batch.keys)
            commits[cuts[j]] = lambda b=batch: self._commit(b)
            segments.append(self._sample(cuts[j + 1] - cuts[j]))
        round_ = self._wire_round(np.concatenate(segments), commits, clock)
        round_.schedule = (
            n,
            len(round_.extra["commit_stall_s"]),
            self.store.compactions - merges,
            live,
            len(self.store.epochs),
        )
        return round_

    def devices(self) -> list[StorageDevice]:
        return [self.store.device]

    def counts(self) -> dict:
        return {
            **_service_counts(self.service.metrics),
            "compact_bytes_rewritten": self.rewritten,
        }


class FleetWire(WireWorkload):
    """Uniform reads over TCP through a fleet router to TCP shards: two
    wire hops and almost no cache hits."""

    name = "fleet-wire"
    why = (
        "only workload running fleet.router/fleet.ring/aux views; pays serve.proto "
        "twice and is ~all served misses while serve.cache idles: serve-churn's mirror"
    )

    EPOCHS = 4
    EPOCH_KEYS = 8192
    REQUESTS = 2000  # per round
    ABSENT_SHARE = 0.10
    # Shard caches are pinned far below the data: 256 results of 32 k keys,
    # and one open table reader per epoch of the four partitions it has, so
    # a served miss pays reader opens and block reads, not only cache walks.
    SHARD_SERVICE = {"result_cache_entries": 256, "table_cache_entries": 1}

    def setup(self) -> None:
        s = self.sizes
        rng = self.rng = np.random.default_rng(self.seed)
        self.fleet = Fleet(
            FleetSpec(
                nshards=2,
                rf=2,
                nranks=4,
                tcp=True,
                service_kwargs=self.SHARD_SERVICE,
            )
        )
        self.record_bytes = KEY_BYTES + self.fleet.spec.value_bytes
        batches = [
            random_kv_batch(s.d(self.EPOCH_KEYS, 64), self.fleet.spec.value_bytes, rng)
            for _ in range(self.EPOCHS)
        ]
        for batch in batches:
            self.fleet.ingest(batch)
            self.user_bytes += batch.total_bytes
        self.oracle = SortedOracle(
            np.concatenate([b.keys for b in batches]),
            np.concatenate([b.values for b in batches]),
        )
        self.router = self._await(self.fleet.start())
        self.server = ServeServer(self.router)
        self._await(self.server.start())
        self._await(self._connect(self.server.port))
        self.round(-1, NO_CLOCK).check()  # warm-up: one whole discarded round

    async def _shutdown(self) -> None:
        await self._disconnect()
        await self.server.close()
        await self.fleet.close()

    def round(self, i: int, clock: ContextManager) -> Round:
        n = self.sizes.n(self.REQUESTS, 8)
        keys = _with_absent(
            self.rng,
            self.rng.choice(self.oracle.keys, size=n),
            self.ABSENT_SHARE,
            self.oracle.keys,
        )
        return self._wire_round(keys, {}, clock, schedule=(n,))

    def devices(self) -> list[StorageDevice]:
        return [node.device for node in self.fleet.shards.values()]

    def live_records(self) -> int:
        # Logical records: replication shows as stored bytes per user byte.
        return len(self.oracle)

    def counts(self) -> dict:
        out = _service_counts(self.fleet.merged_metrics())
        stats = self.router.stats()
        out.update(
            router_requests=sum(stats["requests"].values()),
            aux_routed=stats["aux_routed"],
            scatter=stats["scatter"],
            retries=stats["retries"],
            aux_resident_bytes=stats["aux_resident_bytes"],
        )
        return out


WORKLOADS = {w.name: w for w in (IngestBurst, ReadCold, ServeChurn, FleetWire)}
