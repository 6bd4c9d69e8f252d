"""`QueryService`: the concurrent online query-serving front end.

One asyncio service mounts a recovered/attached `MultiEpochStore` and
turns the synchronous, single-caller read path into something that can
absorb skewed traffic from many concurrent clients:

* **Batching & coalescing** — concurrent lookups for the same
  ``(epoch, key)`` share one store probe; each dispatch window drains up
  to ``max_batch`` admitted requests and groups them per candidate rank,
  so a partition's table is touched once per window rather than once per
  request.
* **Result cache** — a bounded LRU of finished responses keyed by
  ``(epoch, key)`` (`repro.serve.cache`).
* **Admission control** — a bounded in-flight request budget and
  queue-depth watermarks with hysteresis: past the high watermark the
  service sheds new arrivals with an explicit ``overloaded`` response
  until the queue drains below the low watermark, instead of letting
  latency collapse.  Per-request deadlines cancel stragglers: an expired
  waiter gets ``deadline_exceeded``, and a queued request all of whose
  waiters expired is dropped without touching the store.

Epochs are immutable once committed, so the cache keys by *resolved*
epoch: committing a new epoch shifts what an unqualified query resolves
to (newest wins) rather than mutating cached state — the stale entry can
only ever be served for an explicit historical epoch, where it is the
correct answer.  A retired epoch id is refused ``epoch_retired``: the
merged epoch cannot answer for one source's timestep.  `invalidate`
exists for belt-and-braces cache drops.

The service reads through one `EpochMount` (``store.mount``): the mount
owns the per-epoch engines and the two bulk reads a window can ask for,
the service owns admission, coalescing and the cache.

A sampled request's ``serve.get`` root span holds its ``serve.queue``
wait.  A window's work runs once and is recorded once: one ``serve.batch``
span under the window's first sampled request, to which every other
sampled root links (attributes ``batch`` and ``batch_trace``).

Everything is single-event-loop: a dispatch window is one loop callback
(``loop.call_soon``) that runs synchronously, so no locks guard the cache
or the mount.  The service is its own in-process client: a router or the
load generator calls its `get` as it would a `TCPClient`'s.
"""

from __future__ import annotations

import asyncio
import math
import operator
import time
from collections import deque
from contextlib import nullcontext
from dataclasses import dataclass, field, replace
from itertools import repeat
from typing import TYPE_CHECKING

import numpy as np

from ..core.multiepoch import EpochRetiredError
from ..core.reader import TABLE_CACHE_ENTRIES
from ..obs import (
    ActiveSpan,
    MetricsRegistry,
    TimeseriesHub,
    TraceCollector,
    TraceContext,
    counter_key,
    span_to_dict,
)
from .cache import LRUCache

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..core.multiepoch import MultiEpochStore

__all__ = [
    "QueryService",
    "ServeResponse",
    "ANY_EPOCH",
    "OK",
    "NOT_FOUND",
    "OVERLOADED",
    "DEADLINE_EXCEEDED",
    "ERROR",
    "checked_request",
    "checked_window",
]

# Sentinel epoch for "the newest value anywhere": the request walks live
# epochs newest-first and stops at the first hit — the cross-epoch view
# compaction preserves.  Cache entries for it are versioned by the newest
# epoch id, so both new commits and compactions shift the cache key.
ANY_EPOCH = -1

OK = "ok"
NOT_FOUND = "not_found"
OVERLOADED = "overloaded"
DEADLINE_EXCEEDED = "deadline_exceeded"
ERROR = "error"

STATUSES = (OK, NOT_FOUND, OVERLOADED, DEADLINE_EXCEEDED, ERROR)

# Counter families a traced request attributes to its spans.  Everything
# the serve stack can touch: its own counters, the engines' reader.*,
# aux-table fetches, and the storage layer underneath.
_TRACE_PREFIXES = ("serve.", "reader.", "aux.", "sstable.", "vlog.")

_RETIRED = "epoch_retired"  # the code of an `EpochRetiredError`: final, never failed over

_UNSEEN = object()  # `get_burst`: an epoch this burst has not resolved yet

_KEY_END = 1 << 64

_UNTRACED = nullcontext()  # `_run_batch`: the span of a window nobody sampled


def checked_window(window_s) -> float:
    """``window_s``, or a ValueError unless it is an int or float (not a
    bool) that is a finite number of seconds > 0: the one rule
    `QueryService` and the wire's ``stats_live`` verb take a window by."""
    if (
        isinstance(window_s, bool)
        or not isinstance(window_s, (int, float))
        or not 0 < window_s < math.inf
    ):
        raise ValueError(f"window_s {window_s!r} is no finite number > 0")
    return window_s


def checked_request(key, epoch, deadline_s) -> tuple[int, int | None]:
    """``(key, epoch)`` as ints, or a ValueError saying why the three are
    no read request: a key is an int in ``[0, 2^64)``, an epoch None or an
    int, a deadline None or an int or float (not a bool) that is not NaN.  The one rule `QueryService.get_burst`,
    `FleetRouter.get_burst` and the wire's ``get_many`` admit reads by."""
    if deadline_s is not None and (
        isinstance(deadline_s, bool)
        or not isinstance(deadline_s, (int, float))
        or deadline_s != deadline_s
    ):
        raise ValueError(f"deadline_s {deadline_s!r} is no number of seconds")
    try:
        key = operator.index(key)
    except TypeError:
        raise ValueError(f"key {key!r} is not an int") from None
    if not 0 <= key < _KEY_END:
        raise ValueError(f"key {key} is no u64")
    if epoch is not None:
        try:
            epoch = operator.index(epoch)
        except TypeError:
            raise ValueError(f"epoch {epoch!r} is not an int") from None
    return key, epoch


@dataclass(frozen=True)
class ServeResponse:
    """One request's outcome.  ``status`` is always meaningful: a request
    is either answered (``ok`` / ``not_found``), explicitly refused
    (``overloaded``), timed out (``deadline_exceeded``), or failed
    (``error`` + ``detail``) — never silently dropped.

    ``code`` is the machine-readable error class (protocol v2): routers
    branch on it (``unknown_epoch`` means *ask a replica*,
    ``epoch_retired`` is final, ``closed`` and transport faults mean
    *retry elsewhere*) where ``detail`` is for humans.
    """

    status: str
    key: int
    epoch: int | None
    value: bytes | None = None
    cached: bool = False
    detail: str = ""
    trace: list | None = None  # span dicts, only on sampled requests
    code: str = ""


class _Burst:
    """What one `QueryService.get_burst` call waits on: ``remaining`` of
    its members are still queued, and the last of them to land (answered
    or expired) resolves ``future``."""

    __slots__ = ("future", "remaining")

    def __init__(self, future: asyncio.Future):
        self.future = future
        self.remaining = 0

    def land(self) -> None:
        self.remaining -= 1
        # A cancelled burst may still be listed on a pending it left.
        if not self.remaining and not self.future.done():
            self.future.set_result(None)


class _Pending:
    """One admitted, not-yet-executed probe shared by its waiters.

    ``epoch`` is the resolved cache token: a live epoch id, or the
    ``("any", newest)`` tuple for cross-epoch requests.  ``waiters`` holds
    one entry per burst member waiting on it (a burst that asked twice is
    listed twice); a member whose deadline passes leaves it, and a probe
    nobody waits on any more is dropped at dispatch.
    """

    __slots__ = ("key", "epoch", "waiters", "response", "traced")

    def __init__(self, key: int, epoch):
        self.key = key
        self.epoch = epoch
        self.waiters: list[_Burst] = []
        self.response: ServeResponse | None = None
        # (root span, open ``serve.queue`` span) per *traced* waiter —
        # empty on the fast path, so untraced requests never touch it.
        self.traced: list[tuple[ActiveSpan, ActiveSpan]] = []


@dataclass
class _Shedder:
    """Queue-depth watermarks with hysteresis.

    Above ``high`` the service sheds every new arrival; shedding stays on
    until the queue drains to ``low`` (half of ``high``), so a saturating
    client sees a clean ``overloaded`` band instead of flapping at the
    boundary.
    """

    high: int
    low: int = field(init=False)
    shedding: bool = field(default=False, init=False)

    def __post_init__(self):
        if self.high < 1:
            raise ValueError(f"queue_high_watermark must be >= 1, got {self.high}")
        self.low = self.high // 2

    def should_shed(self, depth: int) -> bool:
        if self.shedding:
            if depth <= self.low:
                self.shedding = False
        elif depth >= self.high:
            self.shedding = True
        return self.shedding


class QueryService:
    """Serve point queries over a `MultiEpochStore` to many asyncio tasks.

    Parameters
    ----------
    store:
        The mounted dataset.  New epochs committed while serving are
        picked up on the next request (newest-epoch resolution).
    max_batch:
        Most requests one dispatch window executes together.  A window
        is whatever is queued when its loop callback runs: coalescing
        still happens under concurrency without adding idle latency.
    result_cache_entries:
        Bound of the finished-response cache.
    max_inflight:
        Budget of admitted-but-unanswered requests (coalesced waiters
        each count); beyond it new arrivals are shed.
    queue_high_watermark:
        Shedding hysteresis on the dispatch queue depth: shedding starts
        at this depth and stops once the queue drains to half of it.
    table_cache_entries:
        Per-epoch engine block-cache bound, in tables' worth of data
        blocks (see `QueryEngine`); at least 1.
    metrics:
        Registry for the ``serve.*`` (and the engines' ``reader.*``)
        series; a private real registry is created when omitted, because
        a serving tier's hit rates and shed counts are part of its
        behavior, not optional debug output.
    tracer:
        Span collector for sampled requests.  Defaults to a collector
        with ``sample_rate=0`` — the service originates no traces of its
        own but still records requests whose clients sampled them (the
        `TraceContext` arrives in the frame header).  Pass a collector
        with a positive rate to sample server-side.
    stats_window_s:
        Trailing window for `live_stats` (the ``STATS`` verb / ``repro
        top`` view).
    """

    def __init__(
        self,
        store: "MultiEpochStore",
        *,
        max_batch: int = 64,
        result_cache_entries: int = 4096,
        max_inflight: int = 1024,
        queue_high_watermark: int = 512,
        table_cache_entries: int = TABLE_CACHE_ENTRIES,
        metrics: MetricsRegistry | None = None,
        tracer: TraceCollector | None = None,
        stats_window_s: float = 10.0,
    ):
        if max_batch < 1:
            raise ValueError(f"max_batch must be >= 1, got {max_batch}")
        if max_inflight < 1:
            raise ValueError(f"max_inflight must be >= 1, got {max_inflight}")
        if table_cache_entries < 1:
            raise ValueError(f"table_cache_entries must be >= 1, got {table_cache_entries}")
        self.store = store
        self.max_batch = max_batch
        self.max_inflight = max_inflight
        self.metrics = metrics if metrics is not None else MetricsRegistry("serve")
        # A real collector even when tracing "off": sample_rate 0 means
        # the service originates no traces, but a request that arrives
        # with a sampled TraceContext (the client decided) still records.
        self.tracer = tracer if tracer is not None else TraceCollector()
        self._tracer_may_sample = self.tracer.sample_rate > 0.0
        self.timeseries = TimeseriesHub(
            STATUSES,
            answered=(OK, NOT_FOUND),
            shed=(OVERLOADED, DEADLINE_EXCEEDED),
            window_s=checked_window(stats_window_s),
        )
        self._shedder = _Shedder(queue_high_watermark)
        self._rcache = LRUCache(result_cache_entries, self.metrics)
        # The reader session.  When the store's compaction generation
        # moves, its engines may keep blocks of extents the sweep deleted
        # and epoch-keyed cache entries may describe retired epochs — both
        # are dropped (`invalidate`) before the next probe runs.
        self._mount = store.mount(self.metrics, table_cache_entries)
        self._queue: deque[_Pending] = deque()
        self._index: dict[tuple, _Pending] = {}
        self._inflight = 0
        self._closed = False
        m = self.metrics
        self._m_requests = {s: m.counter("serve.requests", status=s) for s in STATUSES}
        self._m_latency = {s: m.histogram("serve.latency_seconds", status=s) for s in STATUSES}
        self._m_sheds = m.counter("serve.sheds")
        self._m_coalesced = m.counter("serve.coalesced")
        self._m_batches = m.counter("serve.batches")
        self._m_occupancy = m.histogram("serve.batch_occupancy")
        self._m_deadline_dropped = m.counter("serve.deadline_dropped")
        self._m_inflight_gauge = m.gauge("serve.inflight")

    # -- lifecycle ---------------------------------------------------------

    async def close(self) -> None:
        """Refuse new requests ``closed`` and answer every admitted one,
        window by window."""
        if self._closed:
            return
        self._closed = True
        while self._queue:
            self._run_batch()
        self._mount.close()

    async def __aenter__(self) -> "QueryService":
        return self

    async def __aexit__(self, *exc) -> None:
        await self.close()

    # -- cache/version management -----------------------------------------

    def invalidate(self) -> None:
        """Drop the result cache and mounted engines.

        Not needed for correctness on epoch commits (resolution is
        versioned by epoch — see the module docstring); exists for
        defense in depth and for tests.
        """
        self._rcache.clear()
        self._mount.close()

    def _check_generation(self) -> None:
        """Pick up a compaction swap: drop engines and epoch-keyed caches."""
        if self._mount.stale:
            self.invalidate()

    def _resolve_epoch(self, epoch: int | None):
        """Which committed epoch a request addresses (newest when
        unqualified).  ``None`` means the store has no epochs yet.

        `ANY_EPOCH` resolves to the ``("any", newest)`` token: hashable
        (it versions the result cache — a new commit or a compaction
        moves the newest id, shifting the key) and recognized by a
        dispatch window as "walk all live epochs".  An epoch id retired by
        compaction raises `EpochRetiredError`, one never committed a
        LookupError.
        """
        epochs = self.store.epochs
        if not epochs:
            return None
        if epoch is None:
            return epochs[-1]
        epoch = int(epoch)
        if epoch == ANY_EPOCH:
            return ("any", epochs[-1])
        if epoch in epochs:
            return epoch
        try:
            merged = self.store.resolve_epoch(epoch)
        except KeyError:
            raise LookupError(f"no such epoch {epoch} (have {epochs})") from None
        raise EpochRetiredError(epoch, merged)

    # -- the request path --------------------------------------------------

    async def get(
        self,
        key: int,
        epoch: int | None = None,
        deadline_s: float | None = None,
        trace: "TraceContext | dict | None" = None,
    ) -> ServeResponse:
        """Point lookup: `get_burst` of one request.  Always returns a
        `ServeResponse`; never raises for data-plane conditions (bad
        epoch, overload, deadline).

        ``trace`` is an optional propagated `TraceContext` (or its wire
        dict); a sampled context — or a hit on the local tracer's sample
        rate — makes the response carry its full span tree.
        """
        return (await self.get_burst(((key, epoch, deadline_s, trace),)))[0]

    async def get_burst(self, requests) -> list[ServeResponse]:
        """Answer one read burst: ``requests`` is a sequence of ``(key,
        epoch, deadline_s, trace)`` tuples, each meaning what the same
        arguments mean to `get`; the responses come back in request order.

        Malformed requests (`checked_request`: ``bad_request``), refusals,
        unknown or retired epochs and result-cache hits are answered inline.  Every miss is admitted, shed or coalesced exactly as a
        lone `get` would be, in request order, and stays its own `_Pending`
        on the dispatch queue, so ``max_batch``, the watermarks and the
        windows mean what they always meant.  The burst then awaits one
        future, which lands when its last queued member is answered or
        expired: no task and no future per request.  A member's deadline
        is a timer that answers it ``deadline_exceeded`` if it fires first.
        """
        t0 = time.perf_counter()
        out: list[ServeResponse | None] = [None] * len(requests)
        queued: list[tuple[int, _Pending, ActiveSpan | None]] = []
        timers: list[asyncio.TimerHandle] = []
        burst: _Burst | None = None
        closed = self._closed
        if not closed:
            self._check_generation()
        tokens: dict = {}  # epoch -> resolved token (or its LookupError), per burst
        for i, (key, epoch, deadline_s, trace) in enumerate(requests):
            try:
                key, epoch = checked_request(key, epoch, deadline_s)
            except ValueError as e:
                out[i] = self._done(
                    t0, ServeResponse(ERROR, key, epoch, detail=str(e), code="bad_request")
                )
                continue
            # Fast path: no propagated context and a tracer that never
            # samples means no request here can be traced — skip the
            # helper entirely (it costs a wire-context parse per call).
            if trace is None and not self._tracer_may_sample:
                root = None
            else:
                root = self._trace_begin(key, epoch, trace)
            if closed:
                out[i] = self._done(
                    t0,
                    ServeResponse(ERROR, key, epoch, detail="service closed", code="closed"),
                    root,
                )
                continue
            resolved = tokens.get(epoch, _UNSEEN)
            if resolved is _UNSEEN:
                try:
                    resolved = self._resolve_epoch(epoch)
                except LookupError as e:
                    resolved = e
                tokens[epoch] = resolved
            if isinstance(resolved, LookupError):
                code = _RETIRED if isinstance(resolved, EpochRetiredError) else "unknown_epoch"
                out[i] = self._done(
                    t0, ServeResponse(ERROR, key, epoch, detail=str(resolved), code=code), root
                )
                continue
            if resolved is None:
                out[i] = self._done(t0, ServeResponse(NOT_FOUND, key, epoch), root)
                continue

            ck = (resolved, key)
            hit, entry = self._rcache.lookup(ck)
            if root is not None:
                root.charge("serve.result_cache.hits" if hit else "serve.result_cache.misses")
            if hit:
                status, value, found_epoch = entry
                out[i] = self._done(
                    t0, ServeResponse(status, key, found_epoch, value=value, cached=True), root
                )
                continue

            # Tuple tokens are cache/dispatch internals; responses that
            # carry no answer report the requested sentinel instead.
            public = resolved if isinstance(resolved, int) else ANY_EPOCH

            # Admission control: explicit refusal beats queueing collapse.
            if self._inflight >= self.max_inflight or self._shedder.should_shed(
                len(self._queue)
            ):
                self._m_sheds.inc()
                if root is not None:
                    root.charge("serve.sheds")
                out[i] = self._done(t0, ServeResponse(OVERLOADED, key, public), root)
                continue

            pending = self._index.get(ck)
            if pending is not None:
                self._m_coalesced.inc()
                if root is not None:
                    root.annotate(coalesced=True)
                    root.charge("serve.coalesced")
            else:
                if not self._queue:  # no window is scheduled: open one
                    asyncio.get_running_loop().call_soon(self._dispatch)
                pending = self._index[ck] = _Pending(key, resolved)
                self._queue.append(pending)
            if deadline_s is not None and deadline_s <= 0:
                # Expired on arrival: admitted (it may still be coalesced
                # onto) but waited on by nobody.
                out[i] = self._done(t0, ServeResponse(DEADLINE_EXCEEDED, key, public), root)
                continue
            if root is not None:
                pending.traced.append((root, self.tracer.start("serve.queue", parent=root)))
            if burst is None:
                burst = _Burst(asyncio.get_running_loop().create_future())
            pending.waiters.append(burst)
            burst.remaining += 1
            self._inflight += 1
            queued.append((i, pending, root))
            if deadline_s is not None:
                timers.append(
                    asyncio.get_running_loop().call_later(
                        deadline_s, self._expire, burst, out, i, pending, root, t0, public
                    )
                )
        if burst is None:
            return out

        self._m_inflight_gauge.inc(len(queued))
        try:
            await burst.future
        finally:
            for timer in timers:
                timer.cancel()
            left = 0
            for i, pending, _ in queued:
                if out[i] is None:  # not expired: it counted until now
                    left += 1
                    if pending.response is None:  # cancelled before it landed
                        pending.waiters.remove(burst)
            self._inflight -= left
            self._m_inflight_gauge.dec(left)
        for i, pending, root in queued:
            if out[i] is None:
                out[i] = self._done(t0, pending.response, root)
        return out

    def _expire(
        self, burst: _Burst, out: list, i: int, pending: _Pending,
        root: ActiveSpan | None, t0: float, public,
    ) -> None:
        """A burst member's deadline timer: unless its probe has already
        been answered, it leaves the probe and is ``deadline_exceeded``."""
        if pending.response is not None:
            return
        pending.waiters.remove(burst)
        self._inflight -= 1
        self._m_inflight_gauge.dec()
        out[i] = self._done(t0, ServeResponse(DEADLINE_EXCEEDED, pending.key, public), root)
        burst.land()

    def _done(
        self, t0: float, response: ServeResponse, root: ActiveSpan | None = None
    ) -> ServeResponse:
        dt = time.perf_counter() - t0
        self._m_requests[response.status].inc()
        self._m_latency[response.status].observe(dt)
        self.timeseries.record(response.status, dt)
        if root is not None:
            root.annotate(status=response.status)
            if response.cached:
                root.annotate(cached=True)
            root.charge(counter_key("serve.requests", (("status", response.status),)))
            root.finish(
                status="ok" if response.status in (OK, NOT_FOUND) else response.status
            )
            tree = self.tracer.trace(root.trace_id)
            response = replace(response, trace=[span_to_dict(s) for s in tree])
        return response

    # -- tracing helpers ---------------------------------------------------

    def _trace_begin(
        self, key: int, epoch: int | None, trace: "TraceContext | dict | None"
    ) -> ActiveSpan | None:
        """Open the request's root span when this request is sampled —
        either upstream (propagated context) or by the local tracer.

        The root takes no registry snapshot: it stays open across the
        await on its dispatch window, where concurrent requests interleave,
        so a snapshot delta would claim sibling requests' work.  Its own
        enumerable increments are attributed with `ActiveSpan.charge`;
        the shared probe work is attributed by the synchronous
        ``serve.batch`` span (charged to the window's lead traced
        request, like bulk-read I/O is charged to a group's first key;
        the other traced roots link to it).  A refused request's root
        ends with the refusal as its status.
        """
        ctx = trace if isinstance(trace, TraceContext) else TraceContext.from_wire(trace)
        if ctx is not None and not ctx.sampled:
            ctx = None
        if ctx is None and not self.tracer.should_sample():
            return None
        return self.tracer.start("serve.get", parent=ctx, key=key, epoch=epoch)

    # -- dispatch ----------------------------------------------------------

    def _dispatch(self) -> None:
        """One dispatch window, as a loop callback: the first admission
        into an empty queue schedules it, and it schedules the next one
        while requests are queued, so waiters see their results (and
        their deadline timers fire) between windows."""
        try:
            if self._queue:  # `close` may have answered them already
                self._run_batch()
        finally:
            if self._queue:
                asyncio.get_running_loop().call_soon(self._dispatch)

    def _run_batch(self) -> None:
        """Execute the next dispatch window, up to ``max_batch`` queued
        requests, against the store (synchronous)."""
        queue = self._queue
        batch = [queue.popleft() for _ in range(min(self.max_batch, len(queue)))]
        self._m_batches.inc()
        self._m_occupancy.observe(len(batch))
        # A compaction that landed since these requests were admitted
        # deleted extents the mounted engines may keep blocks of.
        self._check_generation()
        live: list[_Pending] = []
        for pending in batch:
            self._index.pop((pending.epoch, pending.key), None)
            if pending.waiters:
                live.append(pending)
            else:
                # Every waiter gave up already: drop the probe entirely.
                self._m_deadline_dropped.inc()
        by_epoch: dict = {}
        for pending in live:
            by_epoch.setdefault(pending.epoch, []).append(pending)
            for _, queued in pending.traced:
                queued.finish()
        for token, items in by_epoch.items():
            roots = [root for p in items for root, _ in p.traced]
            # The token's shared work runs in one ``serve.batch`` span under
            # its first sampled request, whose counter deltas charge that
            # work once; every other sampled request's root names the span.
            window = _UNTRACED if not roots else self.tracer.span(
                "serve.batch",
                parent=roots[0],
                counters=self.metrics,
                prefixes=_TRACE_PREFIXES,
                batch=len(items),
                epoch="any" if isinstance(token, tuple) else token,
                traced=len(roots),
            )
            try:
                with window as bspan:
                    self._answer(token, items)
                for root in roots[1:]:
                    root.annotate(batch=bspan.span_id, batch_trace=bspan.trace_id)
            except Exception as e:  # fail this group loudly, keep serving
                for pending in items:
                    if pending.response is None:
                        self._finish(
                            pending,
                            ServeResponse(
                                ERROR,
                                pending.key,
                                token if isinstance(token, int) else ANY_EPOCH,
                                detail=repr(e),
                                code=_RETIRED if isinstance(e, EpochRetiredError) else "",
                            ),
                        )

    def _answer(self, token, items: list[_Pending]) -> None:
        """One token's share of a window: one bulk read through the mount
        (a live epoch's block-coalesced probe, or for an `ANY_EPOCH` token
        the newest-first walk over live epochs), then every pending
        finished."""
        keys = np.fromiter((p.key for p in items), dtype=np.uint64, count=len(items))
        if isinstance(token, tuple):
            values, where, _ = self._mount.lookup_many(keys)
            missing = self.store.epochs[-1]
        else:
            values, _ = self._mount.get_many(keys, token)
            where, missing = repeat(token), token
        for pending, value, epoch in zip(items, values, where):
            if value is not None:
                response = ServeResponse(OK, pending.key, epoch, value=value)
            else:
                response = ServeResponse(NOT_FOUND, pending.key, missing)
            self._finish(pending, response)

    def _finish(self, pending: _Pending, response: ServeResponse) -> None:
        if response.status in (OK, NOT_FOUND):
            # The entry keeps the epoch the answer came from, so an
            # ANY_EPOCH cache hit still reports where the key was found.
            self._rcache.insert(
                (pending.epoch, pending.key),
                (response.status, response.value, response.epoch),
            )
        pending.response = response
        for burst in pending.waiters:
            burst.land()

    # -- introspection -----------------------------------------------------

    def stats(self) -> dict:
        """Point-in-time snapshot of the serving counters (JSON-safe)."""
        m = self.metrics
        ok_lat = m.histogram("serve.latency_seconds", status=OK)
        return {
            "epochs": list(self.store.epochs),
            "format": self.store.fmt.name,
            "requests": {s: int(m.total("serve.requests", status=s)) for s in STATUSES},
            "latency_ms": {
                "p50": round(ok_lat.quantile(0.5) * 1e3, 3),
                "p95": round(ok_lat.quantile(0.95) * 1e3, 3),
                "p99": round(ok_lat.quantile(0.99) * 1e3, 3),
                "count": ok_lat.count,
            },
            "result_cache": {
                "hits": int(m.total("serve.result_cache.hits")),
                "misses": int(m.total("serve.result_cache.misses")),
                "entries": len(self._rcache),
            },
            "compactions": self.store.compactions,
            "sheds": int(m.total("serve.sheds")),
            "coalesced": int(m.total("serve.coalesced")),
            "batches": int(m.total("serve.batches")),
            "mean_batch_occupancy": round(m.histogram("serve.batch_occupancy").mean, 3),
            "inflight": self._inflight,
        }

    def live_stats(self, window_s: float | None = None) -> dict:
        """Trailing-window view (QPS, shed rate, latency quantiles) —
        the payload behind the ``stats_live`` verb and ``repro top``."""
        out = self.timeseries.snapshot(window_s=window_s)
        out["format"] = self.store.fmt.name
        out["epochs"] = list(self.store.epochs)
        out["inflight"] = self._inflight
        out["queue_depth"] = len(self._queue)
        out["shedding"] = self._shedder.shedding
        out["traces_retained"] = len(self.tracer)
        return out

    def recent_traces(self, n: int = 8) -> list[list[dict]]:
        """The last ``n`` retained traces as span-dict lists (JSON-safe)."""
        return [
            [span_to_dict(s) for s in spans] for spans in self.tracer.recent_traces(n)
        ]
