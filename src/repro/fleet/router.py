"""The fleet router: aux-table routing over shard clients, with failover.

The router is FilterKV's thesis applied one tier up.  Just as a reader
holds a compact aux table instead of the data it indexes, the router
holds — per shard, per epoch — only the shard's *sealed aux blobs*
(rebuilt into probing tables via `aux_from_blob`), never values, never
SSTables.  That bounds router memory at a few bytes per key while still
letting it send each query to the shard most likely to answer it:

* **Planning** — a key's ring owners (`HashRing.owners`, primary first)
  are reordered by what each owner's aux view *claims*: owners whose
  tables claim the key (newest claiming epoch first) are tried before
  owners whose tables deny it.  Aux tables have false positives but no
  false negatives, so a fresh claim is a strong hint and a fresh denial
  means "only ask me as a last resort".
* **Correctness invariant** — the router never answers a data query from
  its aux state alone.  Every ``get`` reaches at least one shard, an
  ``ok`` is terminal from anyone, and a ``not_found`` is terminal *only
  from a ring owner* (owners hold the key's full replica, so their
  answer is authoritative; an aux false positive on a non-owner is not).
  A view that misses a later commit therefore costs ordering quality,
  never answers.
* **Pulled views** — a shard's view is pulled once at `start` and again
  only when `Fleet.recover_shard` calls `refresh`; in between it never
  changes.  FilterKV seals an epoch's aux tables once and only reads
  them afterwards, and no entry point commits or compacts under a live
  router, so the view stays exact.
* **Failover** — per-shard circuit breaker (consecutive typed failures
  open it; a cooldown half-opens it) and bounded retry-with-backoff on
  retryable errors and transport faults.  A request's deadline rides to
  the shard, which answers ``deadline_exceeded`` itself.  A crashed
  shard's errors open its breaker within a few requests, after
  which its replicas serve every key it owned — replica promotion is
  emergent from breaker + candidate ordering, no leader election needed.

* **Bursts** — `get` is `get_burst` of one request, and `get_burst`
  walks every key of a burst by the same rules, all walks at once.  The
  router does no batching of its own: the hops a burst sends to one
  shard leave in one loop turn, and the shard's `TCPClient` packs them
  into one ``GET_MANY`` frame per run.

The router exposes the same surface as `QueryService` (``get`` /
``get_burst`` / ``stats`` / ``live_stats`` / ``recent_traces`` /
``aux_state`` / ``start`` / ``close``), so `ServeServer`
can mount it unchanged: clients speak one protocol whether they face a
shard or the fleet.
"""

from __future__ import annotations

import asyncio
import time

import numpy as np

from ..core.auxtable import aux_from_blob
from ..core.partitioning import HashPartitioner
from ..obs import MetricsRegistry, TimeseriesHub
from ..serve import ERROR, NOT_FOUND, OK, ServeResponse
from ..serve.proto import (
    ERR_BAD_REQUEST,
    ERR_CLOSED,
    ERR_INTERNAL,
    ERR_UNKNOWN_EPOCH,
    ProtocolError,
)
from ..serve.service import DEADLINE_EXCEEDED, OVERLOADED, STATUSES, checked_request
from ..storage.envelope import unseal
from .ring import HashRing

__all__ = ["FleetRouter", "ShardAuxView", "CircuitBreaker"]

# Error codes that say "this shard, right now" — they feed the breaker
# and justify trying a replica.  Anything else says "this request".
# "" is the pre-v2 untyped error (and the in-proc probe-failure path).
_SHARD_FAULT_CODES = {"", ERR_INTERNAL, ERR_CLOSED}

# Transport-level failures a retry may heal (the TCP pump surfaces broken
# framing as ProtocolError).
_TRANSPORT_ERRORS = (ConnectionError, OSError, ProtocolError)

# Extra attempts per shard on a transport fault or retryable error.
RETRIES = 1

# Trailing window of `FleetRouter.live_stats` (seconds).
STATS_WINDOW_S = 10.0

# What one shard answer means for a key's walk (`FleetRouter._judge`).
_FINAL, _FALLBACK, _RETRY = "final", "fallback", "retry"


class ShardAuxView:
    """One shard's routing state: rebuilt aux tables per live epoch.

    Built from the ``aux_state`` verb's export.  ``blob_bytes`` is the
    sealed wire size (the honest floor: what the shard shipped);
    ``resident_bytes`` is what the rebuilt tables claim via
    ``size_bytes`` — the fleet bench gates their ratio.  An export with
    a ``None`` row (a shard that persists no aux tables) is refused with
    a `ValueError`: that shard has no view, and planning uses ring order.
    """

    def __init__(self, shard_id: int, state: dict):
        self.shard_id = shard_id
        self.nranks = int(state.get("nranks", 1))
        self.blob_bytes = 0
        self._partitioner = HashPartitioner(self.nranks)
        self.epochs: dict[int, list] = {}
        for epoch_str, rows in (state.get("epochs") or {}).items():
            if rows is None:
                raise ValueError(f"shard {shard_id} exports no aux tables for epoch {epoch_str}")
            tables = []
            for hexblob in rows:
                raw = bytes.fromhex(hexblob)
                self.blob_bytes += len(raw)
                # unseal() is the integrity check: the same envelope that
                # guards the extent at rest guards it on the wire.
                tables.append(aux_from_blob(unseal(raw)))
            self.epochs[int(epoch_str)] = tables
        self._newest_first = sorted(self.epochs, reverse=True)

    @property
    def resident_bytes(self) -> int:
        return sum(aux.size_bytes for rows in self.epochs.values() for aux in rows)

    def claim(self, key: int, epoch: int | None = None) -> int:
        """Newest epoch whose aux tables claim ``key`` (-1: no claim).

        With ``epoch`` given, only that epoch is consulted.  A claim is
        the key's owner partition answering a non-empty candidate set —
        no false negatives, so -1 means the shard lacked the key in the
        consulted epochs when the view was pulled.
        """
        key = int(key)
        epochs = [epoch] if epoch is not None and epoch in self.epochs else self._newest_first
        owner = self._partitioner.partition_of_one(key)
        for e in epochs:
            rows = self.epochs[e]
            if owner < len(rows) and len(rows[owner].candidate_ranks(key)):
                return e
        return -1


class CircuitBreaker:
    """Per-shard failure gate: closed → open → half-open → closed.

    ``THRESHOLD`` consecutive shard faults open it for ``cooldown_s``;
    after the cooldown one probe is let through (half-open) and its
    outcome decides — success closes, failure re-opens immediately.
    """

    THRESHOLD = 3

    def __init__(self, cooldown_s: float = 0.25, clock=time.monotonic):
        self.cooldown_s = cooldown_s
        self.clock = clock
        self.failures = 0
        self.open_until: float | None = None
        self._half_open = False
        self.trips = 0

    @property
    def state(self) -> str:
        if self.open_until is None:
            return "closed"
        if self.clock() >= self.open_until:
            return "half_open"
        return "open"

    def allow(self) -> bool:
        if self.open_until is None:
            return True
        if self.clock() >= self.open_until:
            self._half_open = True
            return True
        return False

    def record(self, ok: bool) -> None:
        if ok:
            self.failures = 0
            self.open_until = None
            self._half_open = False
            return
        self.failures += 1
        if self._half_open or self.failures >= self.THRESHOLD:
            self.open_until = self.clock() + self.cooldown_s
            self._half_open = False
            self.failures = 0
            self.trips += 1


class FleetRouter:
    """Route point queries across shard clients by aux-table candidacy.

    Parameters
    ----------
    clients:
        ``shard id → client`` (TCP or in-proc — anything with the
        `TCPClient` surface).  The mapping is read live on every call, so
        a `Fleet` swapping a recovered shard's client in place just works.
    ring / rf:
        Placement: a key may live only on its ``rf`` ring owners.
    backoff_s:
        First backoff before a shard is retried (``RETRIES`` times, on
        transport faults and retryable errors), doubling per attempt.
    breaker_cooldown_s:
        How long a per-shard `CircuitBreaker` stays open once tripped.
    """

    def __init__(
        self,
        clients: dict[int, object],
        ring: HashRing,
        rf: int = 2,
        backoff_s: float = 0.005,
        breaker_cooldown_s: float = 0.25,
        metrics: MetricsRegistry | None = None,
    ):
        self.clients = clients
        self.ring = ring
        self.rf = max(1, int(rf))
        self.backoff_s = backoff_s
        self.views: dict[int, ShardAuxView] = {}
        self.breakers = {
            sid: CircuitBreaker(cooldown_s=breaker_cooldown_s)
            for sid in clients
        }
        self.metrics = metrics if metrics is not None else MetricsRegistry("fleet")
        self.timeseries = TimeseriesHub(
            STATUSES,
            answered=(OK, NOT_FOUND),
            shed=(OVERLOADED, DEADLINE_EXCEEDED),
            window_s=STATS_WINDOW_S,
        )
        self._started = False
        self._closed = False
        m = self.metrics
        self._m_requests = {s: m.counter("fleet.router.requests", status=s) for s in STATUSES}
        self._m_latency = m.histogram("fleet.router.latency_seconds")
        self._m_aux_routed = m.counter("fleet.router.aux_routed")
        self._m_scatter = m.counter("fleet.router.scatter")
        self._m_failovers = m.counter("fleet.router.failovers")
        self._m_retries = m.counter("fleet.router.retries")
        self._m_refreshes = m.counter("fleet.router.aux_refreshes")
        self._m_breaker_skips = m.counter("fleet.router.breaker_skips")

    # -- lifecycle ---------------------------------------------------------

    async def start(self) -> "FleetRouter":
        """Pull every shard's aux state, once: a second call pulls nothing
        (later pulls go through `refresh`).  Best-effort: a down shard, or
        one with no aux tables, starts with no view, i.e. ring-order
        planning."""
        if self._started:
            return self
        self._started = True
        for sid in list(self.clients):
            try:
                await self.refresh(sid)
            except Exception:
                self.views.pop(sid, None)
        return self

    async def close(self) -> None:
        self._closed = True

    async def refresh(self, shard_id: int) -> ShardAuxView:
        """Re-pull one shard's `aux_state` and rebuild its view."""
        state = await self.clients[shard_id].aux_state()
        view = ShardAuxView(shard_id, state)
        self.views[shard_id] = view
        self._m_refreshes.inc()
        self._observe_memory()
        return view

    def _observe_memory(self) -> None:
        self.metrics.gauge("fleet.router.aux_blob_bytes").set(self.aux_blob_bytes)
        self.metrics.gauge("fleet.router.aux_resident_bytes").set(self.aux_resident_bytes)

    @property
    def aux_blob_bytes(self) -> int:
        """Summed sealed-blob bytes across every shard view (wire size)."""
        return sum(v.blob_bytes for v in self.views.values())

    @property
    def aux_resident_bytes(self) -> int:
        """What the rebuilt tables hold resident — the router's data-plane
        memory, gated against ``aux_blob_bytes`` by the fleet bench."""
        return sum(v.resident_bytes for v in self.views.values())

    # -- planning ----------------------------------------------------------

    def plan(
        self, key: int, epoch: int | None = None, owners: list[int] | None = None
    ) -> tuple[list[int], bool]:
        """Candidate shards for ``key``, best-first, and whether aux state
        shaped the order.

        Only ring owners are candidates (non-owners never hold the key).
        Owners whose view claims the key sort first, newest claiming epoch
        first, and owners whose view denies it last; an owner with no view
        keeps its ring position among the rest, and when *no* owner has a
        view the plan is pure ring order — the scatter fallback.
        ``owners`` is the key's ``ring.owners``, when the caller already
        has it.
        """
        key = int(key)
        if owners is None:
            owners = self.ring.owners(key, self.rf)
        scored = []
        used_aux = False
        for pos, sid in enumerate(owners):
            view = self.views.get(sid)
            if view is None:
                scored.append((1, 0, pos, sid))
                continue
            used_aux = True
            claimed = view.claim(key, epoch)
            if claimed >= 0:
                scored.append((0, -claimed, pos, sid))
            else:
                # A denial: no false negatives, so ask this owner last.
                scored.append((2, 0, pos, sid))
        scored.sort()
        return [sid for *_, sid in scored], used_aux

    # -- the request path --------------------------------------------------

    async def get(
        self,
        key: int,
        epoch: int | None = None,
        deadline_s: float | None = None,
        trace=None,
    ) -> ServeResponse:
        """Point lookup across the fleet: `get_burst` of one request.  Same
        contract as `QueryService.get`: always a `ServeResponse`, never an
        exception for data-plane conditions."""
        return (await self.get_burst([(key, epoch, deadline_s, trace)]))[0]

    async def get_burst(self, requests) -> list[ServeResponse]:
        """Answer every ``(key, epoch, deadline_s, trace)`` request of one
        read burst, in request order.

        A request `checked_request` refuses is answered ``bad_request``
        inline.  Every other key is planned (the burst's ring owners in
        one `HashRing.owners_many`) and walked by `_walk`, all walks under
        one ``gather``.  The walks' hops to one shard leave in the same loop
        turn, so the shard's client packs them into one ``GET_MANY``
        frame per run.
        """
        t0 = time.perf_counter()
        out: list[ServeResponse | None] = [None] * len(requests)
        slots, keys, admitted = [], [], []
        for i, (key, epoch, deadline_s, trace) in enumerate(requests):
            try:
                key, epoch = checked_request(key, epoch)
            except ValueError as e:
                response = ServeResponse(ERROR, key, epoch, detail=str(e), code=ERR_BAD_REQUEST)
            else:
                if not self._closed:
                    slots.append(i)
                    keys.append(key)
                    admitted.append((key, epoch, deadline_s, trace))
                    continue
                response = ServeResponse(ERROR, key, epoch, detail="router closed", code=ERR_CLOSED)
            out[i] = self._done(t0, response)
        if not admitted:
            return out
        owners = self.ring.owners_many(np.asarray(keys, dtype=np.uint64), self.rf).tolist()
        walks = []
        for (key, epoch, deadline_s, trace), shards in zip(admitted, owners):
            order, used_aux = self.plan(key, epoch, shards)
            (self._m_aux_routed if used_aux else self._m_scatter).inc()
            walks.append(self._walk(order, key, epoch, deadline_s, trace))
        # Always as tasks, even a lone one: every burst's frames then leave
        # on the same loop turn, and bursts that arrive together stay
        # together at the shards (their dispatch windows depend on it).
        for i, response in zip(slots, await asyncio.gather(*walks)):
            out[i] = self._done(t0, response)
        return out

    def _done(self, t0: float, response: ServeResponse) -> ServeResponse:
        dt = time.perf_counter() - t0
        self._m_requests[response.status].inc()
        self._m_latency.observe(dt)
        self.timeseries.record(response.status, dt)
        return response

    async def _walk(self, order: list[int], key: int, epoch, deadline_s, trace) -> ServeResponse:
        """Try candidates in plan order, each through `_try_shard`.
        Returns the first terminal answer, or the first non-terminal one
        when every candidate fails."""
        fallback = None
        for i, sid in enumerate(order):
            if i > 0:
                self._m_failovers.inc()
            final, response = await self._try_shard(sid, key, epoch, deadline_s, trace)
            if final:
                return response
            if response is not None and fallback is None:
                fallback = response
        if fallback is not None:
            return fallback
        return ServeResponse(
            ERROR, key, epoch, detail=f"no shard available (tried {order})", code=ERR_INTERNAL
        )

    async def _try_shard(
        self, sid: int, key: int, epoch, deadline_s, trace
    ) -> tuple[bool, ServeResponse | None]:
        """One shard's full attempt: breaker gate, bounded retries.

        Returns ``(final, response)``; ``final`` means the walk stops
        here.  ``(False, resp)`` keeps ``resp`` as a fallback answer if
        every other candidate also fails; ``(False, None)`` means the
        shard was skipped or unreachable.
        """
        breaker = self.breakers.get(sid)
        if breaker is not None and not breaker.allow():
            self._m_breaker_skips.inc()
            return False, None
        client = self.clients.get(sid)
        if client is None:
            return False, None
        last = None
        for attempt in range(RETRIES + 1):
            if attempt > 0:
                self._m_retries.inc()
                await asyncio.sleep(self.backoff_s * (2 ** (attempt - 1)))
            try:
                response = await client.get(
                    key, epoch=epoch, deadline_s=deadline_s, trace=trace
                )
            except _TRANSPORT_ERRORS:
                if breaker is not None:
                    breaker.record(False)
                last = None
                continue
            verdict = self._judge(sid, response)
            if verdict is _RETRY:
                last = response
                continue
            return verdict is _FINAL, response
        return False, last

    def _judge(self, sid: int, response: ServeResponse):
        """What one shard answer means for the walk — `_FINAL` (stop here),
        `_FALLBACK` (fail over, keep it as the answer of last resort) or
        `_RETRY` (a shard fault: try this shard again) — with the answer
        fed to the shard's breaker."""
        alive, verdict = True, _FINAL
        if response.status == DEADLINE_EXCEEDED:
            pass  # alive, just slow
        elif response.status == OVERLOADED:
            # An explicit refusal: the shard is alive.  Fail over to a
            # replica but keep this as the answer of last resort.
            verdict = _FALLBACK
        elif response.status == ERROR:
            if response.code == ERR_UNKNOWN_EPOCH:
                # This shard cannot resolve the epoch; its replicas may.
                verdict = _FALLBACK
            elif response.code in _SHARD_FAULT_CODES:
                alive, verdict = False, _RETRY  # retryable shard fault
            # else a typed non-retryable error (bad_request,
            # unsupported_version…): final.
        # else ok from anyone; not_found only from an authoritative replica
        # holder — which every planned candidate is.
        breaker = self.breakers.get(sid)
        if breaker is not None:
            breaker.record(alive)
        return verdict

    # -- QueryService-compatible introspection ------------------------------

    def aux_state(self) -> dict:
        """The router holds no blobs of its own to export — it is the
        consumer of `aux_state`, not a producer — but the verb stays
        mountable so a fleet front end answers instead of erroring."""
        return {
            "format": "fleet",
            "nranks": 0,
            "epochs": {},
        }

    def stats(self) -> dict:
        """Cumulative fleet counters (JSON-safe), shaped like
        `QueryService.stats` where the concepts line up."""
        m = self.metrics
        lat = self._m_latency
        return {
            "shards": sorted(self.clients),
            "rf": self.rf,
            "requests": {
                s: int(m.total("fleet.router.requests", status=s)) for s in STATUSES
            },
            "latency_ms": {
                "p50": round(lat.quantile(0.5) * 1e3, 3),
                "p95": round(lat.quantile(0.95) * 1e3, 3),
                "p99": round(lat.quantile(0.99) * 1e3, 3),
                "count": lat.count,
            },
            "aux_routed": int(m.total("fleet.router.aux_routed")),
            "scatter": int(m.total("fleet.router.scatter")),
            "failovers": int(m.total("fleet.router.failovers")),
            "retries": int(m.total("fleet.router.retries")),
            "aux_refreshes": int(m.total("fleet.router.aux_refreshes")),
            "breaker_skips": int(m.total("fleet.router.breaker_skips")),
            "breakers": {
                str(sid): b.state for sid, b in sorted(self.breakers.items())
            },
            "aux_blob_bytes": self.aux_blob_bytes,
            "aux_resident_bytes": self.aux_resident_bytes,
        }

    def live_stats(self, window_s: float | None = None) -> dict:
        """Trailing-window fleet view: the router's own request stream
        plus each shard's breaker/view state — the fleet ``repro top``
        payload."""
        out = self.timeseries.snapshot(window_s=window_s)
        out["format"] = "fleet"
        out["shards"] = {
            str(sid): {
                "breaker": self.breakers[sid].state,
                "epochs": sorted(self.views[sid].epochs) if sid in self.views else [],
            }
            for sid in sorted(self.clients)
        }
        out["aux_blob_bytes"] = self.aux_blob_bytes
        out["aux_resident_bytes"] = self.aux_resident_bytes
        return out

    def recent_traces(self, n: int = 8) -> list[list[dict]]:
        return []  # request tracing lives on the shards; see their verbs
