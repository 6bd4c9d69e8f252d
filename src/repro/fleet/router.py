"""The fleet router: ring-order walks over shard clients, with failover.

Every ring owner of a key is a full replica of it: `Fleet.ingest` writes
each key to all ``rf`` of its owners.  So the router needs no routing
state of its own.  The aux tables of the paper answer "which partition
holds this key?", and the ring already answers that for a shard; a key's
walk through its shard's epochs is the shard's business.

* **Walk** — a key's candidates are its ring owners
  (`HashRing.owners_many`, primary first), tried in ring order, each
  behind its breaker with bounded retries.  A healthy fleet asks each key
  of its primary alone.
* **Correctness invariant** — every ``get`` reaches at least one shard,
  an ``ok`` is terminal from anyone, and a ``not_found`` from a ring
  owner is final (owners hold the key's full replica, so their answer is
  authoritative).  Non-owners are never asked.
* **Failover** — per-shard circuit breaker (consecutive typed failures
  open it; a cooldown half-opens it) and bounded retry-with-backoff on
  retryable errors and transport faults.  A request's deadline rides to
  the shard, which answers ``deadline_exceeded`` itself.  A crashed
  shard's errors open its breaker within a few requests, after which its
  replicas serve every key it owned — replica promotion is emergent from
  breaker + ring order, no leader election needed.
* **Bursts** — `get` is `get_burst` of one request, which walks a whole
  burst hop by hop: each hop's requests for one shard at one epoch and
  deadline go as one `get_burst` call to its client (one ``GET_MANY``
  over TCP), a traced request alone; each answer is judged per key, and
  a shard's failing keys move on as soon as its answer lands.

The router exposes the read and introspection surface of `QueryService`
(``get`` / ``get_burst`` / ``stats`` / ``live_stats`` /
``recent_traces`` / ``close``), so `ServeServer` can mount it
unchanged: clients speak one protocol whether they face a shard or the
fleet.
"""

from __future__ import annotations

import asyncio
import time

import numpy as np

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
from .ring import HashRing

__all__ = ["FleetRouter", "CircuitBreaker"]

# Error codes that say "this shard, right now" — they feed the breaker
# and justify trying a replica.  Anything else says "this request".
# "" is the pre-v2 untyped error (and the in-proc probe-failure path).
_SHARD_FAULT_CODES = {"", ERR_INTERNAL, ERR_CLOSED}

# Transport-level failures a retry may heal (the TCP pump surfaces broken
# framing as ProtocolError).
_TRANSPORT_ERRORS = (ConnectionError, OSError, ProtocolError)

# Extra attempts per shard on a transport fault or retryable error.
RETRIES = 1

# First backoff before a shard is retried (seconds), doubling per attempt.
BACKOFF_S = 0.005

# Trailing window of `FleetRouter.live_stats` (seconds).
STATS_WINDOW_S = 10.0

# What one shard answer means for a key's walk (`FleetRouter._judge`).
_FINAL, _FALLBACK, _RETRY = "final", "fallback", "retry"


class CircuitBreaker:
    """Per-shard failure gate: closed → open → half-open → closed.

    ``THRESHOLD`` consecutive shard faults open it for ``COOLDOWN_S``
    seconds.  Once the cooldown has passed it is half-open: every call is
    let through until the first outcome is recorded, and that outcome
    decides — a success closes it, a failure re-opens it at once.
    """

    THRESHOLD = 3
    COOLDOWN_S = 0.25

    def __init__(self, clock=time.monotonic):
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
            self.open_until = self.clock() + self.COOLDOWN_S
            self._half_open = False
            self.failures = 0
            self.trips += 1


class _Walk:
    """One admitted request on its way through its ring owners (``order``):
    the next one to ask (``hop``) and its ``answer`` — until the walk ends,
    the first answer of last resort."""

    __slots__ = ("request", "order", "hop", "answer")

    def __init__(self, request: tuple, order: list[int]):
        self.request, self.order, self.hop = request, order, 0
        self.answer: ServeResponse | None = None


class FleetRouter:
    """Route point queries to each key's ring owners, in ring order.

    Parameters
    ----------
    clients:
        ``shard id → client`` (a `TCPClient`, or in process the shard's
        `QueryService` itself — anything with their ``get_burst``).  The
        mapping is read live on every hop, so a `Fleet` swapping a
        recovered shard's client in place just works.
    ring / rf:
        Placement: a key may live only on its ``rf`` ring owners.

    A shard is retried ``RETRIES`` times on transport faults and
    retryable errors, after ``BACKOFF_S`` doubling per attempt, and a
    per-shard `CircuitBreaker` stays open ``CircuitBreaker.COOLDOWN_S``
    once tripped.
    """

    def __init__(
        self,
        clients: dict[int, object],
        ring: HashRing,
        rf: int = 2,
        metrics: MetricsRegistry | None = None,
    ):
        self.clients = clients
        self.ring = ring
        self.rf = max(1, int(rf))
        self.breakers = {sid: CircuitBreaker() for sid in clients}
        self.metrics = metrics if metrics is not None else MetricsRegistry("fleet")
        self.timeseries = TimeseriesHub(
            STATUSES,
            answered=(OK, NOT_FOUND),
            shed=(OVERLOADED, DEADLINE_EXCEEDED),
            window_s=STATS_WINDOW_S,
        )
        self._closed = False
        m = self.metrics
        self._m_requests = {s: m.counter("fleet.router.requests", status=s) for s in STATUSES}
        self._m_latency = m.histogram("fleet.router.latency_seconds")
        self._m_scatter = m.counter("fleet.router.scatter")
        self._m_failovers = m.counter("fleet.router.failovers")
        self._m_retries = m.counter("fleet.router.retries")
        self._m_breaker_skips = m.counter("fleet.router.breaker_skips")

    # -- lifecycle ---------------------------------------------------------

    async def close(self) -> None:
        self._closed = True

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
        inline.  The others walk their ring owners (one `owners_many` for
        the burst) hop by hop: `_route` sends each walk to its next owner,
        and `_ask` asks each shard for its walks at one epoch and deadline.
        """
        t0 = time.perf_counter()
        out: list[ServeResponse | None] = [None] * len(requests)
        slots, keys, admitted = [], [], []
        for i, (key, epoch, deadline_s, trace) in enumerate(requests):
            try:
                key, epoch = checked_request(key, epoch, deadline_s)
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
        self._m_scatter.inc(len(admitted))
        walks = [_Walk(request, order) for request, order in zip(admitted, owners)]
        # Always as tasks, even a lone one: every burst's frames then leave
        # on the same loop turn, and bursts that arrive together stay
        # together at the shards (their dispatch windows depend on it).
        await asyncio.gather(*self._route(walks))
        for i, walk in zip(slots, walks):
            out[i] = self._done(t0, walk.answer)
        return out

    def _done(self, t0: float, response: ServeResponse) -> ServeResponse:
        dt = time.perf_counter() - t0
        self._m_requests[response.status].inc()
        self._m_latency.observe(dt)
        self.timeseries.record(response.status, dt)
        return response

    def _route(self, walks: list[_Walk]) -> list[asyncio.Task]:
        """Send each walk to its next owner whose breaker lets it through
        and that has a client: one `_ask` task per shard, epoch and
        deadline (a traced request alone).  A walk with no owner left ends
        on its answer of last resort, or an error."""
        groups: dict[tuple, list[_Walk]] = {}
        for walk in walks:
            key, epoch, deadline_s, trace = walk.request
            while walk.hop < len(walk.order):
                sid = walk.order[walk.hop]
                if walk.hop:
                    self._m_failovers.inc()
                walk.hop += 1
                breaker = self.breakers.get(sid)
                if breaker is not None and not breaker.allow():
                    self._m_breaker_skips.inc()
                elif self.clients.get(sid) is not None:
                    group = (sid, epoch, deadline_s) if trace is None else (sid, walk)
                    groups.setdefault(group, []).append(walk)
                    break
            else:
                detail = f"no shard available (tried {walk.order})"
                walk.answer = walk.answer or ServeResponse(
                    ERROR, key, epoch, detail=detail, code=ERR_INTERNAL
                )
        loop = asyncio.get_running_loop()
        return [
            loop.create_task(self._ask(sid, self.clients[sid], group))
            for (sid, *_), group in groups.items()
        ]

    async def _ask(self, sid: int, client, walks: list[_Walk]) -> None:
        """One shard's full attempt at its walks: one `get_burst` per try,
        bounded retries with backoff, each answer judged per key by
        `_judge`.  A walk the shard does not end moves on (`_route`) as
        soon as the answer that decides it lands: a fallback at once, a
        shard fault after its last retry."""
        onward: list[asyncio.Task] = []
        try:
            for attempt in range(RETRIES + 1):
                if attempt:
                    self._m_retries.inc(len(walks))
                    await asyncio.sleep(BACKOFF_S * (2 ** (attempt - 1)))
                try:
                    responses = await client.get_burst([walk.request for walk in walks])
                except _TRANSPORT_ERRORS:
                    responses = [None] * len(walks)
                retry, moved = [], []
                for walk, response in zip(walks, responses):
                    verdict = self._judge(sid, response)
                    if verdict is _FINAL:
                        walk.answer = response
                    elif verdict is _RETRY and attempt < RETRIES:
                        retry.append(walk)
                    else:
                        walk.answer = walk.answer or response
                        moved.append(walk)
                onward += self._route(moved)
                if not (walks := retry):
                    break
            await asyncio.gather(*onward)
        finally:
            for task in onward:
                task.cancel()  # only a failed or cancelled attempt leaves any running

    def _judge(self, sid: int, response: ServeResponse | None):
        """What one shard answer means for its key's walk — `_FINAL` (stop here),
        `_FALLBACK` (fail over, keep it as the answer of last resort) or
        `_RETRY` (a shard fault: try this shard again) — with the answer
        fed to the shard's breaker.  ``None`` is a transport fault."""
        alive, verdict = True, _FINAL
        if response is None:
            alive, verdict = False, _RETRY
        elif response.status == DEADLINE_EXCEEDED:
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
        # holder — which every ring owner is.
        breaker = self.breakers.get(sid)
        if breaker is not None:
            breaker.record(alive)
        return verdict

    # -- QueryService-compatible introspection ------------------------------

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
            # `aux_routed` and `aux_resident_bytes` read 0 (the router holds
            # no aux tables) and `scatter` counts every walked key (every
            # walk is ring order): the repo benchmark's
            # `FleetWire.counts` reads all three.
            "aux_routed": 0,
            "scatter": int(m.total("fleet.router.scatter")),
            "failovers": int(m.total("fleet.router.failovers")),
            "retries": int(m.total("fleet.router.retries")),
            "breaker_skips": int(m.total("fleet.router.breaker_skips")),
            "breakers": {
                str(sid): b.state for sid, b in sorted(self.breakers.items())
            },
            "aux_resident_bytes": 0,
        }

    def live_stats(self, window_s: float | None = None) -> dict:
        """Trailing-window fleet view: the router's own request stream
        plus each shard's breaker state — the fleet ``repro top``
        payload."""
        out = self.timeseries.snapshot(window_s=window_s)
        out["format"] = "fleet"
        out["shards"] = {
            str(sid): {"breaker": self.breakers[sid].state} for sid in sorted(self.clients)
        }
        return out

    def recent_traces(self, n: int = 8) -> list[list[dict]]:
        return []  # request tracing lives on the shards; see their verbs
