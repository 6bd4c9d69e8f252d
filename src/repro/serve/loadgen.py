"""Load generation against a serving client (TCP or in-process).

Drives any client exposing ``async get(key, epoch=None, deadline_s=None)``
with a configurable popularity distribution and loop discipline:

* **Popularity** — ``zipfian`` (weight ∝ 1/rank^theta over a seeded
  shuffle of the key universe, so the hot set is arbitrary keys, not the
  smallest ones) or ``uniform``.  Skewed popularity is what makes the
  serving tier's result/negative caches and request coalescing pay off.
* **Closed loop** — ``concurrency`` workers each keep exactly one request
  outstanding: throughput adapts to service latency (classic benchmark
  discipline, no overload by construction).
* **Open loop** — arrivals are a Poisson process at ``rate_qps``
  regardless of completions: the discipline that actually exercises
  admission control, because a slow service faces a growing queue rather
  than a self-throttling client.

Every run returns a `LoadReport` with client-observed latency quantiles,
per-status counts, and — when the caller supplies the ground truth — a
count of *incorrect* responses (wrong value, or a miss for a present
key).  Shed (``overloaded``) and expired (``deadline_exceeded``) answers
are refusals, not wrong answers; they are never counted as incorrect.

Latency is measured from *send time* (the instant the ``get`` is issued),
not from arrival/enqueue time: in an open loop the generator can fall
behind its own arrival schedule, and folding that client-side queueing
into "latency" would make the quantiles disagree with what the server's
spans measure.  The arrival→send gap is reported separately as
``queue_ms``.

With ``trace_rate > 0`` the generator samples requests for end-to-end
tracing: each sampled request opens a client root span, propagates its
`TraceContext` to the server, and stitches the server's returned span
tree under it — the report keeps the ``keep_traces`` slowest of these
sampled trees, which is how you look at a p99 request's anatomy.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass, field

import numpy as np

from ..obs import TraceCollector, span_to_dict
from .service import DEADLINE_EXCEEDED, NOT_FOUND, OK, OVERLOADED, STATUSES

__all__ = ["KeySampler", "LoadReport", "run_load"]


class KeySampler:
    """Seeded sampler over a key universe with a popularity distribution."""

    def __init__(
        self,
        keys: np.ndarray | list[int],
        distribution: str = "zipfian",
        theta: float = 1.0,
        seed: int = 0,
    ):
        keys = np.asarray(keys, dtype=np.int64)
        if keys.size == 0:
            raise ValueError("key universe is empty")
        if distribution not in ("zipfian", "uniform"):
            raise ValueError(f"unknown distribution {distribution!r}")
        self.distribution = distribution
        self.theta = theta
        self._rng = np.random.default_rng(seed)
        # Popularity rank is assigned over a shuffle so the hot set is not
        # correlated with key order (or with the hash partitioner).
        self._keys = self._rng.permutation(keys)
        if distribution == "zipfian":
            weights = 1.0 / np.power(np.arange(1, keys.size + 1, dtype=np.float64), theta)
            self._cdf = np.cumsum(weights) / weights.sum()
        else:
            self._cdf = None

    def sample(self, n: int) -> np.ndarray:
        """``n`` keys drawn with replacement by popularity."""
        if self._cdf is None:
            idx = self._rng.integers(0, self._keys.size, size=n)
        else:
            idx = np.searchsorted(self._cdf, self._rng.random(n), side="left")
        return self._keys[idx]

    def interarrival_s(self, n: int, rate_qps: float) -> np.ndarray:
        """``n`` Poisson inter-arrival gaps for an open loop at ``rate_qps``."""
        if rate_qps <= 0:
            raise ValueError(f"rate_qps must be positive, got {rate_qps}")
        return self._rng.exponential(1.0 / rate_qps, size=n)


@dataclass(frozen=True)
class LoadReport:
    """Client-side view of one load run (JSON-safe via `to_dict`)."""

    mode: str
    distribution: str
    requests: int
    wall_s: float
    statuses: dict
    latency_ms: dict
    incorrect: int
    checked: int
    queue_ms: dict = field(default_factory=dict)
    traced: int = 0
    slow_traces: list = field(default_factory=list)  # [(latency_ms, [span dicts])]

    @property
    def qps(self) -> float:
        return self.requests / self.wall_s if self.wall_s > 0 else 0.0

    @property
    def shed(self) -> int:
        return self.statuses.get(OVERLOADED, 0) + self.statuses.get(DEADLINE_EXCEEDED, 0)

    def to_dict(self) -> dict:
        return {
            "mode": self.mode,
            "distribution": self.distribution,
            "requests": self.requests,
            "wall_s": round(self.wall_s, 4),
            "qps": round(self.qps, 1),
            "statuses": dict(self.statuses),
            "latency_ms": dict(self.latency_ms),
            "queue_ms": dict(self.queue_ms),
            "incorrect": self.incorrect,
            "checked": self.checked,
            "traced": self.traced,
            "slow_traces": list(self.slow_traces),
        }


def _quantiles_ms(values_s: list[float]) -> dict:
    ms = np.asarray(values_s, dtype=np.float64) * 1e3 if values_s else np.zeros(1)
    return {
        "mean": round(float(ms.mean()), 4),
        "p50": round(float(np.percentile(ms, 50)), 4),
        "p90": round(float(np.percentile(ms, 90)), 4),
        "p95": round(float(np.percentile(ms, 95)), 4),
        "p99": round(float(np.percentile(ms, 99)), 4),
        "max": round(float(ms.max()), 4),
    }


def _report(
    mode: str,
    distribution: str,
    statuses: dict,
    latencies: list[float],
    queue_waits: list[float],
    wall_s: float,
    incorrect: int,
    checked: int,
    traced: int,
    slow_traces: list,
) -> LoadReport:
    return LoadReport(
        mode=mode,
        distribution=distribution,
        requests=int(sum(statuses.values())),
        wall_s=wall_s,
        statuses=statuses,
        latency_ms=_quantiles_ms(latencies),
        queue_ms=_quantiles_ms(queue_waits),
        incorrect=incorrect,
        checked=checked,
        traced=traced,
        slow_traces=slow_traces,
    )


async def run_load(
    client,
    sampler: KeySampler,
    total_requests: int,
    mode: str = "closed",
    concurrency: int = 16,
    rate_qps: float | None = None,
    deadline_s: float | None = None,
    epoch: int | None = None,
    expected: dict[int, bytes | None] | None = None,
    trace_rate: float = 0.0,
    trace_seed: int = 0,
    keep_traces: int = 4,
) -> LoadReport:
    """Issue ``total_requests`` lookups and report what the client saw.

    ``expected`` maps key -> value (or None for an intentional miss); when
    given, every answered response is checked against it and mismatches
    are counted in ``LoadReport.incorrect``.

    ``trace_rate`` samples that fraction of requests for end-to-end
    tracing (seeded by ``trace_seed``): a sampled request propagates its
    context to the server and comes back with the server-side span tree
    stitched under a client root span.  The ``keep_traces`` slowest
    sampled trees land in ``LoadReport.slow_traces``.
    """
    if total_requests < 1:
        raise ValueError(f"total_requests must be >= 1, got {total_requests}")
    if mode not in ("closed", "open"):
        raise ValueError(f"mode must be 'closed' or 'open', got {mode!r}")
    keys = sampler.sample(total_requests)
    statuses = {s: 0 for s in STATUSES}
    latencies: list[float] = []
    queue_waits: list[float] = []
    incorrect = 0
    checked = 0
    traced = 0
    sampled_trees: list[tuple[float, list[dict]]] = []
    tracer = TraceCollector(sample_rate=trace_rate, seed=trace_seed) if trace_rate else None

    async def issue(key: int, t_enq: float) -> None:
        nonlocal incorrect, checked, traced
        root = None
        if tracer is not None and tracer.should_sample():
            root = tracer.start("client.get", key=int(key), mode=mode)
        t0 = time.perf_counter()  # send time: latency excludes client queueing
        queue_waits.append(t0 - t_enq)
        if root is None:
            response = await client.get(int(key), epoch=epoch, deadline_s=deadline_s)
        else:
            response = await client.get(
                int(key), epoch=epoch, deadline_s=deadline_s, trace=root.ctx
            )
        dt = time.perf_counter() - t0
        latencies.append(dt)
        statuses[response.status] = statuses.get(response.status, 0) + 1
        if root is not None:
            traced += 1
            root.annotate(status=response.status)
            root.finish()
            tree = [span_to_dict(s) for s in tracer.trace(root.trace_id)]
            tree += list(response.trace or [])
            sampled_trees.append((dt, tree))
        if expected is not None and response.status in (OK, NOT_FOUND):
            checked += 1
            want = expected.get(int(key))
            got = response.value if response.status == OK else None
            if got != want:
                incorrect += 1

    start = time.perf_counter()
    if mode == "closed":
        cursor = iter(range(total_requests))

        async def worker() -> None:
            for i in cursor:  # workers share one iterator: no key is issued twice
                await issue(keys[i], time.perf_counter())

        await asyncio.gather(*(worker() for _ in range(max(1, concurrency))))
    else:
        if rate_qps is None:
            raise ValueError("open-loop load needs rate_qps")
        gaps = sampler.interarrival_s(total_requests, rate_qps)
        loop = asyncio.get_running_loop()
        tasks = []
        next_at = loop.time()
        for i in range(total_requests):
            next_at += gaps[i]
            delay = next_at - loop.time()
            if delay > 0:
                await asyncio.sleep(delay)
            # Enqueue time is the *scheduled* arrival, not "now": at high
            # client counts the generator loop itself falls behind its
            # Poisson schedule (task creation and sleep overshoot
            # accumulate), and stamping perf_counter() here would silently
            # fold that lag out of queue_ms — understating queue wait by
            # exactly the amount the generator drifted.  Anchor the stamp
            # to the schedule instead: convert the loop-clock lag into the
            # perf_counter timebase the latency math uses.
            lag = max(0.0, loop.time() - next_at)
            tasks.append(loop.create_task(issue(keys[i], time.perf_counter() - lag)))
        await asyncio.gather(*tasks)
    wall_s = time.perf_counter() - start

    slow = [
        [round(dt * 1e3, 4), tree]
        for dt, tree in sorted(sampled_trees, key=lambda x: -x[0])[: max(0, keep_traces)]
    ]
    return _report(
        mode,
        sampler.distribution,
        statuses,
        latencies,
        queue_waits,
        wall_s,
        incorrect,
        checked,
        traced,
        slow,
    )
