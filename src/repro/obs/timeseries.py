"""Live windowed telemetry: ring-buffer digests for rate and quantiles.

Cumulative counters answer "how much since boot"; a serving dashboard
needs "how fast *right now*".  This module keeps the last N observations
with their timestamps and computes windowed snapshots on demand — QPS,
per-status rates, and latency quantiles over the trailing window —
without unbounded growth and without any work on the hot path beyond one
list append (the buffer is trimmed amortized; NumPy enters only at
snapshot time, which runs per dashboard refresh, not per request).

`TimeseriesHub` keeps one ring of (timestamp, status, latency) events,
snapshotting into the payload the ``STATS`` verb and the ``repro top``
dashboard render.
"""

from __future__ import annotations

import time

import numpy as np

__all__ = ["TimeseriesHub"]

_QS = (0.50, 0.95, 0.99)


def _quantiles_ms(values_s: np.ndarray) -> dict:
    """Latency summary (milliseconds) of a window's observations."""
    if values_s.size == 0:
        return {"count": 0, "mean": 0.0, "p50": 0.0, "p95": 0.0, "p99": 0.0, "max": 0.0}
    ms = values_s * 1e3
    p50, p95, p99 = (float(np.percentile(ms, q * 100)) for q in _QS)
    return {
        "count": int(ms.size),
        "mean": round(float(ms.mean()), 4),
        "p50": round(p50, 4),
        "p95": round(p95, 4),
        "p99": round(p99, 4),
        "max": round(float(ms.max()), 4),
    }


class TimeseriesHub:
    """Windowed request telemetry: one event ring, many views.

    Each `record(status, latency_s)` lands one event; `snapshot()`
    computes, over the trailing window: total QPS, per-status counts and
    rates, shed rate (the ``shed`` statuses over all events), and latency
    quantiles over the ``answered`` statuses — the live twin of the
    cumulative ``serve.*`` counters.
    """

    def __init__(
        self,
        statuses: tuple[str, ...],
        answered: tuple[str, ...] = (),
        shed: tuple[str, ...] = (),
        capacity: int = 16384,
        window_s: float = 10.0,
        clock=time.monotonic,
    ):
        if not statuses:
            raise ValueError("statuses must not be empty")
        unknown = [s for s in (*answered, *shed) if s not in statuses]
        if unknown:
            raise ValueError(f"unknown statuses {unknown} (have {list(statuses)})")
        self.statuses = tuple(statuses)
        self.window_s = window_s
        self.clock = clock
        self._idx = {s: i for i, s in enumerate(self.statuses)}
        self._answered = np.array([s in answered for s in self.statuses], dtype=bool)
        self._shed = np.array([s in shed for s in self.statuses], dtype=bool)
        self.capacity = capacity
        self._ev: list[tuple[float, float, int]] = []  # (timestamp, latency, status idx)

    def record(self, status: str, latency_s: float, t: float | None = None) -> None:
        ev = self._ev
        ev.append((self.clock() if t is None else t, latency_s, self._idx[status]))
        if len(ev) >= 2 * self.capacity:
            del ev[: len(ev) - self.capacity]

    def __len__(self) -> int:
        return min(len(self._ev), self.capacity)

    def snapshot(self, now: float | None = None, window_s: float | None = None) -> dict:
        now = self.clock() if now is None else now
        window_s = self.window_s if window_s is None else window_s
        ev = self._ev[-self.capacity :]
        t = np.array([e[0] for e in ev], dtype=np.float64)
        mask = t >= (now - window_s)
        t = t[mask]
        lat = np.array([e[1] for e in ev], dtype=np.float64)[mask]
        st = np.array([e[2] for e in ev], dtype=np.int64)[mask]
        span = max(min(window_s, (now - float(t.min())) if t.size else window_s), 1e-9)
        counts = np.bincount(st, minlength=len(self.statuses))
        total = int(counts.sum())
        shed = int(counts[self._shed].sum())
        answered_mask = self._answered[st]
        return {
            "window_s": round(float(window_s), 3),
            "qps": round(total / span, 2),
            "requests": total,
            "counts": {s: int(counts[i]) for i, s in enumerate(self.statuses)},
            "rates_per_s": {
                s: round(float(counts[i]) / span, 2) for i, s in enumerate(self.statuses)
            },
            "shed_rate": round(shed / total, 4) if total else 0.0,
            "latency_ms": _quantiles_ms(lat[answered_mask]),
        }
