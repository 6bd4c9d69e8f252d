"""Metric primitives and the hierarchical registry.

One `MetricsRegistry` holds every measurement a run produces: counters
(monotonic totals — records shuffled, bytes on the wire), gauges (last
observed level — table utilization, chain length), and histograms (full
distributions — span durations, read amplification per query).  Series
are identified by a dotted name plus a label set, so the same counter can
exist once per format, per rank, or per storage category and still be
rolled up afterwards with `MetricsRegistry.rollup`.

Instrumented code never checks "is telemetry on?": the disabled path is a
`NullRegistry` whose instruments are shared no-op singletons, so hot loops
pay one attribute call on a do-nothing object.  Components take an
optional ``metrics`` argument and normalize it with `active`::

    self.metrics = active(metrics)                  # None -> NULL_REGISTRY
    self._wire_bytes = self.metrics.counter("pipeline.wire_bytes",
                                            format=fmt.name, rank=rank)
    ...
    self._wire_bytes.inc(len(payload))              # no-op when disabled
"""

from __future__ import annotations

import math
from typing import Iterator

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NullRegistry",
    "NULL_REGISTRY",
    "active",
    "LabelSet",
]

LabelSet = tuple[tuple[str, str], ...]


def _labelset(labels: dict) -> LabelSet:
    """Normalize a label dict to a hashable, sorted (key, value) tuple."""
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


class Counter:
    """Monotonically increasing total."""

    __slots__ = ("value",)
    kind = "counter"

    def __init__(self):
        self.value = 0

    def inc(self, n: int | float = 1) -> None:
        if n < 0:
            raise ValueError(f"counters only go up, got {n}")
        self.value += n

    def _merge(self, other: "Counter") -> None:
        self.value += other.value

    def _state(self):
        return {"value": self.value}


class Gauge:
    """Last observed level (can move both ways)."""

    __slots__ = ("value",)
    kind = "gauge"

    def __init__(self):
        self.value = 0.0

    def set(self, v: float) -> None:
        self.value = v

    def inc(self, n: float = 1) -> None:
        self.value += n

    def dec(self, n: float = 1) -> None:
        self.value -= n

    def _merge(self, other: "Gauge") -> None:
        self.value = other.value  # last writer wins across a merge

    def _state(self):
        return {"value": self.value}


class Histogram:
    """Distribution of observed values (kept exact; runs are sim-scale)."""

    __slots__ = ("_values",)
    kind = "histogram"

    def __init__(self):
        self._values: list[float] = []

    def observe(self, v: float) -> None:
        self._values.append(float(v))

    def observe_many(self, values) -> None:
        """`observe` each of ``values``, in order."""
        self._values.extend(map(float, values))

    @property
    def count(self) -> int:
        return len(self._values)

    @property
    def total(self) -> float:
        return sum(self._values)

    @property
    def mean(self) -> float:
        return self.total / len(self._values) if self._values else 0.0

    @property
    def min(self) -> float:
        return min(self._values) if self._values else 0.0

    @property
    def max(self) -> float:
        return max(self._values) if self._values else 0.0

    def quantile(self, q: float) -> float:
        """Linear-interpolated quantile, q in [0, 1]."""
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        if not self._values:
            return 0.0
        xs = sorted(self._values)
        pos = q * (len(xs) - 1)
        lo = math.floor(pos)
        hi = math.ceil(pos)
        if lo == hi:
            return xs[lo]
        frac = pos - lo
        return xs[lo] * (1 - frac) + xs[hi] * frac

    def quantiles(self, qs=(0.5, 0.9, 0.95, 0.99)) -> dict[float, float]:
        return {q: self.quantile(q) for q in qs}

    def _merge(self, other: "Histogram") -> None:
        self._values.extend(other._values)

    def _state(self):
        return {
            "count": self.count,
            "total": self.total,
            "min": self.min,
            "max": self.max,
            "mean": self.mean,
            "p50": self.quantile(0.5),
            "p90": self.quantile(0.9),
            "p95": self.quantile(0.95),
            "p99": self.quantile(0.99),
            "values": list(self._values),
        }


_KINDS = {"counter": Counter, "gauge": Gauge, "histogram": Histogram}


class MetricsRegistry:
    """Hierarchical store of labeled metric series.

    Series names are dotted paths (``layer.metric``); each (name, labels)
    pair maps to exactly one instrument, created on first use.  Asking for
    an existing series with a different kind is an error — a name means one
    thing everywhere.
    """

    def __init__(self, name: str = ""):
        self.name = name
        self._series: dict[tuple[str, LabelSet], Counter | Gauge | Histogram] = {}

    # -- instrument access -------------------------------------------------

    def _instrument(self, kind: str, name: str, labels: dict):
        key = (name, _labelset(labels))
        inst = self._series.get(key)
        if inst is None:
            inst = _KINDS[kind]()
            self._series[key] = inst
        elif inst.kind != kind:
            raise ValueError(f"metric {name!r} already registered as {inst.kind}, not {kind}")
        return inst

    def counter(self, name: str, **labels) -> Counter:
        return self._instrument("counter", name, labels)

    def gauge(self, name: str, **labels) -> Gauge:
        return self._instrument("gauge", name, labels)

    def histogram(self, name: str, **labels) -> Histogram:
        return self._instrument("histogram", name, labels)

    # -- inspection --------------------------------------------------------

    def series(self) -> Iterator[tuple[str, LabelSet, Counter | Gauge | Histogram]]:
        """Every (name, labels, instrument), sorted for stable output."""
        for (name, labels), inst in sorted(self._series.items()):
            yield name, labels, inst

    def __len__(self) -> int:
        return len(self._series)

    def total(self, name: str, **label_filter) -> float:
        """Sum of counter values (or histogram totals) across every series
        with this name whose labels include ``label_filter``."""
        want = set(_labelset(label_filter))
        out = 0.0
        for (n, labels), inst in self._series.items():
            if n != name or not want.issubset(labels):
                continue
            out += inst.total if isinstance(inst, Histogram) else inst.value
        return out

    # -- combination -------------------------------------------------------

    def merge(self, other: "MetricsRegistry", **extra_labels) -> "MetricsRegistry":
        """Fold another registry into this one, in place.

        ``extra_labels`` are added to every incoming series — the rank-
        aggregation pattern: ``global.merge(rank_registry, rank=r)``.
        Counters add, histograms pool observations, gauges keep the
        incoming value.  Returns self for chaining.
        """
        for (name, labels), inst in other._series.items():
            merged = dict(labels)
            merged.update({k: str(v) for k, v in extra_labels.items()})
            self._instrument(inst.kind, name, merged)._merge(inst)
        return self

    def rollup(self, *drop_labels: str) -> "MetricsRegistry":
        """New registry with the given label keys removed, series combined.

        ``registry.rollup("rank")`` turns per-rank series into cluster-wide
        totals while leaving every other label (format, category) intact.
        """
        out = MetricsRegistry(self.name)
        for (name, labels), inst in self._series.items():
            kept = {k: v for k, v in labels if k not in drop_labels}
            out._instrument(inst.kind, name, kept)._merge(inst)
        return out


class _NullCounter(Counter):
    __slots__ = ()

    def inc(self, n=1):
        pass


class _NullGauge(Gauge):
    __slots__ = ()

    def set(self, v):
        pass

    def inc(self, n=1):
        pass

    def dec(self, n=1):
        pass


class _NullHistogram(Histogram):
    __slots__ = ()

    def observe(self, v):
        pass

    def observe_many(self, values):
        pass


class NullRegistry(MetricsRegistry):
    """The disabled path: hands out shared do-nothing instruments.

    Never accumulates state, so instrumentation left in a hot loop costs
    one method call on a no-op object and tier-1 perf tests see nothing.
    """

    _COUNTER = _NullCounter()
    _GAUGE = _NullGauge()
    _HISTOGRAM = _NullHistogram()

    def __init__(self):
        super().__init__("null")

    def counter(self, name: str, **labels) -> Counter:
        return self._COUNTER

    def gauge(self, name: str, **labels) -> Gauge:
        return self._GAUGE

    def histogram(self, name: str, **labels) -> Histogram:
        return self._HISTOGRAM

    def merge(self, other, **extra_labels):
        return self

    def rollup(self, *drop_labels):
        return self


NULL_REGISTRY = NullRegistry()


def active(metrics: MetricsRegistry | None) -> MetricsRegistry:
    """Normalize an optional registry argument: ``None`` means disabled."""
    return metrics if metrics is not None else NULL_REGISTRY
