"""The serving tier's result cache.

`LRUCache` maps ``(epoch, key)`` to a finished response ``(status,
value)``.  Epochs are immutable once committed, so an entry can never go
stale for the epoch it names — committing a *new* epoch changes which
epoch an unqualified query resolves to, which versions the cache keys
instead of invalidating entries (see `repro.serve.service`).

It is a plain LRU over an `OrderedDict` — runs are single-event-loop, so
no locking — and reports ``serve.result_cache.{hits,misses,evictions}``
into `repro.obs`.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Any, Hashable

from ..obs import MetricsRegistry, active

__all__ = ["LRUCache"]


class LRUCache:
    """Bounded map with least-recently-used eviction and telemetry.

    ``lookup`` returns ``(hit, value)`` and counts the outcome;
    ``insert`` adds/refreshes an entry, evicting the coldest when full.
    """

    def __init__(self, capacity: int, metrics: MetricsRegistry | None = None):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = int(capacity)
        self._data: OrderedDict[Hashable, Any] = OrderedDict()
        metrics = active(metrics)
        self._m_hits = metrics.counter("serve.result_cache.hits")
        self._m_misses = metrics.counter("serve.result_cache.misses")
        self._m_evictions = metrics.counter("serve.result_cache.evictions")

    def lookup(self, key: Hashable) -> tuple[bool, Any]:
        try:
            value = self._data[key]
        except KeyError:
            self._m_misses.inc()
            return False, None
        self._data.move_to_end(key)
        self._m_hits.inc()
        return True, value

    def insert(self, key: Hashable, value: Any) -> None:
        self._data[key] = value
        self._data.move_to_end(key)
        if len(self._data) > self.capacity:
            self._data.popitem(last=False)
            self._m_evictions.inc()

    def clear(self) -> None:
        self._data.clear()

    def __len__(self) -> int:
        return len(self._data)

    def __contains__(self, key: Hashable) -> bool:  # no telemetry: peek only
        return key in self._data
