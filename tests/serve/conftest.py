"""Shared fixtures for the serving-tier tests.

There is no async test plugin in the environment, so every test drives
its coroutine with ``asyncio.run`` via the `run` helper; stores are built
once per (format, shape) and memoized module-wide because ingestion
dominates test wall time.
"""

import asyncio

import numpy as np
import pytest

from repro.core.formats import FMT_BASE, FMT_DATAPTR, FMT_FILTERKV
from repro.core.kv import random_kv_batch
from repro.core.multiepoch import MultiEpochStore
from repro.serve import QueryService


ALL_FORMATS = [FMT_BASE, FMT_DATAPTR, FMT_FILTERKV]


def run(coro):
    return asyncio.run(coro)


async def until(predicate, timeout=5.0):
    """Yield to the loop until ``predicate()`` holds (bounded)."""

    async def spin():
        while not predicate():
            await asyncio.sleep(0)

    await asyncio.wait_for(spin(), timeout)


class GatedService(QueryService):
    """A `QueryService` whose dispatch windows wait for ``gate``: while it
    is shut, a window's callback defers to a task that awaits it, so
    admitted requests stay queued for as long as a test needs, with no
    timer.  `close` opens the gate (and answers what is queued)."""

    def __init__(self, store, **kwargs):
        super().__init__(store, **kwargs)
        self.gate = asyncio.Event()

    def _dispatch(self) -> None:
        if self.gate.is_set():
            super()._dispatch()
        else:
            asyncio.get_running_loop().create_task(self._after_gate())

    async def _after_gate(self) -> None:
        await self.gate.wait()
        super()._dispatch()

    async def close(self) -> None:
        self.gate.set()
        await super().close()


def fed_reader(data: bytes, eof: bool = True):
    """A `FrameReader` over a stream that already holds ``data`` (and, by
    default, has ended)."""
    from repro.serve.proto import FrameReader

    reader = asyncio.StreamReader()
    reader.feed_data(data)
    if eof:
        reader.feed_eof()
    return FrameReader(reader)


def build_store(fmt, nranks=8, records=200, epochs=1, value_bytes=24, seed=7):
    """A committed store plus per-epoch ground truth.

    Returns ``(store, truth)`` where ``truth[epoch]`` maps every key the
    epoch holds to its value bytes.  Keys are uniformly random, so the
    writer rank is uncorrelated with the hash owner (a store's csf still
    answers a present key with its one rank).
    """
    store = MultiEpochStore(nranks=nranks, fmt=fmt, value_bytes=value_bytes, seed=seed)
    rng = np.random.default_rng(seed)
    truth = {}
    for e in range(epochs):
        batches = [random_kv_batch(records, value_bytes, rng) for _ in range(nranks)]
        store.write_epoch(batches)
        truth[e] = {
            int(k): b.value_of(i) for b in batches for i, k in enumerate(b.keys)
        }
    return store, truth


_STORES: dict = {}


def shared_store(fmt, **kwargs):
    """Memoized `build_store` — callers must treat the store as read-only."""
    key = (fmt.name, tuple(sorted(kwargs.items())))
    if key not in _STORES:
        _STORES[key] = build_store(fmt, **kwargs)
    return _STORES[key]


@pytest.fixture(params=ALL_FORMATS, ids=lambda f: f.name)
def fmt(request):
    return request.param
