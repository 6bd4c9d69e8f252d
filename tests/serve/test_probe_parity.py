"""Serve-tier probe parity: the service's filterkv probe *is* the engine's.

`QueryService` answers a dispatch window with one `QueryEngine.get_many`
call, handing it the negative cache.  This property drives one key
multiset through the service twice over stores whose aux tables are
forced to produce false candidates (4-bit cuckoo fingerprints, >= 16
ranks: the stores seal ``("cuckoo",)`` explicitly, since the default csf
seal gives a present key no false candidate) and pins what that one
candidate walk must deliver.
"""

import asyncio

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.formats import FMT_FILTERKV
from repro.serve import ANY_EPOCH, QueryService

from .conftest import run, shared_store

ABSENT_BASE = 1 << 63  # stored keys are random 63-bit values


def _store(nranks, seed):
    store, truth = shared_store(
        FMT_FILTERKV, nranks=nranks, records=60, seed=seed, aux_backends=("cuckoo",)
    )
    present = sorted(truth[0])
    engine = store.engine(0)
    assert any(
        len(engine.aux_tables[engine.partitioner.partition_of_one(k)].candidate_ranks(k)) > 1
        for k in present
    ), "store has no aux false candidates: the property would be vacuous"
    return store, present


@settings(max_examples=25, deadline=None)
@given(
    nranks=st.sampled_from([16, 32]),
    seed=st.sampled_from([7, 11]),
    picks=st.lists(st.integers(0, 4095), min_size=1, max_size=96),
    absent=st.lists(st.integers(0, 1 << 20), max_size=8),
)
def test_served_probe_matches_engine_and_skips_refuted(nranks, seed, picks, absent):
    store, present = _store(nranks, seed)
    keys = [present[i % len(present)] for i in picks] + [ABSENT_BASE + a for a in absent]
    engine = store.engine(0)
    want = {k: engine.get(k)[0] for k in set(keys)}
    found = sum(v is not None for v in want.values())
    baseline = store.device.open_handles

    async def main():
        svc = QueryService(store, max_inflight=4096, queue_high_watermark=4096)
        async with svc:
            m = svc.metrics
            # Pass 1 walks all epochs, pass 2 addresses the epoch: the
            # result cache keys differ, so every distinct key reaches the
            # engine once per pass, while both passes probe epoch 0 and
            # share its negative-cache entries.
            for epoch in (ANY_EPOCH, 0):
                probed = m.total("reader.partitions_probed")
                queried = m.total("reader.queries")
                replies = await asyncio.gather(*(svc.get(k, epoch=epoch) for k in keys))
                for k, r in zip(keys, replies):
                    assert r.value == want[k]
                assert m.total("reader.queries") - queried == len(want)
            # Second pass: every refuted candidate skipped, so a present
            # key costs exactly one partition probe and an absent key none.
            assert m.total("reader.partitions_probed") - probed == found
            neg = svc.stats()["negative_cache"]
            assert neg["skipped_probes"] == neg["inserts"]

    run(main())
    assert store.device.open_handles == baseline
