"""Serve-tier probe parity: the service's filterkv probe *is* the engine's.

`QueryService` answers a dispatch window with one `QueryEngine.get_many`
call.  This property drives one key multiset through the service twice
over stores whose aux tables are forced to produce false candidates
(4-bit cuckoo fingerprints, >= 16 ranks: the stores seal ``("cuckoo",)``
explicitly, since the default csf seal gives a present key no false
candidate) and pins what that one candidate walk must deliver: the
engine's answers and the engine's probes, false candidates included.
"""

import asyncio

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.formats import FMT_FILTERKV
from repro.serve import ANY_EPOCH, QueryService

from ..reference.read import footprint
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
def test_served_probe_matches_engine(nranks, seed, picks, absent):
    store, present = _store(nranks, seed)
    keys = [present[i % len(present)] for i in picks] + [ABSENT_BASE + a for a in absent]
    engine = store.engine(0)
    answers = {k: engine.get(k) for k in set(keys)}
    want = {k: value for k, (value, _) in answers.items()}
    searched = sum(stats.partitions_searched for _, stats in answers.values())
    baseline = footprint(store.device)

    async def main():
        svc = QueryService(store, max_inflight=4096, queue_high_watermark=4096)
        async with svc:
            m = svc.metrics
            # Pass 1 walks all epochs, pass 2 addresses the epoch: the
            # result cache keys differ, so every distinct key reaches the
            # engine once per pass, and each pass probes epoch 0 exactly
            # as the engine does: every candidate, false ones included.
            for epoch in (ANY_EPOCH, 0):
                probed = m.total("reader.partitions_probed")
                queried = m.total("reader.queries")
                replies = await asyncio.gather(*(svc.get(k, epoch=epoch) for k in keys))
                for k, r in zip(keys, replies):
                    assert r.value == want[k]
                assert m.total("reader.queries") - queried == len(want)
                assert m.total("reader.partitions_probed") - probed == searched

    run(main())
    assert footprint(store.device) == baseline
