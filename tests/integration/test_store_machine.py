"""The whole store against a dict of live epochs, through every read surface.

`StoreMachine` drives a `MultiEpochStore` only through its real verbs:
`write_epoch` (also under a legacy cuckoo seal), `compact` of a window and
`compact()` under a drawn policy, a write or a merge that crashes (then
`MultiEpochStore.recover`) or fails on an I/O error, `attach` and `close`.
Its oracle holds the live epochs in data-recency order, each a ``key ->
value`` dict, and the retired ids.  A key two ranks wrote in one dump holds
the lower rank's value (filterkv's two writes differ; base and dataptr
write one value twice, since their "first written" follows the shuffle),
and a merge keeps each key's newest value.

After every rule, each live epoch and `ANY_EPOCH` must read as the oracle
says through four surfaces: the cold `store.engine(e)`, the store's own
`get` / `get_many` / `lookup*` / `trajectory`, one long-lived mount, and
one long-lived `QueryService.get_burst` on one event loop.  A retired id
must be refused naming its merged epoch, no read may move the device's
`footprint`, no mount may keep a view (nor a merge leave a `TableMeta`) of
a retired epoch, the finalizer registry may hold no more than one entry
per live view, and a served explicit-epoch burst must probe exactly the
partitions the cold engine searches.  `tests/reference/read.py` is the
oracle of one epoch's reads; this machine is the oracle of the whole store.

`test_store_machine` is the tier-1 profile and `test_store_machine_full`
its ``slow`` twin for the CI ``faults`` job; the replays after them pin
scripts whatever hypothesis draws.
"""

import asyncio
import collections
import weakref
from functools import partial

import numpy as np
import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
    run_state_machine_as_test,
)

from repro.core.compact import CompactionPolicy
from repro.core.formats import FMT_BASE, FMT_DATAPTR, FMT_FILTERKV
from repro.core.kv import KVBatch
from repro.core.multiepoch import EpochRetiredError, MultiEpochStore
from repro.faults import CrashPoint, FaultPlan, FaultSpec, FaultyStorageDevice
from repro.serve import ANY_EPOCH, ERR_EPOCH_RETIRED, ERROR, NOT_FOUND, OK, QueryService

from ..legacy import store_seals
from ..reference.read import footprint

VALUE_BYTES = 8
UNIVERSE = 48  # keys every write draws from, so epochs overlap
ABSENT = 4  # keys no write ever draws
SPARSE = 5  # the one-key surfaces read every SPARSE-th probe key

picks = st.lists(st.integers(0, UNIVERSE - 1), min_size=1, max_size=32, unique=True)
twice = st.integers(0, 6)  # keys a second rank writes again in the same dump
seeds = st.integers(0, 2**32 - 1)
ops = st.integers(0, 120)  # how many device operations into a step a crash lands


def faults(extents, manifest=False):
    """A crash at a drawn operation, or an I/O error on the first
    operation on one of the first four ranks' ``extents`` (``part`` or
    ``aux``): one past rank 0 leaves the lower ranks' extents written.
    With ``manifest``, also an I/O error on a manifest generation's append."""
    kinds = [
        st.just("crash"),
        st.builds("io_error {}.*.{:06d}".format, st.sampled_from(extents), st.integers(0, 3)),
    ]
    if manifest:
        kinds.append(st.just("io_error MANIFEST.*"))
    return st.one_of(*kinds)


policies = st.one_of(
    st.none(),
    st.builds(
        CompactionPolicy, max_live_epochs=st.integers(2, 5), merge_factor=st.integers(2, 4)
    ),
)


class Oracle:
    """Live epochs oldest data first, each a ``key -> value`` dict, the
    retired ids' merged epochs, and the next epoch id."""

    def __init__(self):
        self.order: list[int] = []
        self.data: dict[int, dict[int, bytes]] = {}
        self.merged_into: dict[int, int] = {}
        self.next_epoch = 0

    def write(self, rows: dict[int, bytes]) -> None:
        self.order.append(self.next_epoch)
        self.data[self.next_epoch] = rows
        self.next_epoch += 1

    def merge(self, window: list[int]) -> None:
        """Fold ``window``, a contiguous run of >= 2 live epochs, into one
        epoch at its newest member's place, newest values winning."""
        at = [self.order.index(e) for e in window]
        assert len(at) >= 2 and sorted(at) == list(range(min(at), max(at) + 1)), window
        merged = self.next_epoch
        union: dict[int, bytes] = {}
        for epoch in self.order[min(at) : max(at) + 1]:  # oldest first
            union.update(self.data.pop(epoch))
        self.order[min(at) : max(at) + 1] = [merged]
        self.data[merged] = union
        for old, target in self.merged_into.items():
            if target in window:
                self.merged_into[old] = merged
        self.merged_into.update((e, merged) for e in window)
        self.next_epoch += 1

    def adopt(self, manifest, rows=None) -> list[int]:
        """Take what ``manifest`` committed of one step — the write of
        ``rows`` if it landed, then any merge — and return the merged
        window (empty: no merge)."""
        if rows is not None and manifest.next_epoch > self.next_epoch:
            self.write(rows)
        window = sorted(
            (e for e in manifest.compacted if e not in self.merged_into), key=self.order.index
        )
        if window:
            self.merge(window)
        assert manifest.epoch_ids == self.order
        assert manifest.next_epoch == self.next_epoch
        assert manifest.compacted == self.merged_into
        return window

    def newest(self, key: int) -> tuple[bytes | None, int | None]:
        for epoch in reversed(self.order):
            if key in self.data[epoch]:
                return self.data[epoch][key], epoch
        return None, None


def finalizers_on(engines) -> int:
    """Entries of the process's `weakref.finalize` registry watching one
    of ``engines``."""
    ids = {id(engine) for engine in engines}
    return sum(
        1
        for finalizer in list(weakref.finalize._registry)
        if (watched := finalizer.peek()) is not None and id(watched[0]) in ids
    )


class StoreMachine(RuleBasedStateMachine):
    def __init__(self, runs: collections.Counter | None = None):
        super().__init__()
        # Examples, checks and crash recoveries, summed over a whole run.
        self.runs = runs if runs is not None else collections.Counter()

    # -- setup -------------------------------------------------------------

    @initialize(
        fmt=st.sampled_from([FMT_BASE, FMT_DATAPTR, FMT_FILTERKV]),
        nranks=st.sampled_from([4, 16]),
        policy=policies,
        seed=seeds,
        picks=picks,
        twice=twice,
    )
    def initialize(self, fmt, nranks, policy, seed, picks, twice):
        """A store with one epoch on a fault-injecting device, its oracle,
        one long-lived mount and one long-lived service on one loop."""
        self.runs["examples"] += 1
        self.fmt, self.nranks, self.policy = fmt, nranks, policy
        rng = np.random.default_rng(seed)
        self.probe = np.concatenate(
            [
                rng.integers(0, 2**63, size=UNIVERSE, dtype=np.uint64),
                rng.integers(2**63, 2**64 - 1, size=ABSENT, dtype=np.uint64),
            ]
        )
        self.keys = [int(k) for k in self.probe]
        self.oracle = Oracle()
        self.false_candidates = 0  # present keys a cuckoo epoch gave > 1 candidate
        self.loop = asyncio.new_event_loop()
        store = MultiEpochStore(
            nranks=nranks, fmt=fmt, value_bytes=VALUE_BYTES, seed=seed,
            device=FaultyStorageDevice(FaultPlan(seed)), compaction=policy,
        )
        self.store = self.mount = self.svc = None
        self._serve(store)
        self.write_epoch(picks, twice, seed)

    def _serve(self, store: MultiEpochStore) -> None:
        """Read ``store`` from now on: the old store's mount and service
        close, and new ones open on the same loop."""
        if self.store is not None:
            self.loop.run_until_complete(self.svc.close())
            self.mount.close()
            self.store.close()
        store.compaction_policy = self.policy  # attach and recover do not persist it
        self.store = store
        self.mount = store.mount(table_cache_entries=1)
        self.svc = QueryService(store, max_inflight=1 << 16, queue_high_watermark=1 << 16)

    def teardown(self):
        if getattr(self, "store", None) is not None:
            self.loop.run_until_complete(self.svc.close())
            self.mount.close()
            self.store.close()
        if hasattr(self, "loop"):
            self.loop.close()

    # -- rules -------------------------------------------------------------

    def _dump(self, picks, twice, seed) -> tuple[list[KVBatch], dict[int, bytes]]:
        """One dump of the universe keys ``picks``, each on a drawn rank,
        the first ``twice`` of them written again by a second rank (with
        other values under filterkv), and the rows the oracle expects."""
        rng = np.random.default_rng(seed)
        n, again = len(picks), min(twice, len(picks))
        ranks = rng.integers(self.nranks, size=n)
        second = (ranks[:again] + rng.integers(1, self.nranks, again)) % self.nranks
        ranks = np.concatenate([ranks, second])
        values = rng.integers(0, 256, size=(n + again, VALUE_BYTES), dtype=np.uint8)
        if self.fmt is not FMT_FILTERKV:
            values[n:] = values[:again]
        keys = self.probe[np.concatenate([picks, picks[:again]]).astype(np.int64)]
        batches = [KVBatch(keys[ranks == r], values[ranks == r]) for r in range(self.nranks)]
        rows: dict[int, bytes] = {}
        for i in np.argsort(-ranks, kind="stable"):  # the lowest writer last
            rows[int(keys[i])] = values[i].tobytes()
        return batches, rows

    def _step(self, step, rows=None):
        """Run ``step`` (a write of ``rows``, if given) and adopt its
        outcome, holding weakrefs to every resident table metadata so a
        merge can be seen to free its sources'.  Returns the merged window
        (empty: no merge)."""
        metas = {
            e: [weakref.ref(m) for m in self.store.engine(e).metas if m is not None]
            for e in self.store.epochs
        }
        step()
        window = self.oracle.adopt(self.store.manifest, rows)
        for epoch in window:
            dead = all(ref() is None for ref in metas.get(epoch, ()))
            assert dead, f"retired epoch {epoch}'s table metadata lives"
        return window

    def _policy_merges(self, live: int) -> int:
        """How many epochs the policy merges at ``live`` live epochs."""
        if self.policy is None or live < self.policy.max_live_epochs:
            return 0
        return min(self.policy.merge_factor, live)

    @rule(picks=picks, twice=twice, seed=seeds)
    def write_epoch(self, picks, twice, seed):
        batches, rows = self._dump(picks, twice, seed)
        live = len(self.oracle.order) + 1
        window = self._step(partial(self.store.write_epoch, batches), rows)
        assert len(window) == self._policy_merges(live)

    @precondition(lambda self: self.fmt is FMT_FILTERKV)
    @rule(picks=picks, twice=twice, seed=seeds)
    def write_cuckoo_epoch(self, picks, twice, seed):
        """A write of the kind stores made before every store sealed csf."""
        batches, rows = self._dump(picks, twice, seed)
        epoch = self.oracle.next_epoch
        with store_seals("cuckoo"):
            self._step(partial(self.store.write_epoch, batches), rows)
        if epoch in self.store.epochs:  # a policy merge may have taken it
            engine = self.store.engine(epoch)
            owner = engine.partitioner.partition_of_one
            self.false_candidates += sum(
                len(engine.aux_tables[owner(k)].candidate_ranks(k)) > 1 for k in rows
            )

    def _window(self, start, extra) -> list[int]:
        """A contiguous window of >= 2 live epochs, from two draws."""
        live = self.store.epochs
        lo = start % (len(live) - 1)
        return live[lo : lo + 2 + extra % (len(live) - lo - 1)]

    @precondition(lambda self: len(self.store.epochs) >= 2)
    @rule(start=st.integers(0, 15), extra=st.integers(0, 15))
    def compact_window(self, start, extra):
        window = self._window(start, extra)
        assert self._step(partial(self.store.compact, window)) == window

    @rule()
    def compact(self):
        """`compact()`: what the policy picks, or every live epoch."""
        live = len(self.store.epochs)
        if self.policy is not None:
            want = self._policy_merges(live)
        else:
            want = live if live >= 2 else 0
        assert len(self._step(self.store.compact)) == want

    def _failing(self, kind: str, at: int, step) -> None:
        """Run ``step`` with a fault: a crash ``at`` operations on (then
        `recover`), or an ``io_error <extent glob>`` on the first operation
        on a matching extent, which leaves the store as it was before the
        step."""
        device = self.store.device
        kind, _, pattern = kind.partition(" ")
        at = at if kind == "crash" else 0
        spec = FaultSpec(kind, op=device.op_index + at, pattern=pattern or None)
        device.plan.add(spec)
        try:
            step()
        except CrashPoint:
            self.runs["recoveries"] += 1
            store, report = MultiEpochStore.recover(device)
            assert report.quarantined_epochs == [], report
            self._serve(store)
        except OSError as e:
            assert "injected I/O error" in str(e)
        finally:
            if not spec.fired:
                device.plan.specs.remove(spec)

    @rule(picks=picks, twice=twice, seed=seeds, kind=faults(["part", "aux"], manifest=True), at=ops)
    def write_fails(self, picks, twice, seed, kind, at):
        """A write that fails partway: the store keeps the pre-step or the
        post-step epoch set (a policy merge after it may land or not).  A
        write appends every rank's table and aux extent before it commits,
        so an I/O error always lands before the commit or on its append,
        and the store keeps the epochs it had."""
        batches, rows = self._dump(picks, twice, seed)
        before = self.oracle.next_epoch
        merges = self._policy_merges(len(self.oracle.order) + 1)
        write = partial(self.store.write_epoch, batches)
        window = self._step(partial(self._failing, kind, at, write), rows)
        assert not window or (self.oracle.next_epoch == before + 2 and len(window) == merges)

    @precondition(lambda self: len(self.store.epochs) >= 2)
    @rule(start=st.integers(0, 15), extra=st.integers(0, 15), kind=faults(["part", "aux"]), at=ops)
    def compact_fails(self, start, extra, kind, at):
        """A merge that fails partway.  It reads the merged epoch's aux
        tables back, adopted and written, before it commits, so an I/O
        error on any table or aux extent leaves the merge uncommitted."""
        window = self._window(start, extra)
        merge = partial(self.store.compact, window)
        got = self._step(partial(self._failing, kind, at, merge))
        assert got in ([], window)

    @rule()
    def attach(self):
        self._serve(MultiEpochStore.attach(self.store.device))
        self.oracle.adopt(self.store.manifest)

    @rule()
    def close(self):
        """`store.close()` and the mount's `close`, as every benchmark
        round does; later reads rebuild what they need."""
        self.store.close()
        self.mount.close()
        for epoch in self.store.epochs:
            engine = self.store.engine(epoch)
            assert engine.metas == [None] * self.nranks and not engine.aux_charged

    # -- invariants --------------------------------------------------------

    def _mounts(self):
        return (self.store._reads, self.store._warm, self.mount, self.svc._mount)

    @invariant()
    def views_follow_live_epochs(self):
        """No mount keeps a view of a retired epoch, and the finalizer
        registry holds at most one entry per live view."""
        self.runs["checks"] += 1
        live = set(self.store.epochs)
        for mount in self._mounts():
            assert set(mount._engines) <= live, "a view of a retired epoch"
        views = sum(len(mount._engines) for mount in self._mounts())
        engines = [self.store.engine(e) for e in self.store.epochs]
        assert finalizers_on(engines) <= views

    @invariant()
    def reads_match_the_oracle(self):
        store, oracle, keys, probe = self.store, self.oracle, self.keys, self.probe
        assert store.epochs == oracle.order
        before = footprint(store.device)
        newest = oracle.order[-1]
        for epoch in oracle.order:
            want = [oracle.data[epoch].get(k) for k in keys]
            values, stats = store.engine(epoch).get_many(probe)
            assert values == want, f"cold engine, epoch {epoch}"
            assert store.get_many(probe, epoch)[0] == want
            assert [store.get(k, epoch)[0] for k in keys[::SPARSE]] == want[::SPARSE]
            assert self.mount.get_many(probe, epoch)[0] == want
            searched = [s.partitions_searched for s in stats]
            self._served(epoch, [(v, epoch) for v in want], searched)

        want = [oracle.newest(k) for k in keys]
        sparse = want[::SPARSE]
        assert [store.lookup(k, cached=False)[:2] for k in keys[::SPARSE]] == sparse
        assert [store.lookup(k)[:2] for k in keys[::SPARSE]] == sparse
        assert list(zip(*store.lookup_many(probe)[:2])) == want
        assert list(zip(*self.mount.lookup_many(probe)[:2])) == want
        for k in keys[::4 * SPARSE]:
            assert [(e, v) for e, v, _ in store.trajectory(k)] == [
                (e, oracle.data[e].get(k)) for e in oracle.order
            ]
        self._served(ANY_EPOCH, [(v, e if v is not None else newest) for v, e in want])

        for retired, merged in oracle.merged_into.items():
            for read in (
                store.engine,
                lambda e: store.get(keys[0], e),
                lambda e: store.get_many(probe, e),
                lambda e: self.mount.get_many(probe, e),
            ):
                with pytest.raises(EpochRetiredError) as info:
                    read(retired)
                assert info.value.merged == merged
            self._refused(retired, ERR_EPOCH_RETIRED, f"merged epoch {merged}")
        with pytest.raises(KeyError):
            store.get(keys[0], oracle.next_epoch)
        self._refused(oracle.next_epoch, "unknown_epoch", "no such epoch")
        assert footprint(store.device) == before, "a read changed the device"

    def _served(self, epoch, want, searched=None):
        """One burst of every probe key at ``epoch`` (a fifth of them
        twice) answers ``want``'s ``(value, epoch)`` pairs.  Given the cold
        engine's per-key ``searched``, the burst must probe exactly those
        partitions for the keys it did not answer from its result cache."""
        m = self.svc.metrics
        probed = m.total("reader.partitions_probed")
        keys = self.keys + self.keys[::SPARSE]
        replies = self.loop.run_until_complete(
            self.svc.get_burst([(k, epoch, None, None) for k in keys])
        )
        for r, (value, found) in zip(replies, want + want[::SPARSE]):
            status = OK if value is not None else NOT_FOUND
            assert (r.status, r.value, r.epoch) == (status, value, found), (epoch, r)
        if searched is not None:
            fresh = sum(s for s, r in zip(searched, replies) if not r.cached)
            assert m.total("reader.partitions_probed") - probed == fresh

    def _refused(self, epoch, code, detail):
        replies = self.loop.run_until_complete(
            self.svc.get_burst([(k, epoch, None, None) for k in self.keys[::SPARSE]])
        )
        for r in replies:
            assert (r.status, r.code, r.value) == (ERROR, code, None), r
            assert detail in r.detail


# Tier-1 draws the same examples on every run; the slow twin explores.
FAST = settings(max_examples=20, stateful_step_count=12, deadline=None, derandomize=True)
FULL = settings(max_examples=300, stateful_step_count=25, deadline=None)


def _run(profile):
    runs = collections.Counter()
    run_state_machine_as_test(lambda: StoreMachine(runs), settings=profile)
    rules = runs["checks"] - runs["examples"]  # one check after `initialize`, one per rule
    print(
        f"store machine: {runs['examples']} examples, {rules} rules, "
        f"{runs['recoveries']} crash recoveries"
    )


def test_store_machine():
    _run(FAST)


@pytest.mark.slow
def test_store_machine_full():
    _run(FULL)


# -- replays -----------------------------------------------------------------


def _replay(steps, **init):
    """Drive one `StoreMachine` through ``steps`` (``(rule, kwargs)``
    pairs), checking every invariant after each, as hypothesis would."""
    machine = StoreMachine()
    try:
        machine.initialize(**init)
        for name, kwargs in [(None, {})] + steps:
            if name is not None:
                getattr(machine, name)(**kwargs)
            machine.views_follow_live_epochs()
            machine.reads_match_the_oracle()
        return machine
    finally:
        machine.teardown()


def _write(seed):
    """A `write_epoch` step of every other universe key from ``seed % 8``."""
    return ("write_epoch", {"picks": list(range(seed % 8, UNIVERSE, 2)), "twice": 4, "seed": seed})


@pytest.mark.parametrize("fmt", [FMT_BASE, FMT_DATAPTR, FMT_FILTERKV], ids=lambda f: f.name)
def test_write_compact_write_compact(fmt):
    """Three writes (the first in `initialize`), a merge of the two
    oldest, a write, a merge of all: every surface agrees after each step."""
    machine = _replay(
        [
            _write(1),
            _write(2),
            ("compact_window", {"start": 0, "extra": 0}),
            _write(3),
            ("compact", {}),
        ],
        fmt=fmt, nranks=4, policy=None, seed=41, picks=list(range(0, UNIVERSE, 3)), twice=4,
    )
    assert machine.oracle.order == [5] and machine.oracle.merged_into == {e: 5 for e in range(5)}


def test_sixteen_rank_cuckoo_epochs_meet_false_candidates():
    """At 16 ranks a legacy cuckoo epoch's 4-bit fingerprints give present
    keys false candidates, and every surface still answers as the oracle
    does, through a merge that rewrites the aux tables as csf."""
    cuckoo = [("write_cuckoo_epoch", step[1]) for step in (_write(5), _write(6))]
    machine = _replay(
        cuckoo + [("compact_window", {"start": 0, "extra": 0}), ("compact", {})],
        fmt=FMT_FILTERKV, nranks=16, policy=None, seed=7, picks=list(range(UNIVERSE)), twice=6,
    )
    assert machine.false_candidates > 0


@pytest.mark.parametrize("fmt", [FMT_BASE, FMT_DATAPTR, FMT_FILTERKV], ids=lambda f: f.name)
def test_a_failed_write_then_its_retry(fmt):
    """A write fails at its first operation on rank 1's table (its aux
    extent, under filterkv) and leaves rank 0's behind; the retry takes
    the same epoch id, and an attach reads exactly what the retry sealed."""
    prefix = "aux" if fmt is FMT_FILTERKV else "part"
    failing = ("write_fails", {**_write(1)[1], "kind": f"io_error {prefix}.*.000001", "at": 0})
    machine = _replay(
        [failing, _write(2), ("attach", {})],
        fmt=fmt, nranks=4, policy=None, seed=3, picks=list(range(0, UNIVERSE, 3)), twice=4,
    )
    assert machine.oracle.order == [0, 1]


def test_an_aux_read_error_in_a_merge_commits_nothing():
    """A merge that adopts every aux partition reads the adopted blobs
    back to build the merged epoch's engine.  That read comes before the
    commit, so an I/O error on it leaves the sources live and the merge
    an orphan, and every surface still reads the sources."""
    failing = ("compact_fails", {"start": 0, "extra": 0, "kind": "io_error aux.*", "at": 0})
    machine = _replay(
        [("write_epoch", {"picks": [0, 27, 45], "twice": 0, "seed": 0}), failing, ("attach", {})],
        fmt=FMT_FILTERKV, nranks=4, policy=None, seed=5, picks=[0, 1], twice=0,
    )
    assert machine.oracle.order == [0, 1] and machine.oracle.merged_into == {}


@pytest.mark.parametrize("fmt", [FMT_BASE, FMT_FILTERKV], ids=lambda f: f.name)
def test_a_failed_manifest_append_lists_no_epoch(fmt):
    """A write whose manifest append fails has written every table and
    aux extent, but the store must not list the epoch: an attach reads
    the device's manifest, and the next write must not make the failed
    epoch durable.  Two such failures leave two newer generations that
    do not validate; a crash recovery after them must keep the one that
    does, not the two newest names.  The retry takes the same epoch id."""
    failing = ("write_fails", {**_write(1)[1], "kind": "io_error MANIFEST.*", "at": 0})
    crash = ("write_fails", {**_write(3)[1], "kind": "crash", "at": 0})
    machine = _replay(
        [failing, ("attach", {}), failing, crash, _write(2), ("attach", {})],
        fmt=fmt, nranks=4, policy=None, seed=3, picks=list(range(0, UNIVERSE, 3)), twice=4,
    )
    assert machine.oracle.order == [0, 1]
