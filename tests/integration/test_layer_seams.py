"""The repo benchmark's layer table must keep finding its seams.

`benchmarks/e2e/layers.py::LAYERS` binds each per-layer metric to dotted
callable names.  A refactor that renames or inlines one only earns a
stderr warning in traced runs and the layer silently reads 0 — so the
names are pinned here, where a rename fails tier-1 instead.
"""

import importlib.util
import pathlib
import sys

import pytest

E2E = pathlib.Path(__file__).resolve().parents[2] / "benchmarks" / "e2e"

# Names LAYERS still lists that no longer exist.  Exactly these: adding to
# this set means a layer went blind and CHANGES.md must say which and why.
KNOWN_GONE = {
    "repro.core.pipeline.make_aux_table",  # aux tables are built at seal
    # The per-record write entry points: no workload reached them, and each
    # layer is still measured through `add_many` / `append_many` / `finish`.
    "repro.storage.memtable.MemTable.add",
    "repro.storage.sstable.SSTableWriter.add",
    "repro.storage.log.ValueLog.append",
    # The row gather of the merge is inline (`values[idx]`); it is still
    # measured under `core.compact.self_s` through `produce_merged_epoch`.
    "repro.core.compact.take_values",
    # The spilling writer (memtable, sorted runs, their flatten) was deleted:
    # no workload ever ran it, and `storage.memtable.*` already read 0.
    "repro.storage.memtable.MemTable.add_many",
    "repro.storage.memtable.RunWriter.spill",
    "repro.core.pipeline.flatten_runs",
    # An alias of `Manifest.commit`, deleted: `write_epoch` calls `commit`,
    # which `storage.manifest.self_s` names too, so the layer still sees it.
    "repro.storage.manifest.Manifest.save",
    # Readers hold no handle and there is one engine class, so nothing is
    # left to close; both layers still see `get_many` and `scan_arrays`.
    "repro.core.reader.CachedQueryEngine.close",
    "repro.storage.sstable.SSTableReader.close",
    # The fleet router holds no aux views: every ring owner is a full
    # replica, so a key walks its owners in ring order and nothing claims,
    # plans or refreshes (ring time stays under `fleet.ring.self_s` through
    # `owners_many`, and `fleet.router.plan_self_s` reads 0).
    "repro.fleet.router.ShardAuxView.claim",
    "repro.fleet.router.FleetRouter.plan",
    "repro.fleet.router.FleetRouter.refresh",
    # The router no longer imports it; attach still rebuilds every table
    # through `repro.core.multiepoch.aux_from_blob`.
    "repro.fleet.router.aux_from_blob",
    # The `aux_state` verb that fed the views, end to end.
    "repro.core.multiepoch.MultiEpochStore.aux_blobs",
    "repro.serve.service.QueryService.aux_state",
    "repro.serve.proto.TCPClient.aux_state",
    # A dispatch window is now a loop-turn callback (`QueryService._dispatch`),
    # not a task body; `serve.service.self_s` still sees `QueryService.get`.
    "repro.serve.service.QueryService._dispatch_loop",
    # Views are built in `EpochMount.engine` (`QueryEngine.warm` of the
    # epoch's engine), which costs one call per epoch per generation.
    "repro.core.multiepoch.MultiEpochStore.cached_engine",
}


@pytest.fixture
def layers():
    """`layers.py`, loaded read-only with its directory importable (it
    names the harness's own `workloads` module as a top-level import)."""
    before = set(sys.modules)
    sys.path.insert(0, str(E2E))
    try:
        spec = importlib.util.spec_from_file_location("e2e_layers", E2E / "layers.py")
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        yield module
    finally:
        sys.path.remove(str(E2E))
        for name in set(sys.modules) - before:
            if str(E2E) in str(getattr(sys.modules[name], "__file__", "")):
                del sys.modules[name]


def test_every_layer_name_resolves(layers):
    gone = {
        dotted
        for names in layers.LAYERS.values()
        for dotted in names
        if not layers._owners(dotted)[0]
    }
    assert gone == KNOWN_GONE
