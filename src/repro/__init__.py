"""FilterKV: compact filters for fast online data partitioning.

A full reproduction of Zheng et al., *Compact Filters for Fast Online
Data Partitioning* (IEEE CLUSTER 2019), as an installable Python library:

* ``repro.filters`` — Bloom filters, partial-key cuckoo hash tables with
  chained growth, the compressed static function (maplet);
* ``repro.storage`` — value logs, flattened-LSM SSTables, Snappy-format
  compression, charged storage devices;
* ``repro.net`` — discrete-event RPC model, CPU/transport profiles
  (Haswell vs KNL), topologies, all-to-all flow model;
* ``repro.cluster`` — machine configs and an in-process simulated cluster
  with exact message/byte accounting;
* ``repro.core`` — the three partitioning formats (Base, DataPtr,
  FilterKV), auxiliary tables, write pipelines, read path, cost model;
* ``repro.apps`` — a reduced VPIC particle workload and KV generators;
* ``repro.analysis`` — Table I math and report rendering;
* ``repro.obs`` — unified telemetry: labeled counter/gauge/histogram
  registry threaded through every layer, JSON/JSONL export.

Quickstart::

    from repro.cluster import SimCluster
    from repro.core import FMT_FILTERKV

    cluster = SimCluster(nranks=16, fmt=FMT_FILTERKV, value_bytes=56)
    stats = cluster.run_epoch(records_per_rank=10_000)
    value, cost = cluster.query_engine().get(some_key)
"""

__version__ = "0.1.0"

from .cluster import SimCluster
from .core import FMT_BASE, FMT_DATAPTR, FMT_FILTERKV, QueryEngine
from .obs import MetricsRegistry

__all__ = [
    "__version__",
    "SimCluster",
    "FMT_BASE",
    "FMT_DATAPTR",
    "FMT_FILTERKV",
    "QueryEngine",
    "MetricsRegistry",
]
