"""`repro.fleet` — sharded multi-node serving with aux-table routing.

The paper's compact filters, applied one tier up (ROADMAP item 1): a
consistent-hash ring places keys on `ShardNode`s (each a recovered
`MultiEpochStore` behind its own `QueryService`, with R-way replication),
and a `FleetRouter` holds *only the shards' sealed aux blobs* — rebuilt
into probing tables, never values or SSTables — to forward each query to
the shard most likely to answer it, with circuit breaking, retry and
replica failover when shards crash.  `Fleet` assembles the
whole thing from a `FleetSpec` and rolls per-shard telemetry up into
``fleet.*`` series.  See each module's docstring for the design detail.
"""

from .fleet import Fleet, FleetSpec
from .ring import HashRing
from .router import CircuitBreaker, FleetRouter, ShardAuxView
from .shard import ShardNode

__all__ = [
    "Fleet",
    "FleetSpec",
    "HashRing",
    "FleetRouter",
    "ShardAuxView",
    "CircuitBreaker",
    "ShardNode",
]
