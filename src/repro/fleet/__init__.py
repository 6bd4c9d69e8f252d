"""`repro.fleet` — sharded multi-node serving over a consistent-hash ring.

A consistent-hash ring places keys on `ShardNode`s (each a recovered
`MultiEpochStore` behind its own `QueryService`, with R-way replication:
every ring owner of a key holds it), and a `FleetRouter` holds no data
and no routing state: it asks each key's ring owners in ring order, with
circuit breaking, retry and replica failover when shards crash.  `Fleet`
assembles the whole thing from a `FleetSpec` and rolls per-shard
telemetry up into ``fleet.*`` series.  See each module's docstring for the
design detail.
"""

from .fleet import Fleet, FleetSpec
from .ring import HashRing
from .router import CircuitBreaker, FleetRouter
from .shard import ShardNode

__all__ = [
    "Fleet",
    "FleetSpec",
    "HashRing",
    "FleetRouter",
    "CircuitBreaker",
    "ShardNode",
]
