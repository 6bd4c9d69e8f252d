"""`repro.serve` — the concurrent online query-serving tier.

Mounts a committed `MultiEpochStore` behind an asyncio `QueryService`
(batching, coalescing, a result cache, admission control), a
CRC-framed TCP front end (`ServeServer` / `TCPClient`), and a load
generator (`run_load`) that drives either a `TCPClient` or, in process,
the service itself.  See the module
docstrings — `service` for the serving semantics, `proto` for the wire
format, `cache` for the invalidation-by-versioning story.
"""

from .cache import LRUCache
from .loadgen import KeySampler, LoadReport, run_load
from .proto import (
    ERR_BAD_REQUEST,
    ERR_CLOSED,
    ERR_EPOCH_RETIRED,
    ERR_INTERNAL,
    ERR_UNKNOWN_EPOCH,
    ERR_UNKNOWN_OP,
    ERR_UNSUPPORTED_VERSION,
    PROTO_VERSION,
    ServeServer,
    TCPClient,
    error_frame,
)
from .service import (
    ANY_EPOCH,
    DEADLINE_EXCEEDED,
    ERROR,
    NOT_FOUND,
    OK,
    OVERLOADED,
    QueryService,
    ServeResponse,
)

__all__ = [
    "QueryService",
    "ServeResponse",
    "ServeServer",
    "TCPClient",
    "LRUCache",
    "KeySampler",
    "LoadReport",
    "run_load",
    "ANY_EPOCH",
    "OK",
    "NOT_FOUND",
    "OVERLOADED",
    "DEADLINE_EXCEEDED",
    "ERROR",
    "PROTO_VERSION",
    "error_frame",
    "ERR_UNKNOWN_OP",
    "ERR_UNSUPPORTED_VERSION",
    "ERR_BAD_REQUEST",
    "ERR_UNKNOWN_EPOCH",
    "ERR_EPOCH_RETIRED",
    "ERR_CLOSED",
    "ERR_INTERNAL",
]
