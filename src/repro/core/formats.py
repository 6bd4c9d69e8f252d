"""The three online data-partitioning formats and their cost accounting.

Fig. 3 of the paper defines the competitors; this module captures, for each
format, exactly how many bytes one record pushes onto the network and onto
storage, plus the calibrated per-record CPU cost of the in-situ pipeline.
Both the analytic write-phase model (`repro.core.costmodel`) and the real
executing pipeline (`repro.core.pipeline`) derive their behaviour from
these specs, so the two agree by construction.

Per-record byte accounting (K = key bytes, V = value bytes, N partitions):

===============  ==================  =============  ==========================
format           shuffled            local storage  remote storage
===============  ==================  =============  ==========================
``Fmt-Base``     K + V               —              K + V
``Fmt-DataPtr``  K + 8 (offset)      V              K + 12 (4 B rank+8 B off)
``Fmt-FilterKV`` K                   K + V          (4 + ⌈log2 N⌉)/8 ÷ util
===============  ==================  =============  ==========================

The sender's rank rides in the batch envelope (one per ~16 KB RPC), which
is why DataPtr ships only the 8-byte offset but must *store* the full
12-byte pointer, and why FilterKV ships keys alone — "no data offsets need
to be sent" (§V-A).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..storage.log import POINTER_BYTES
from .auxtable import rank_bits
from .kv import KEY_BYTES

__all__ = ["FormatSpec", "FMT_BASE", "FMT_DATAPTR", "FMT_FILTERKV", "FORMATS"]

_OFFSET_BYTES = 8
_CUCKOO_UTILIZATION = 0.95  # chained tables reach ~95 % occupancy (§IV-B)


@dataclass(frozen=True)
class FormatSpec:
    """Static description of one partitioning scheme.

    ``per_record_cpu_us`` is the calibrated single-thread CPU time (at
    Haswell speed) the in-situ pipeline spends per record across both the
    send and receive sides — serialization, hashing, local writes, and
    index maintenance.  DataPtr pays the most (two write streams plus
    pointer bookkeeping); FilterKV the least (key-only payloads).
    """

    name: str
    cuckoo_fp_bits: int = 4
    per_record_cpu_us: float = 0.30

    def shuffle_bytes_per_record(self, value_bytes: int, nparts: int) -> float:
        """Bytes of RPC payload one record contributes."""
        if self.name == "base":
            return KEY_BYTES + value_bytes
        if self.name == "dataptr":
            return KEY_BYTES + _OFFSET_BYTES
        return float(KEY_BYTES)

    def local_bytes_per_record(self, value_bytes: int, nparts: int) -> float:
        """Bytes the producing process writes to its own storage."""
        if self.name == "base":
            return 0.0
        if self.name == "dataptr":
            return float(value_bytes)
        return float(KEY_BYTES + value_bytes)

    def remote_bytes_per_record(self, value_bytes: int, nparts: int) -> float:
        """Bytes the partition owner writes for one received record."""
        if self.name == "base":
            return KEY_BYTES + value_bytes
        if self.name == "dataptr":
            return KEY_BYTES + POINTER_BYTES
        return self.index_bytes_per_key(nparts)

    def storage_bytes_per_record(self, value_bytes: int, nparts: int) -> float:
        """Total bytes landing on storage per record (local + remote)."""
        return self.local_bytes_per_record(value_bytes, nparts) + self.remote_bytes_per_record(
            value_bytes, nparts
        )

    def index_bytes_per_key(self, nparts: int) -> float:
        """Index-only overhead per key — the paper's Fig. 7b metric."""
        if self.name == "base":
            return 0.0
        if self.name == "dataptr":
            return float(POINTER_BYTES)
        slot_bits = self.cuckoo_fp_bits + rank_bits(nparts)
        return slot_bits / 8.0 / _CUCKOO_UTILIZATION

    def storage_blowup(self, value_bytes: int, nparts: int) -> float:
        """Storage bytes relative to the raw data (1.0 = no overhead)."""
        raw = KEY_BYTES + value_bytes
        return self.storage_bytes_per_record(value_bytes, nparts) / raw

    def shuffle_fraction(self, value_bytes: int, nparts: int) -> float:
        """Shuffled payload bytes relative to the raw data."""
        raw = KEY_BYTES + value_bytes
        return self.shuffle_bytes_per_record(value_bytes, nparts) / raw


FMT_BASE = FormatSpec("base", per_record_cpu_us=0.30)
FMT_DATAPTR = FormatSpec("dataptr", per_record_cpu_us=0.40)
FMT_FILTERKV = FormatSpec("filterkv", per_record_cpu_us=0.25)

FORMATS: dict[str, FormatSpec] = {
    f.name: f for f in (FMT_BASE, FMT_DATAPTR, FMT_FILTERKV)
}
