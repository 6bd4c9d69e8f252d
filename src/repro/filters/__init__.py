"""Compact filter substrate: the data structures behind FilterKV aux tables.

Exports:

* `BloomFilter` — vectorized Bloom filter (paper §IV-A).
* `PartialKeyCuckooTable` / `ChainedCuckooTable` — partial-key cuckoo hash
  tables with the paper's chained-growth scheme (§IV-B).
* `XorMaplet` — compressed static function (key → value maplet) with a
  fused fingerprint guard, for sealed aux tables.
* hashing helpers (`splitmix64`, `hash64`, `hash_pair`, `fingerprint`).
"""

from .bloom import BloomFilter, false_positive_rate, optimal_nhashes
from .cuckoo import ChainedCuckooTable, CuckooStats, CuckooTableFull, PartialKeyCuckooTable
from .csf import CsfConstructionError, XorMaplet
from .hashing import double_hash_probes, fingerprint, hash64, hash_pair, splitmix64

__all__ = [
    "BloomFilter",
    "false_positive_rate",
    "optimal_nhashes",
    "ChainedCuckooTable",
    "CuckooStats",
    "CuckooTableFull",
    "PartialKeyCuckooTable",
    "CsfConstructionError",
    "XorMaplet",
    "splitmix64",
    "hash64",
    "hash_pair",
    "fingerprint",
    "double_hash_probes",
]
