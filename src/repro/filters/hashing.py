"""Vectorized 64-bit hashing primitives shared by every filter in this package.

All functions operate on ``numpy.uint64`` arrays (scalars are accepted and
promoted) and rely on the wrap-around semantics of unsigned integer
arithmetic.  Python ``int`` constants are explicitly wrapped in
``numpy.uint64`` because mixing a Python int with a ``uint64`` array would
silently upcast to ``float64`` for some operations.

The core mixer is `splitmix64` (Steele et al., the finalizer used by
xxhash/murmur-style hashes), which is a bijection on 64-bit words with good
avalanche behaviour.  Everything else — seeded hashing, fingerprinting,
double-hash probe sequences — is derived from it.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

__all__ = [
    "splitmix64",
    "splitmix64_int",
    "hash64",
    "hash64_int",
    "hash_pair",
    "fingerprint",
    "double_hash_probes",
    "double_hash_probes_int",
    "MASK64",
]

MASK64 = (1 << 64) - 1

_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_SHIFT30 = np.uint64(30)
_SHIFT27 = np.uint64(27)
_SHIFT31 = np.uint64(31)
_SHIFT32 = np.uint64(32)
_STEP_SEED = 0x7F4A7C15  # offsets the seed of the double-hashing step hash


def splitmix64(x: np.ndarray | int) -> np.ndarray:
    """Finalizing mixer of the SplitMix64 generator.

    A bijective scrambling of 64-bit words: equal inputs give equal outputs,
    distinct inputs give well-distributed distinct outputs.

    Parameters
    ----------
    x:
        ``uint64`` array (or anything convertible to one).

    Returns
    -------
    ``uint64`` array of the same shape.
    """
    z = np.asarray(x, dtype=np.uint64)
    if z.ndim == 0:  # NumPy scalars warn on the wraparound that is the point
        return splitmix64(z.reshape(1))[0]
    # In place on one fresh array (arrays wrap silently): a third of the
    # temporaries, and no `np.errstate` entry, per call.
    z = z + _GAMMA
    t = z >> _SHIFT30
    z ^= t
    z *= _MIX1
    np.right_shift(z, _SHIFT27, out=t)
    z ^= t
    z *= _MIX2
    np.right_shift(z, _SHIFT31, out=t)
    z ^= t
    return z


def splitmix64_int(x: int) -> int:
    """`splitmix64` of one plain Python int — bit-identical to the array
    version.  Serving probes one key at a time; the uint64 array
    round-trip (asarray, errstate, five ufunc dispatches) costs ~50x the
    arithmetic itself, which this path avoids."""
    x = (x + 0x9E3779B97F4A7C15) & MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & MASK64
    return x ^ (x >> 31)


@lru_cache(maxsize=4096)
def _mixed_seed(seed: int) -> np.uint64:
    """``splitmix64(seed)``, computed once per seed: a filter hashes every
    probe under the same few seeds, and the array mixer's fixed cost
    (errstate, five ufunc dispatches) would otherwise come with each call."""
    return splitmix64(np.uint64(seed))[()]


@lru_cache(maxsize=4096)
def _mixed_seed_int(seed: int) -> int:
    """`_mixed_seed` as a plain int, for the scalar twins."""
    return splitmix64_int(seed & MASK64)


def hash64_int(key: int, seed: int = 0) -> int:
    """Scalar twin of `hash64`, same value for any 64-bit input."""
    return splitmix64_int((key ^ _mixed_seed_int(seed)) & MASK64)


def hash64(keys: np.ndarray | int, seed: int = 0) -> np.ndarray:
    """Seeded 64-bit hash of ``keys``.

    Different seeds give independent-looking hash functions, which is how the
    Bloom filter derives its two base hashes.
    """
    k = np.asarray(keys, dtype=np.uint64)
    return splitmix64(k ^ _mixed_seed(seed))


def hash_pair(keys: np.ndarray | int, ranks: np.ndarray | int, seed: int = 0) -> np.ndarray:
    """Hash of the opaque ``key‖rank`` mapping object (paper §IV-A).

    The Bloom auxiliary table stores key→rank mappings by inserting the
    *combination* of key and source rank; this helper provides the canonical
    64-bit digest of that combination.
    """
    k = np.asarray(keys, dtype=np.uint64)
    r = np.asarray(ranks, dtype=np.uint64)
    return splitmix64(hash64(k, seed) ^ splitmix64(r * _GAMMA))


def fingerprint(keys: np.ndarray | int, bits: int, seed: int = 0x5BD1) -> np.ndarray:
    """Nonzero ``bits``-wide fingerprint of each key.

    Zero is reserved as the empty-slot sentinel in the cuckoo tables, so
    fingerprints are drawn from ``[1, 2**bits - 1]``.  The hash is folded onto
    that range; the fold keeps the distribution uniform up to the negligible
    bias of the modulo.
    """
    if not 1 <= bits <= 32:
        raise ValueError(f"fingerprint width must be in [1, 32], got {bits}")
    h = hash64(keys, seed)
    span = np.uint64((1 << bits) - 1)
    return (h % span) + np.uint64(1)


def double_hash_probes(keys: np.ndarray, nprobes: int, nbits: int, seed: int = 0) -> np.ndarray:
    """Kirsch–Mitzenmacher double-hashing probe positions for a Bloom filter.

    Returns an array of shape ``(len(keys), nprobes)`` of bit positions in
    ``[0, nbits)``.  Two base hashes are enough to simulate ``nprobes``
    independent hash functions without measurable loss in false-positive
    rate.
    """
    k = np.asarray(keys, dtype=np.uint64)
    h1 = hash64(k, seed)
    h2 = hash64(k, seed + _STEP_SEED) | np.uint64(1)  # odd => full-period step
    i = np.arange(nprobes, dtype=np.uint64)
    probes = h1[:, None] + i[None, :] * h2[:, None]
    return (probes % np.uint64(nbits)).astype(np.int64)


def double_hash_probes_int(key: int, nprobes: int, nbits: int, seed: int = 0) -> list[int]:
    """Scalar twin of `double_hash_probes` for one plain Python int: the
    same ``nprobes`` bit positions, without the array round trip."""
    h1 = hash64_int(key & MASK64, seed)
    h2 = hash64_int(key & MASK64, seed + _STEP_SEED) | 1
    return [((h1 + i * h2) & MASK64) % nbits for i in range(nprobes)]
