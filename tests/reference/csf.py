"""The CSF build written one key at a time: the construction's test oracle.

`XorMaplet` peels and assigns in synchronous array rounds.  This module is
the construction it replaced: a stack of degree-one slots popped one at a
time, then a reversed per-key walk that sets each key's free slot.  Both
peel the same hypergraph — the same positions, the same retry seeds — so
they settle on the same seed and ``tries`` and answer every stored key
alike; only which slot each key frees, and so the slot contents, differ.

It hashes the way the maplet has always been specified — one `hash64` per
segment under ``seed + i``, the fingerprint under ``seed + 0xF1`` — and
shares with the code under test only `csf_segment` (the geometry),
`XorMaplet.from_state` (the query side) and, for `seal`, the `CsfAuxTable`
blob codec.
"""

from __future__ import annotations

import numpy as np

from repro.core.auxtable import CsfAuxTable, aux_to_blob
from repro.filters.csf import _SEED_STRIDE, CsfConstructionError, XorMaplet, csf_segment
from repro.filters.hashing import fingerprint, hash64


def positions(keys: np.ndarray, segment: int, seed: int) -> np.ndarray:
    """(n, 3) slot indices, one per segment."""
    cols = [
        (hash64(keys, seed + i) % np.uint64(segment)).astype(np.int64) + i * segment
        for i in range(3)
    ]
    return np.stack(cols, axis=1)


def peel(pos: np.ndarray, nslots: int) -> list[tuple[int, int]] | None:
    """Peel order as (key index, freed slot), or None on failure."""
    n = pos.shape[0]
    count = np.zeros(nslots, dtype=np.int64)
    xor_keyidx = np.zeros(nslots, dtype=np.int64)
    for c in range(3):
        np.add.at(count, pos[:, c], 1)
        np.bitwise_xor.at(xor_keyidx, pos[:, c], np.arange(n))
    queue = list(np.nonzero(count == 1)[0])
    order: list[tuple[int, int]] = []
    alive = np.ones(n, dtype=bool)
    while queue:
        slot = queue.pop()
        if count[slot] != 1:
            continue
        ki = int(xor_keyidx[slot])
        if not alive[ki]:
            continue
        alive[ki] = False
        order.append((ki, int(slot)))
        for c in range(3):
            s = int(pos[ki, c])
            count[s] -= 1
            xor_keyidx[s] ^= ki
            if count[s] == 1:
                queue.append(s)
    return order if len(order) == n else None


def assign(words: np.ndarray, pos: np.ndarray, order, nslots: int) -> np.ndarray:
    """Slot array from a peel order, one key at a time in reverse."""
    slots = np.zeros(nslots, dtype=np.uint64)
    for ki, free_slot in reversed(order):
        acc = words[ki]
        for c in range(3):
            s = int(pos[ki, c])
            if s != free_slot:
                acc ^= slots[s]
        slots[free_slot] = acc
    return slots


def build(
    keys: np.ndarray,
    values: np.ndarray,
    value_bits: int,
    fp_bits: int = 4,
    seed: int = 0,
    max_tries: int = 32,
) -> XorMaplet:
    """A maplet built the per-key way, with the same seeds and ``tries`` a
    `XorMaplet` of the same arguments reports (distinct keys assumed)."""
    keys = np.asarray(keys, dtype=np.uint64).ravel()
    values = np.asarray(values, dtype=np.uint64).ravel()
    segment = csf_segment(keys.size)
    nslots = 3 * segment
    for attempt in range(max_tries):
        tried = seed + attempt * _SEED_STRIDE
        pos = positions(keys, segment, tried)
        order = peel(pos, nslots)
        if order is not None:
            fps = fingerprint(keys, fp_bits, seed=tried + 0xF1).astype(np.uint64)
            slots = assign((fps << np.uint64(value_bits)) | values, pos, order, nslots)
            m = XorMaplet.from_state(slots, keys.size, value_bits, fp_bits, tried)
            m.tries = attempt + 1
            return m
    raise CsfConstructionError(f"peeling failed after {max_tries} seeds")


def seal(keys: np.ndarray, ranks: np.ndarray, nparts: int, seed: int = 0) -> bytes:
    """The csf aux blob the per-key construction sealed for distinct ``keys``
    (what an epoch written before the round-synchronous build holds)."""
    aux = CsfAuxTable(nparts, seed=seed)
    aux._maplet = build(keys, ranks, aux.value_bits, aux.fp_bits, seed)
    aux._nkeys = aux._maplet.nkeys
    aux._finalized = True
    return aux_to_blob(aux)
