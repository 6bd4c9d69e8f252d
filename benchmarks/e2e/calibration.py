"""Machine-speed calibration.

On a shared box the same instructions take +-10 % longer from one second
to the next and from one minute to the next, and CPU time moves with wall
time, so neither longer runs nor CPU clocks remove it.  What does is a
reference measured in the same seconds as the work: the workloads call
`Clock.tick` every few operations inside a timed round, each tick runs one
fixed `unit` of work, and the round's times are divided by how much slower
than `NOMINAL_UNIT_S` the units ran.  Timing metrics are therefore in
seconds of a machine on which the unit takes its nominal time.

The unit mixes what the program is made of: uint64 array arithmetic, a
sort and a gather, byte-string building, JSON, and plain bytecode with dict
traffic.  Ticks are ~1 ms and ~2 % of a round.
"""

from __future__ import annotations

import json
import time

import numpy as np

__all__ = ["NOMINAL_UNIT_S", "unit"]

# Median unit time on the reference box (2 shared cores, Python 3.11,
# NumPy 2.4).  A constant: changing it rescales every timing metric.
NOMINAL_UNIT_S = 0.6e-3

_KEYS = np.random.default_rng(0).integers(0, 2**63, size=6000, dtype=np.uint64)
_ROWS = np.random.default_rng(1).integers(0, 256, size=(1024, 56), dtype=np.uint8)
_MESSAGE = {"id": 7, "op": "get", "key": 1234567890123, "epoch": None, "value": "ab" * 56}


def unit() -> float:
    """One fixed piece of work; returns the seconds it took."""
    t0 = time.perf_counter()
    mixed = (_KEYS ^ (_KEYS >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    order = np.argsort(mixed, kind="stable")
    np.searchsorted(mixed[order], mixed[:512])
    blob = _ROWS[order[:1024] % 1024].tobytes()
    parts = [blob[i : i + 56] for i in range(0, 56 * 256, 56)]
    b"".join(parts)
    table = {}
    for i in range(400):
        table[i & 63] = table.get(i & 63, 0) + i
    for _ in range(4):
        json.loads(json.dumps(_MESSAGE))
    return time.perf_counter() - t0
