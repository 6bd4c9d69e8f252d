"""Deterministic fault schedules.

A `FaultPlan` is an ordered list of `FaultSpec`s, each describing one
fault to inject into the storage path: *what* goes wrong (`kind`), *when*
(a device operation index), and *where* (an extent-name glob).  Plans are
pure data plus a seed — every randomized detail (which bit flips, where a
torn append tears, which matching extent is dropped) is derived from the
seed and the firing operation's index, so a trial that fails under seed
``s`` replays byte-for-byte under seed ``s``.

Fault kinds
-----------
``bit_flip``
    One stored bit of a matching extent is flipped at rest; the workload
    continues unaware.  Checksums must catch it at read time.
``torn_append``
    An append persists only a prefix and the process dies — the classic
    torn write.  Applied via the public `StorageDevice.truncate`.
``drop_extent``
    A matching extent disappears after the operation completes (lost
    file); later access raises `ExtentLostError`.
``io_error``
    The operation fails with `OSError` instead of executing; the device
    survives and the caller may retry.
``crash``
    The process dies before the operation executes.  The device refuses
    further I/O until `FaultyStorageDevice.revive` — storage keeps
    exactly the bytes that made it down before the crash.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fnmatch import fnmatchcase

import numpy as np

__all__ = ["CrashPoint", "FaultSpec", "FaultPlan", "FAULT_KINDS"]

FAULT_KINDS = ("bit_flip", "torn_append", "drop_extent", "io_error", "crash")

# Which device operations each kind can fire on.
_APPLIES_TO = {
    "bit_flip": ("append", "read"),
    "torn_append": ("append",),
    "drop_extent": ("append", "read"),
    "io_error": ("append", "read"),
    "crash": ("append", "read"),
}


class CrashPoint(RuntimeError):
    """The simulated process died at a scheduled crash (or torn append)."""


@dataclass
class FaultSpec:
    """One scheduled fault.

    Attributes
    ----------
    kind:
        One of `FAULT_KINDS`.
    op:
        Fire at the first eligible operation whose global index is >= this
        (``None`` = the first eligible operation of any index).
    pattern:
        Extent-name glob the operation's target must match (``None`` = any
        extent).  For ``drop_extent`` the pattern also selects the victim.
    arg:
        Kind-specific knob: the bit index for ``bit_flip``, the surviving
        fraction for ``torn_append``.  ``None`` derives it from the seed.
    """

    kind: str
    op: int | None = None
    pattern: str | None = None
    arg: float | None = None
    fired_at: int | None = field(default=None, compare=False)

    def __post_init__(self):
        if self.kind not in FAULT_KINDS:
            raise ValueError(f"unknown fault kind {self.kind!r}; know {FAULT_KINDS}")
        if self.op is not None and self.op < 0:
            raise ValueError("op index must be non-negative")

    @property
    def fired(self) -> bool:
        return self.fired_at is not None

    def eligible(self, op_index: int, name: str, op_type: str) -> bool:
        if self.fired or op_type not in _APPLIES_TO[self.kind]:
            return False
        if self.op is not None and op_index < self.op:
            return False
        return self.pattern is None or fnmatchcase(name, self.pattern)


class FaultPlan:
    """A seeded, fully deterministic schedule of `FaultSpec`s.

    Specs are consumed in order of arming, one at most per device
    operation; a spec whose trigger never occurs simply never fires.
    The plan is mutable — `add` / `crash_at` may arm further faults
    mid-run — which is how harnesses schedule a second crash after a
    first recovery.
    """

    def __init__(self, seed: int = 0):
        self.seed = int(seed)
        self.specs: list[FaultSpec] = []

    # -- arming ------------------------------------------------------------

    def add(self, spec: FaultSpec) -> "FaultPlan":
        self.specs.append(spec)
        return self

    def crash_at(self, op: int, pattern: str | None = None) -> "FaultPlan":
        return self.add(FaultSpec("crash", op=op, pattern=pattern))

    # -- firing ------------------------------------------------------------

    def take(self, op_index: int, name: str, op_type: str) -> FaultSpec | None:
        """The first armed spec eligible for this operation, marked fired.

        The caller (the faulty device) is responsible for actually
        applying the fault; marking here keeps every spec one-shot.
        """
        for spec in self.specs:
            if spec.eligible(op_index, name, op_type):
                spec.fired_at = op_index
                return spec
        return None

    def rng_for(self, op_index: int) -> np.random.Generator:
        """Deterministic generator for details decided at fire time."""
        return np.random.default_rng((self.seed << 20) ^ 0x5EED ^ op_index)

    @property
    def fired(self) -> list[FaultSpec]:
        return [s for s in self.specs if s.fired]

    def __len__(self) -> int:
        return len(self.specs)

    def __repr__(self) -> str:
        return f"FaultPlan(seed={self.seed}, specs={self.specs!r})"
