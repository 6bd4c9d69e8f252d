"""Dataset manifest: what lives where across epochs, committed atomically.

A multi-timestep in-situ run leaves behind one set of partition files per
dump epoch (main tables, value logs, aux tables).  The manifest records
the dataset's shape — format, rank count, value width, per-epoch record
counts and file inventories — so a reader program can open a dataset
without out-of-band knowledge.

Persistence follows the LevelDB/DeltaFS recipe adapted to this storage
model, where the atomicity unit is a whole extent: `commit` writes a
*sealed* JSON blob (magic + length + checksum, `repro.storage.envelope`)
under a fresh generation name ``MANIFEST.<n>``; promotion is implicit —
readers scan the generations and take the newest one whose seal
validates.  A crash mid-commit leaves a torn blob that fails validation,
so the previous generation wins and the interrupted epoch is simply not
visible.  `recover` builds on that: it re-reads the surviving manifest,
checks every referenced extent (footers and checksums included with
``deep=True``), quarantines epochs whose files are missing or damaged,
and sweeps extents no committed epoch references.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field

from ..obs import MetricsRegistry, active
from .blockio import ExtentLostError, StorageDevice
from .envelope import UnsupportedLayoutError, seal, try_unseal

__all__ = ["EpochInfo", "Manifest", "RecoveryReport", "MANIFEST_NAME", "MANIFEST_PREFIX"]

MANIFEST_NAME = "MANIFEST"  # the unsealed single extent before generations: refused
MANIFEST_PREFIX = "MANIFEST."
_GENERATION_RE = re.compile(r"^MANIFEST\.(\d{6,})$")
_KEEP_GENERATIONS = 2  # newest + one fallback survive each commit's sweep
_VERSION = 1


@dataclass(frozen=True)
class EpochInfo:
    """One dump epoch's inventory.

    ``order`` is the epoch's rank in the newest-first read walk.  For
    ingested epochs it equals the epoch id; a *merged* epoch inherits the
    order of its newest source, because its data is only as recent as
    what went into it — its (fresh, high) id says when it was *written*,
    not how recent its contents are.  Defaults to the epoch id, so
    manifests from before compaction read back unchanged.
    """

    epoch: int
    records: int
    files: tuple[str, ...]
    bytes: int
    order: int = -1  # -1: stand-in for "same as epoch"
    # Aux backend(s) this epoch's partitions sealed with (comma-joined when
    # the flush-time policy picked differently per rank).  None for formats
    # without aux tables and for manifests from before backend selection —
    # omitted from the serialized dict so old manifests read back unchanged.
    aux_backend: str | None = None

    def __post_init__(self) -> None:
        if self.order < 0:
            object.__setattr__(self, "order", self.epoch)

    def to_dict(self) -> dict:
        d = {
            "epoch": self.epoch,
            "records": self.records,
            "files": list(self.files),
            "bytes": self.bytes,
        }
        if self.order != self.epoch:
            d["order"] = self.order
        if self.aux_backend is not None:
            d["aux_backend"] = self.aux_backend
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "EpochInfo":
        return cls(
            epoch=int(d["epoch"]),
            records=int(d["records"]),
            files=tuple(d["files"]),
            bytes=int(d["bytes"]),
            order=int(d.get("order", d["epoch"])),
            aux_backend=d.get("aux_backend"),
        )


@dataclass
class Manifest:
    """Complete description of a persisted dataset.

    ``next_epoch`` is a monotone id watermark: epoch ids are never reused,
    even after compaction retires them, so an ``(epoch, key)`` cache entry
    anywhere in the system can never alias a later epoch.  ``compacted``
    maps every retired epoch id to the merged epoch that absorbed it.
    """

    fmt: str
    nranks: int
    value_bytes: int
    epochs: list[EpochInfo] = field(default_factory=list)
    next_epoch: int = 0
    compacted: dict[int, int] = field(default_factory=dict)

    def add_epoch(self, info: EpochInfo) -> None:
        if any(e.epoch == info.epoch for e in self.epochs):
            raise ValueError(f"epoch {info.epoch} already recorded")
        if info.epoch in self.compacted:
            raise ValueError(f"epoch id {info.epoch} was retired by compaction")
        self.epochs.append(info)
        # Data-recency order, oldest first: ``epochs[-1]`` is always the
        # epoch holding the newest data (not necessarily the highest id —
        # a merged epoch's id is fresh but its contents are old).
        self.epochs.sort(key=lambda e: (e.order, e.epoch))
        self.next_epoch = max(self.next_epoch, info.epoch + 1)

    def remove_epoch(self, epoch: int) -> EpochInfo:
        for i, e in enumerate(self.epochs):
            if e.epoch == epoch:
                return self.epochs.pop(i)
        raise KeyError(f"no such epoch {epoch}")

    def note_compaction(self, retired: list[int], merged: int) -> None:
        """Record that ``retired`` epoch ids were absorbed into ``merged``.

        Earlier retirees whose target is itself being retired are re-pointed
        at the new merged epoch, so every mapping entry resolves to a live
        epoch in one hop.
        """
        retired_set = set(retired)
        for old, target in list(self.compacted.items()):
            if target in retired_set:
                self.compacted[old] = merged
        for epoch in retired_set:
            self.compacted[epoch] = merged
        self.next_epoch = max(self.next_epoch, merged + 1)

    def resolve_epoch(self, epoch: int) -> int:
        """The live epoch serving ``epoch``'s data (identity if still live)."""
        seen = 0
        while epoch in self.compacted:
            epoch = self.compacted[epoch]
            seen += 1
            if seen > len(self.compacted):  # defensive: corrupt mapping
                raise KeyError(f"compaction mapping cycles at epoch {epoch}")
        if any(e.epoch == epoch for e in self.epochs):
            return epoch
        raise KeyError(f"no such epoch {epoch}")

    @property
    def total_records(self) -> int:
        return sum(e.records for e in self.epochs)

    @property
    def epoch_ids(self) -> list[int]:
        return [e.epoch for e in self.epochs]

    # -- persistence -------------------------------------------------------

    def to_bytes(self) -> bytes:
        doc = {
            "version": _VERSION,
            "format": self.fmt,
            "nranks": self.nranks,
            "value_bytes": self.value_bytes,
            "epochs": [e.to_dict() for e in self.epochs],
            "next_epoch": self.next_epoch,
            "compacted": {str(k): v for k, v in sorted(self.compacted.items())},
        }
        return json.dumps(doc, indent=1, sort_keys=True).encode()

    @classmethod
    def from_bytes(cls, blob: bytes) -> "Manifest":
        try:
            doc = json.loads(blob)
        except json.JSONDecodeError as e:
            raise ValueError(f"malformed manifest: {e}") from e
        if doc.get("version") != _VERSION:
            raise ValueError(f"unsupported manifest version {doc.get('version')!r}")
        m = cls(
            fmt=doc["format"], nranks=int(doc["nranks"]), value_bytes=int(doc["value_bytes"])
        )
        # `compacted` first: add_epoch refuses ids the mapping has retired.
        m.compacted = {int(k): int(v) for k, v in doc.get("compacted", {}).items()}
        for e in doc["epochs"]:
            m.add_epoch(EpochInfo.from_dict(e))
        # Manifests from before compaction carry no watermark; derive one.
        retired_cap = max(m.compacted, default=-1) + 1
        m.next_epoch = max(m.next_epoch, retired_cap, int(doc.get("next_epoch", 0)))
        return m

    # -- atomic commit -----------------------------------------------------

    @staticmethod
    def _generation_name(seq: int) -> str:
        return f"{MANIFEST_PREFIX}{seq:06d}"

    @staticmethod
    def _scan_generations(device: StorageDevice) -> list[tuple[int, str]]:
        """All ``MANIFEST.<n>`` extents present, newest first."""
        gens = []
        for name in device.list_files():
            m = _GENERATION_RE.match(name)
            if m:
                gens.append((int(m.group(1)), name))
        gens.sort(reverse=True)
        return gens

    def commit(self, device: StorageDevice) -> int:
        """Atomically promote this manifest; returns the generation number.

        The new generation is one sealed append — complete or torn, never
        half-interpreted.  Older generations beyond a small keep window are
        swept afterwards; a crash between the append and the sweep only
        leaves extra old generations, which the next load ignores and the
        next commit sweeps.
        """
        gens = self._scan_generations(device)
        seq = (gens[0][0] + 1) if gens else 1
        name = self._generation_name(seq)
        device.create(name)
        device.append(name, seal(self.to_bytes()))
        for old_seq, name in gens[_KEEP_GENERATIONS - 1 :]:
            device.delete(name)
        return seq

    @classmethod
    def load(cls, device: StorageDevice) -> "Manifest":
        """Newest generation whose seal validates; torn commits lose."""
        m = cls._load_valid(device)[1]
        if m is None:
            raise FileNotFoundError("no valid manifest on device")
        return m

    @classmethod
    def _load_valid(
        cls, device: StorageDevice
    ) -> tuple[int | None, "Manifest | None", list[str]]:
        """(generation, manifest, invalid-extent-names) for the device.  A
        device whose one manifest is the unsealed ``MANIFEST`` of the layout
        before generations raises `UnsupportedLayoutError`."""
        invalid: list[str] = []
        for seq, name in cls._scan_generations(device):
            payload = try_unseal(device.read(name, 0, device.file_size(name)))
            if payload is not None:
                try:
                    return seq, cls.from_bytes(payload), invalid
                except ValueError:
                    pass
            invalid.append(name)
        if device.exists(MANIFEST_NAME):
            raise UnsupportedLayoutError(
                f"the device's manifest is the unsealed {MANIFEST_NAME!r} extent of the "
                f"layout before sealed {MANIFEST_PREFIX}<n> generations"
            )
        return None, None, invalid

    # -- crash recovery ----------------------------------------------------

    @classmethod
    def recover(
        cls,
        device: StorageDevice,
        deep: bool = False,
        metrics: MetricsRegistry | None = None,
    ) -> "tuple[Manifest | None, RecoveryReport]":
        """Bring the device back to a consistent, fully-readable state.

        * the newest valid manifest generation wins; torn or corrupt ones
          are discarded (a crash mid-commit reverts to the prior epoch set);
        * every committed epoch's extents are checked — existence always,
          footers/section checksums for tables and sealed aux blobs, full
          data-block verification with ``deep=True`` — and epochs that fail
          are *quarantined* (dropped from the manifest, reported);
        * extents no surviving epoch references (partial output of the
          interrupted epoch, stale manifests) are swept.

        A manifest or extent in a layout this reader refuses by name raises
        `UnsupportedLayoutError` before anything is quarantined, committed
        or swept: such a store is intact, only not this version's.

        Returns ``(manifest-or-None, report)``; the repaired manifest is
        re-committed when quarantining changed it.
        """
        reg = active(metrics)
        generation, manifest, invalid = cls._load_valid(device)
        quarantined: list[tuple[int, str]] = []
        if manifest is not None:
            for info in list(manifest.epochs):
                problem = _validate_epoch(device, info, deep=deep)
                if problem is not None:
                    manifest.remove_epoch(info.epoch)
                    quarantined.append((info.epoch, problem))
        if quarantined:
            generation = manifest.commit(device)

        referenced: set[str] = set()
        if manifest is not None:
            for info in manifest.epochs:
                referenced.update(info.files)
            for _, name in cls._scan_generations(device)[:_KEEP_GENERATIONS]:
                referenced.add(name)
        orphans: list[str] = []
        bytes_reclaimed = 0
        for name in device.list_files():
            if name not in referenced:
                bytes_reclaimed += device.file_size(name)
                device.delete(name)
                orphans.append(name)

        committed = manifest.epoch_ids if manifest is not None else []
        reg.counter("recovery.runs").inc()
        reg.counter("recovery.epochs_committed").inc(len(committed))
        reg.counter("recovery.epochs_quarantined").inc(len(quarantined))
        reg.counter("recovery.orphans_removed").inc(len(orphans))
        reg.counter("recovery.bytes_reclaimed").inc(bytes_reclaimed)
        reg.counter("recovery.invalid_manifests").inc(len(invalid))
        report = RecoveryReport(
            generation=generation,
            committed_epochs=committed,
            quarantined_epochs=quarantined,
            orphans_removed=orphans,
            invalid_manifests=invalid,
            bytes_reclaimed=bytes_reclaimed,
        )
        return manifest, report


def _validate_epoch(device: StorageDevice, info: EpochInfo, deep: bool) -> str | None:
    """None if every extent the epoch references is present and sound,
    else a human-readable description of the first problem found."""
    from .sstable import SSTableReader  # local: keep module import light

    for name in info.files:
        if not device.exists(name):
            return f"missing extent {name!r}"
        try:
            if name.startswith("part."):
                reader = SSTableReader(device, name)
                if deep:
                    reader.scan_arrays()
            elif name.startswith("aux."):
                payload = try_unseal(device.read(name, 0, device.file_size(name)))
                if payload is None:
                    return f"aux extent {name!r} torn or corrupt"
        except ExtentLostError:  # deleted under this very read
            return f"missing extent {name!r}"
        except UnsupportedLayoutError:
            raise  # intact, only not this version's: never quarantine it
        except ValueError as e:  # bad magic, checksum mismatch, truncation
            return f"extent {name!r} unreadable: {e}"
    return None


@dataclass
class RecoveryReport:
    """What `Manifest.recover` found and did."""

    generation: int | None
    committed_epochs: list[int]
    quarantined_epochs: list[tuple[int, str]]
    orphans_removed: list[str]
    invalid_manifests: list[str]
    bytes_reclaimed: int

    def summary(self) -> str:
        lines = [
            f"manifest generation: {self.generation if self.generation is not None else '(none)'}",
            f"committed epochs:    {self.committed_epochs or '(none)'}",
        ]
        for epoch, why in self.quarantined_epochs:
            lines.append(f"quarantined epoch {epoch}: {why}")
        if self.invalid_manifests:
            lines.append(f"discarded manifests: {', '.join(self.invalid_manifests)}")
        lines.append(
            f"swept {len(self.orphans_removed)} orphan extent(s), "
            f"reclaimed {self.bytes_reclaimed:,} B"
        )
        return "\n".join(lines)
