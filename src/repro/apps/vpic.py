"""A reduced VPIC-style particle workload (paper §V-B).

The paper's macrobenchmark runs LANL's Vector Particle-In-Cell code for
magnetic-reconnection simulations: each process owns a region of cells,
particles drift between regions, and every few timesteps each process
dumps the 64-byte state of the particles it *currently* holds.  Because
particles migrate, a particle's trajectory ends up scattered across many
processes' output — the reason readers need online partitioning at all.

This module reproduces exactly those properties at laptop scale:

* 64-byte records keyed by an 8-byte particle ID;
* deterministic particle motion on a 1-D ring of rank domains with
  random-walk drift, so cross-rank migration rates are controllable;
* per-timestep dumps grouped by current owner rank.

The physics (field solves, Boris push) is irrelevant to FilterKV and is
replaced by the drift process; what the data-management layer sees —
sizes, keys, entropy, migration — is preserved.
"""

from __future__ import annotations

import numpy as np

from ..core.kv import KEY_BYTES, KVBatch

__all__ = ["VPICSimulation", "PARTICLE_BYTES", "PARTICLE_VALUE_BYTES"]

PARTICLE_BYTES = 64  # per-particle state in the paper's runs
PARTICLE_VALUE_BYTES = PARTICLE_BYTES - KEY_BYTES


class VPICSimulation:
    """Particles on a periodic 1-D domain decomposition.

    Parameters
    ----------
    nranks:
        Number of simulation processes (= domain slabs).
    particles_per_rank:
        Initial particles per rank.
    drift:
        RMS per-step displacement in units of slab widths; ~0.1 gives a
        few percent migration per step, like a magnetized plasma between
        dump intervals.
    """

    def __init__(
        self,
        nranks: int,
        particles_per_rank: int,
        drift: float = 0.1,
        seed: int = 0,
    ):
        if nranks < 2:
            raise ValueError("need at least 2 ranks")
        if particles_per_rank < 1:
            raise ValueError("need at least 1 particle per rank")
        if drift < 0:
            raise ValueError("drift must be non-negative")
        self.nranks = nranks
        self.drift = drift
        self._rng = np.random.default_rng(seed)
        n = nranks * particles_per_rank
        # Particle IDs are scrambled so key order carries no locality —
        # the "extreme entropy" the paper calls out (§I).
        from ..filters.hashing import splitmix64

        self.ids = splitmix64(np.arange(n, dtype=np.uint64))
        self.x = self._rng.uniform(0, nranks, size=n)
        self.v = self._rng.normal(0, drift, size=n)
        self.timestep = 0

    @property
    def nparticles(self) -> int:
        return self.ids.size

    def owner_of(self) -> np.ndarray:
        """Current owner rank of every particle."""
        return np.floor(self.x).astype(np.int64) % self.nranks

    def step(self, nsteps: int = 1) -> None:
        """Advance the simulation: drift + velocity scattering."""
        for _ in range(nsteps):
            self.v = 0.9 * self.v + self._rng.normal(0, self.drift, size=self.v.size)
            self.x = (self.x + self.v) % self.nranks
            self.timestep += 1

    def migration_fraction(self, owners_before: np.ndarray) -> float:
        """Fraction of particles that changed owner since ``owners_before``."""
        return float((self.owner_of() != owners_before).mean())

    def dump(self) -> list[KVBatch]:
        """Per-rank 64-byte particle dumps for the current timestep.

        Record layout: the value packs position, velocity, and a synthetic
        field/weight block to reach the paper's 64-byte particle size.
        """
        owners = self.owner_of()
        values = np.zeros((self.nparticles, PARTICLE_VALUE_BYTES), dtype=np.uint8)
        state = np.zeros((self.nparticles, 14), dtype="<f4")  # 56 bytes
        state[:, 0] = self.x
        state[:, 1] = self.v
        state[:, 2] = self.timestep
        # Synthetic per-particle field samples / weights: deterministic
        # functions of position so dumps are reproducible.
        for j in range(3, 14):
            state[:, j] = np.sin((j - 2) * self.x) * np.cos(j * self.v)
        values[:] = state.view(np.uint8).reshape(self.nparticles, PARTICLE_VALUE_BYTES)
        batches = []
        for rank in range(self.nranks):
            mask = owners == rank
            batches.append(KVBatch(self.ids[mask], values[mask]))
        return batches

