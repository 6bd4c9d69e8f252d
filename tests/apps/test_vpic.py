"""Unit tests for the reduced VPIC workload."""

import numpy as np
import pytest

from repro.apps.vpic import PARTICLE_BYTES, PARTICLE_VALUE_BYTES, VPICSimulation


def test_particle_record_is_64_bytes():
    sim = VPICSimulation(nranks=4, particles_per_rank=100, seed=1)
    dumps = sim.dump()
    assert all(b.record_bytes == PARTICLE_BYTES == 64 for b in dumps)
    assert PARTICLE_VALUE_BYTES == 56


def test_dump_covers_every_particle_exactly_once():
    sim = VPICSimulation(nranks=8, particles_per_rank=500, seed=2)
    sim.step(3)
    dumps = sim.dump()
    total = sum(len(b) for b in dumps)
    assert total == sim.nparticles
    all_ids = np.concatenate([b.keys for b in dumps])
    assert len(np.unique(all_ids)) == sim.nparticles


def test_particles_migrate_between_dumps():
    """The paper's core premise: per-particle state ends up in multiple
    processes' output files over time."""
    sim = VPICSimulation(nranks=8, particles_per_rank=1000, drift=0.1, seed=3)
    before = sim.owner_of()
    sim.step(5)
    frac = sim.migration_fraction(before)
    assert 0.02 < frac < 0.9


def test_zero_drift_means_no_migration():
    sim = VPICSimulation(nranks=4, particles_per_rank=100, drift=0.0, seed=4)
    before = sim.owner_of()
    sim.step(10)
    assert sim.migration_fraction(before) == 0.0


def test_deterministic_given_seed():
    a = VPICSimulation(nranks=4, particles_per_rank=50, seed=5)
    b = VPICSimulation(nranks=4, particles_per_rank=50, seed=5)
    a.step(4)
    b.step(4)
    da, db = a.dump(), b.dump()
    for x, y in zip(da, db):
        assert np.array_equal(x.keys, y.keys)
        assert np.array_equal(x.values, y.values)


def test_ids_have_high_entropy():
    sim = VPICSimulation(nranks=2, particles_per_rank=1000, seed=6)
    assert len(np.unique(sim.ids)) == sim.nparticles
    # Scrambled IDs: consecutive particles are far apart in key space.
    assert np.abs(np.diff(sim.ids.astype(np.float64))).min() > 1


def test_owner_in_range_after_many_steps():
    sim = VPICSimulation(nranks=6, particles_per_rank=100, drift=0.5, seed=7)
    sim.step(50)
    owners = sim.owner_of()
    assert owners.min() >= 0 and owners.max() < 6


def test_validation():
    with pytest.raises(ValueError):
        VPICSimulation(nranks=1, particles_per_rank=10)
    with pytest.raises(ValueError):
        VPICSimulation(nranks=2, particles_per_rank=0)
    with pytest.raises(ValueError):
        VPICSimulation(nranks=2, particles_per_rank=1, drift=-1)


def test_timestep_counter():
    sim = VPICSimulation(nranks=2, particles_per_rank=1)
    sim.step(7)
    assert sim.timestep == 7
