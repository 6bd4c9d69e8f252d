"""Unit tests for the 2-D VPIC decomposition."""

import numpy as np
import pytest

from repro.apps.vpic import VPICSimulation, VPICSimulation2D
from repro.cluster import SimCluster
from repro.core import FMT_FILTERKV


def test_grid_and_record_shape():
    sim = VPICSimulation2D(px=4, py=3, particles_per_rank=100, seed=1)
    assert sim.nranks == 12
    dumps = sim.dump()
    assert len(dumps) == 12
    assert all(b.record_bytes == 64 for b in dumps)
    assert sum(len(b) for b in dumps) == sim.nparticles


def test_owners_cover_grid():
    sim = VPICSimulation2D(px=3, py=3, particles_per_rank=500, seed=2)
    sim.step(10)
    owners = sim.owner_of()
    assert owners.min() >= 0 and owners.max() < 9
    assert len(np.unique(owners)) == 9  # all domains populated


def test_2d_migration_faster_than_1d():
    """Two migration axes: more owner churn per step at equal drift."""
    one = VPICSimulation(nranks=16, particles_per_rank=800, drift=0.08, seed=3)
    two = VPICSimulation2D(px=4, py=4, particles_per_rank=800, drift=0.08, seed=3)
    b1, b2 = one.owner_of(), two.owner_of()
    one.step(4)
    two.step(4)
    assert two.migration_fraction(b2) > one.migration_fraction(b1)


def test_rotation_conserves_population():
    sim = VPICSimulation2D(px=2, py=2, particles_per_rank=300, drift=0.3, seed=4)
    n = sim.nparticles
    sim.step(30)
    assert sim.nparticles == n
    assert np.isfinite(sim.x).all() and np.isfinite(sim.vy).all()
    assert (0 <= sim.x).all() and (sim.x < 2).all()
    assert (0 <= sim.y).all() and (sim.y < 2).all()


def test_determinism():
    a = VPICSimulation2D(2, 3, 50, seed=5)
    b = VPICSimulation2D(2, 3, 50, seed=5)
    a.step(3)
    b.step(3)
    for x, y in zip(a.dump(), b.dump()):
        assert np.array_equal(x.keys, y.keys)
        assert np.array_equal(x.values, y.values)


def test_feeds_simcluster():
    sim = VPICSimulation2D(px=2, py=2, particles_per_rank=500, seed=6)
    sim.step(2)
    cluster = SimCluster(nranks=4, fmt=FMT_FILTERKV, value_bytes=56)
    for rank, batch in enumerate(sim.dump()):
        cluster.put(rank, batch)
    cluster.finish_epoch()
    target = int(sim.ids[7])
    value, qs = cluster.query_engine().get(target)
    assert qs.found
    state = np.frombuffer(value, dtype="<f4")
    assert state[4] == sim.timestep  # timestep field round-trips


def test_validation():
    with pytest.raises(ValueError):
        VPICSimulation2D(1, 1, 10)
    with pytest.raises(ValueError):
        VPICSimulation2D(2, 2, 0)
    with pytest.raises(ValueError):
        VPICSimulation2D(2, 2, 1, drift=-0.1)
