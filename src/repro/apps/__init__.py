"""Applications: the reduced VPIC particle simulation."""

from .vpic import PARTICLE_BYTES, PARTICLE_VALUE_BYTES, VPICSimulation

__all__ = [
    "PARTICLE_BYTES",
    "PARTICLE_VALUE_BYTES",
    "VPICSimulation",
]
