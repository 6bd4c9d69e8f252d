"""Applications: the reduced VPIC particle simulations."""

from .vpic import PARTICLE_BYTES, PARTICLE_VALUE_BYTES, VPICSimulation, VPICSimulation2D

__all__ = [
    "PARTICLE_BYTES",
    "PARTICLE_VALUE_BYTES",
    "VPICSimulation",
    "VPICSimulation2D",
]
