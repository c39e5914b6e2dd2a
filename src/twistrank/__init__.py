"""Rank statistics of twist families.

Finite-field isotropic geometry, the rank-transition Markov chain and its
stationary symplectic/unitary distributions, a fan-structure twisting
simulator, and the downstream density/bound calculators.
"""

from .gf import FieldParams, Flavor, FqElem, build_field
from .rankdist import RankDistribution, dist_value, stationary_distribution
from .spaces import (
    HermitianSpace,
    LocalPlane,
    Subspace,
    build_local_plane,
    enumerate_isotropic_lines,
)
from .twistsim import EmpiricalDistribution, SimConfig, simulate

__all__ = [
    "FieldParams",
    "Flavor",
    "FqElem",
    "build_field",
    "RankDistribution",
    "dist_value",
    "stationary_distribution",
    "HermitianSpace",
    "LocalPlane",
    "Subspace",
    "build_local_plane",
    "enumerate_isotropic_lines",
    "EmpiricalDistribution",
    "SimConfig",
    "simulate",
]

__version__ = "0.1.0"
