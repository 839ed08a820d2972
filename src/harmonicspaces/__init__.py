"""Radial harmonic functions on rank-1 symmetric spaces and their quotients.

Submodules:
  numerics   adaptive Gauss-Kronrod quadrature and central differences
  spaces     model catalogue, volume densities, volumes
  harmonic   phi1 = 1/theta, closed-form and numeric phi0, verification
  quotients  deck groups, quotient distances, injectivity radii, cut loci
  topology   Euler/signature catalogue and volume lower bounds
  cli        the harmonic-spaces command-line tool
"""

from .errors import (
    DomainViolation,
    HarmonicSpacesError,
    InvalidPoint,
    NonConvergence,
    SelfCheckFailed,
    UnsupportedModel,
)
from .numerics import Interval, QuadratureResult, derivative, integrate
from .spaces import (
    Family,
    SpaceModel,
    domain_end,
    model_volume,
    parse_model_id,
    theta,
    unit_sphere_volume,
)

__all__ = [
    "DomainViolation",
    "HarmonicSpacesError",
    "InvalidPoint",
    "NonConvergence",
    "SelfCheckFailed",
    "UnsupportedModel",
    "Interval",
    "QuadratureResult",
    "derivative",
    "integrate",
    "Family",
    "SpaceModel",
    "domain_end",
    "model_volume",
    "parse_model_id",
    "theta",
    "unit_sphere_volume",
]

__version__ = "0.1.0"
