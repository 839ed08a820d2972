"""Catalogue of harmonic model spaces and their volume density functions.

Each model is a rank-1 symmetric space (or Euclidean space) with the
metric normalized so the volume density in geodesic polar coordinates is

    sin(r)^a cos(r)^b        positive curvature,
    sinh(r)^a cosh(r)^b      negative curvature,
    r^(m-1)                  flat,

with a = m-1 and b = d-1, where d in {1, 2, 4, 8} is the real dimension of
the family's division algebra R, C, H or O and m = d k (Besse, *Manifolds
all of whose geodesics are closed*, 1978).  A model id is the family's stem
followed by m // d: m for S, hS and E, k for CP, HP and their duals, and 2
for the octonion plane OP2 and its dual hOP2, the only octonionic models.
"""

from __future__ import annotations

import enum
import math
import operator
import re
from functools import cached_property
from typing import NamedTuple

from .errors import DomainViolation, UnsupportedModel
from .numerics import Interval, integrate


class Family(enum.Enum):
    SPHERE = "sphere"
    COMPLEX_PROJECTIVE = "complex_projective"
    QUATERNION_PROJECTIVE = "quaternion_projective"
    OCTONION_PLANE = "octonion_plane"
    HYPERBOLIC_SPACE = "hyperbolic_space"
    COMPLEX_HYPERBOLIC = "complex_hyperbolic"
    QUATERNION_HYPERBOLIC = "quaternion_hyperbolic"
    OCTONION_HYPERBOLIC = "octonion_hyperbolic"
    EUCLIDEAN = "euclidean"


# every per-family fact: id stem, curvature sign, division algebra dimension d
_ROWS = {
    Family.SPHERE: ("S", 1, 1),
    Family.COMPLEX_PROJECTIVE: ("CP", 1, 2),
    Family.QUATERNION_PROJECTIVE: ("HP", 1, 4),
    Family.OCTONION_PLANE: ("OP", 1, 8),
    Family.HYPERBOLIC_SPACE: ("hS", -1, 1),
    Family.COMPLEX_HYPERBOLIC: ("hCP", -1, 2),
    Family.QUATERNION_HYPERBOLIC: ("hHP", -1, 4),
    Family.OCTONION_HYPERBOLIC: ("hOP", -1, 8),
    Family.EUCLIDEAN: ("E", 0, 1),
}


class DensityProfile(NamedTuple):
    sine_exponent: int
    cosine_exponent: int
    curvature_sign: int  # selects sin/cos (> 0), sinh/cosh (< 0) or r (0)
    domain_end: float  # upper end of the open radial domain


class SpaceModel:
    """A catalogue model: its ``Family``, real dimension m and, for the
    families with d > 1, projective index k, both ints (from any value that
    ``operator.index`` takes).  Immutable, and equal and hashed on those
    three; ``density`` is cached in the instance ``__dict__``."""

    def __init__(self, family: Family, dimension: int, projective_index: int | None = None):
        if not isinstance(family, Family):
            raise UnsupportedModel(f"family must be a Family, got {family!r}")
        try:
            m = operator.index(dimension)
            k = None if projective_index is None else operator.index(projective_index)
        except TypeError:
            raise UnsupportedModel(
                f"m and k must be integers, got {dimension!r} and {projective_index!r}"
            ) from None
        self.__dict__.update(family=family, dimension=m, projective_index=k)
        _, _, d = _ROWS[family]
        if d == 8 and (m, k) != (16, 2):
            raise UnsupportedModel("only the projective plane OP2 exists in the catalogue")
        if m < 2:
            raise UnsupportedModel(f"dimension must be >= 2, got {m}")
        if d == 1:
            if k is not None:
                raise UnsupportedModel(f"{family.value} takes no projective index")
        elif k is None or m != d * k:
            raise UnsupportedModel(f"{family.value} needs m = {d}k, got m={m}, k={k}")

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def _key(self) -> tuple:
        return (self.family, self.dimension, self.projective_index)

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        return (
            f"SpaceModel(family={self.family!r}, dimension={self.dimension!r}, "
            f"projective_index={self.projective_index!r})"
        )

    @property
    def curvature_sign(self) -> int:
        return _ROWS[self.family][1]

    @cached_property
    def density(self) -> DensityProfile:
        """Exponents, curvature sign and domain end, resolved once per model."""
        _, sign, d = _ROWS[self.family]
        if sign <= 0:
            end = math.inf
        else:
            end = math.pi if d == 1 else 0.5 * math.pi  # sphere, projective space
        return DensityProfile(self.dimension - 1, d - 1, sign, end)

    @property
    def model_id(self) -> str:
        stem, _, d = _ROWS[self.family]
        return f"{stem}{self.dimension // d}"

    def __str__(self) -> str:
        return self.model_id


_ID_RE = re.compile(r"(h?(?:S|CP|HP|OP|E))(0|[1-9][0-9]*)")


def parse_model_id(model_id: str) -> SpaceModel:
    """Parse a CLI identifier such as S3, CP2, hHP4, OP2, E5 (case-sensitive)."""
    match = _ID_RE.fullmatch(model_id)
    if not match:
        raise UnsupportedModel(f"unrecognized model id {model_id!r}")
    num = int(match.group(2))
    for family, (stem, _, d) in _ROWS.items():
        if stem == match.group(1):
            return SpaceModel(family, d * num, None if d == 1 else num)
    raise UnsupportedModel("flat space has no hyperbolic dual id")  # hE<m>


def positive_dual(model: SpaceModel) -> SpaceModel:
    """The positive-curvature dual of a negative-curvature model."""
    if model.curvature_sign != -1:
        raise UnsupportedModel(f"{model} has no positive-curvature dual")
    return parse_model_id(model.model_id[1:])


def domain_end(model: SpaceModel) -> float:
    """Upper end of the open radial domain (diameter for compact models)."""
    return model.density.domain_end


def domain(model: SpaceModel) -> Interval:
    return Interval(0.0, domain_end(model), (True, True))


def check_radius(model: SpaceModel, *rs) -> DensityProfile:
    """The model's density profile, once every r lies in the open radial
    domain (0, D); DomainViolation names the first r that does not, in C
    order within a numpy array of radii."""
    prof = model.density
    for r in rs:
        if getattr(r, "ndim", 0):
            inside = (0.0 < r) & (r < prof.domain_end)
            if inside.all():
                continue
            r = float(r[~inside][0])
        if not (0.0 < r < prof.domain_end):
            raise DomainViolation(
                f"r={r!r} outside the open domain (0, {prof.domain_end}) of {model}"
            )
    return prof


def theta(model: SpaceModel, r):
    """Volume density at geodesic distance r from the basepoint.
    OverflowError naming the model where the value leaves float64.  ``r``
    may be a numpy array of radii, elementwise by numpy's functions, which
    agree with libm's to a few ulps; its errors are the float's, for the
    first bad radius in C order.  The last bits of an array's values depend
    on the SIMD kernels numpy dispatches on the host, and so do the outputs
    that carry them: the residual digits of ``verify`` and the
    ``laplacian_residual`` column of ``phi-table``."""
    prof = check_radius(model, r)
    a, b = prof.sine_exponent, prof.cosine_exponent
    if getattr(r, "ndim", 0) == 0:
        try:
            if prof.curvature_sign > 0:
                value = math.sin(r) ** a * math.cos(r) ** b
            elif prof.curvature_sign < 0:
                value = math.sinh(r) ** a * math.cosh(r) ** b
            else:
                value = r**a
        except OverflowError:
            value = math.inf
        if value != math.inf:
            return value
    else:
        import numpy as np  # here, so that the float path does not load numpy

        with np.errstate(over="ignore"):
            if prof.curvature_sign > 0:
                value = np.sin(r) ** a * np.cos(r) ** b
            elif prof.curvature_sign < 0:
                value = np.sinh(r) ** a * np.cosh(r) ** b
            else:
                value = np.asarray(r, dtype=float) ** a
        if value.max(initial=0.0) < np.inf:
            return value
        r = float(r[value == np.inf][0])
    raise OverflowError(f"theta of {model.model_id} at r={r!r} overflows float64")


def log_derivative_theta(model: SpaceModel, r):
    """d/dr log(theta), in closed form; elementwise on a numpy array of
    radii, checked as ``theta`` checks it."""
    prof = check_radius(model, r)
    if getattr(r, "ndim", 0) == 0:
        m = math
    else:
        import numpy as m  # here, so that the float path does not load numpy
    a, b = prof.sine_exponent, prof.cosine_exponent
    if prof.curvature_sign > 0:
        return a / m.tan(r) - b * m.tan(r)
    if prof.curvature_sign < 0:
        return a / m.tanh(r) + b * m.tanh(r)
    return a / r


def gamma_half_integer(two_x: int) -> float:
    """Gamma(two_x / 2) for a positive integer two_x, by exact recursion."""
    if two_x < 1:
        raise ValueError("argument must be a positive half-integer")
    if two_x == 1:
        return math.sqrt(math.pi)
    if two_x == 2:
        return 1.0
    return (two_x / 2.0 - 1.0) * gamma_half_integer(two_x - 2)


def unit_sphere_volume(n: int) -> float:
    """Riemannian volume of the unit n-sphere: 2 pi^((n+1)/2) / Gamma((n+1)/2).
    OverflowError for n >= 343, where Gamma (and from n = 1240 the power)
    overflows float64 and the quotient would read 0.0 or nan."""
    if n < 0:
        raise ValueError("n must be >= 0")
    try:
        # the power goes first, so a huge n overflows before the Gamma recursion
        volume = 2.0 * math.pi ** ((n + 1) / 2.0) / gamma_half_integer(n + 1)
    except OverflowError:
        volume = math.nan
    if not volume > 0.0:
        raise OverflowError(f"the volume of the unit {n}-sphere is outside float64")
    return volume


_VOLUME_TOL = 1e-11


def model_volume(model: SpaceModel) -> float:
    """Total volume of a compact (positive-curvature) model, exactly.

    The integral of sin^a cos^b over (0, pi/2) is B((a+1)/2, (b+1)/2) / 2,
    and a sphere's integral of sin^a over (0, pi) is twice that with b = 0,
    so the volume is unit_sphere_volume(m - 1) times a ratio of
    ``gamma_half_integer`` values (Besse, 1978).  OverflowError where a
    factor leaves float64, which a plain quotient would turn into 0.0 or nan.
    """
    if model.curvature_sign != 1:
        raise UnsupportedModel(
            f"{model} is not compact; use ball_volume with an explicit radius"
        )
    # first, so that a dimension beyond float64 stops before the Gamma recursion
    sphere_volume = unit_sphere_volume(model.dimension - 1)
    prof = model.density
    a, b = prof.sine_exponent, prof.cosine_exponent
    beta = gamma_half_integer(a + 1) * gamma_half_integer(b + 1) / gamma_half_integer(a + b + 2)
    # b = 0 on the spheres only, whose domain (0, pi) holds two quarter periods
    volume = sphere_volume * (beta if b == 0 else 0.5 * beta)
    if not 0.0 < volume < math.inf:
        raise OverflowError(f"the volume of {model} has a Gamma factor outside float64")
    return volume


def ball_volume(model: SpaceModel, radius: float) -> float:
    """Volume of the geodesic ball of the given radius about the basepoint."""
    end = domain_end(model)
    if not (0.0 < radius <= end and radius < math.inf):
        raise DomainViolation(
            f"radius {radius!r} outside (0, {end}{']' if end < math.inf else ')'}"
        )
    # theta vanishes at 0 and at a compact model's diameter; only those
    # ends are open, since a panel next to an open end must shrink until
    # its whole value is below tolerance
    iv = Interval(0.0, radius, (True, radius == end))
    result = integrate(lambda r: theta(model, r), iv, tol=_VOLUME_TOL)
    return unit_sphere_volume(model.dimension - 1) * result.value


def positive_curvature_catalogue() -> list[SpaceModel]:
    """The compact models exercised by verification runs."""
    ids = "S2 S3 S4 S5 S6 S7 S8 CP1 CP2 CP3 CP4 HP2 HP3 HP4 OP2".split()
    return [parse_model_id(model_id) for model_id in ids]
